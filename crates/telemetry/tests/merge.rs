//! Per-thread segments must be schedule-independent, and per-segment
//! `Registry` aggregates merged in order must equal a sequential run's.
//!
//! Each cell carries its recorder in an explicit [`SimCtx`] — the handle
//! is `Send`, so the context itself crosses into the worker thread, which
//! is exactly how the parallel experiment runner ships recorders to cells.

use hpn_telemetry::{replay, Event, EventLog, Registry, SharedRecorder, SimCtx};

/// Emit one cell's synthetic telemetry through the context's recorder —
/// the same path simulations use — with a clock that restarts at zero.
fn emit_cell(ctx: &SimCtx, cell: u32, events_per_cell: u64) {
    let rec = ctx.recorder();
    rec.record(&Event::SimStart {
        label: format!("cell{cell}"),
    });
    for i in 0..events_per_cell {
        rec.record(&Event::FlowAdd {
            t_ns: i * 10,
            flow: u64::from(cell) << 32 | i,
            path_links: 4,
            size_bits: 1e9 + f64::from(cell),
        });
        rec.record(&Event::LinkSample {
            t_ns: i * 10 + 5,
            link: cell % 3,
            utilization: (i % 10) as f64 / 10.0,
            queue_bits: i as f64,
            capacity_bps: 400e9,
        });
    }
}

/// A per-cell context recording into a fresh [`EventLog`].
fn cell_ctx() -> (SimCtx, EventLog) {
    let log = EventLog::new();
    let ctx = SimCtx::new().with_recorder(SharedRecorder::new(Box::new(log.clone())));
    (ctx, log)
}

/// Run `cells` cells, each on its own thread with its own context
/// (constructed on the coordinator and *moved* to the worker), and return
/// the captured segments indexed by cell (plan order).
fn parallel_segments(cells: u32, events_per_cell: u64) -> Vec<Vec<Event>> {
    let mut handles = Vec::new();
    for cell in 0..cells {
        let (ctx, log) = cell_ctx();
        handles.push(std::thread::spawn(move || {
            emit_cell(&ctx, cell, events_per_cell);
            ctx.recorder().flush();
            log.take()
        }));
    }
    handles
        .into_iter()
        .map(|h| h.join().expect("worker thread"))
        .collect()
}

fn sequential_segments(cells: u32, events_per_cell: u64) -> Vec<Vec<Event>> {
    (0..cells)
        .map(|cell| {
            let (ctx, log) = cell_ctx();
            emit_cell(&ctx, cell, events_per_cell);
            ctx.recorder().flush();
            log.take()
        })
        .collect()
}

#[test]
fn merged_registry_equals_sequential_registry() {
    let par = parallel_segments(5, 40);
    let seq = sequential_segments(5, 40);

    // The per-thread capture itself is deterministic: same segments either way.
    assert_eq!(par, seq, "per-cell segments are schedule-independent");

    // Parallel reduction: one registry per worker segment, merged in plan order.
    let mut merged = Registry::new();
    for seg in &par {
        let mut worker = Registry::new();
        replay(seg, &mut worker);
        merged.merge(&worker);
    }

    // Sequential baseline: one registry sees everything in plan order.
    let mut sequential = Registry::new();
    for seg in &seq {
        replay(seg, &mut sequential);
    }

    assert_eq!(
        sequential.counts().collect::<Vec<_>>(),
        merged.counts().collect::<Vec<_>>()
    );
    assert_eq!(sequential.flows().added, merged.flows().added);
    assert_eq!(sequential.links_observed(), merged.links_observed());
    for l in 0..3 {
        let (a, b) = (sequential.link(l).unwrap(), merged.link(l).unwrap());
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.utilization.bins(), b.utilization.bins());
        assert_eq!(a.mean_utilization(), b.mean_utilization());
    }
    assert_eq!(sequential.summary_json(), merged.summary_json());
    assert_eq!(
        sequential.latency_summary_json(),
        merged.latency_summary_json(),
        "quantile summaries are byte-identical across merge groupings"
    );
}

#[test]
fn contexts_are_isolated_not_thread_scoped() {
    // Two contexts on the same thread record into different sinks — and a
    // context moved to another thread keeps recording into its own sink.
    // No thread-local coupling in either direction.
    let (ctx_a, log_a) = cell_ctx();
    let (ctx_b, log_b) = cell_ctx();
    emit_cell(&ctx_a, 0, 2);
    emit_cell(&ctx_b, 1, 3);
    assert_eq!(log_a.len(), 1 + 2 * 2);
    assert_eq!(log_b.len(), 1 + 2 * 3);

    let moved = std::thread::spawn(move || {
        emit_cell(&ctx_b, 2, 1);
        ctx_b.recorder().enabled()
    })
    .join()
    .expect("probe thread");
    assert!(moved, "a moved context still records");
    assert_eq!(log_b.len(), 1 + 2 * 3 + 1 + 2, "events landed in b's sink");
    assert_eq!(log_a.len(), 1 + 2 * 2, "a's sink untouched by b's thread");
}
