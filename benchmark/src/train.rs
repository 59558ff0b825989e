//! `train_pod` and `moe_a2a`: build a training scenario several times,
//! then run one warm-up and a number of measured iterations sized by
//! `--seconds`, building it again a few times after each.
//!
//! Both simulate fixed inputs, whatever the seed: the simulation is
//! deterministic, so every iteration must reproduce the fingerprint pinned
//! in `expected.json` bit for bit (samples/s bits, simulated duration,
//! completed flows). The simulator keeps about 0.9 MB more per iteration
//! on `train_pod`, so peak RSS follows the iteration count, and the count
//! is fixed per run rather than set by a deadline; only a run on a very
//! slow host stops short of it.
//!
//! The host-speed probe runs after the first set-ups and after each
//! iteration with its set-ups; the end-to-end times are scaled by the
//! run's [`Probe::scale`].

use std::time::Instant;

use hpn_core::{IterationOutcome, IterationRecord};
use hpn_telemetry::SimCtx;

use crate::json::Json;
use crate::outcome::{peak_rss_mb, Outcome};
use crate::probe::Probe;
use crate::setup;
use crate::stats::median;
use crate::Cfg;

/// Set-ups before the first iteration (the last one is the session that
/// runs), and after every iteration. `setup_s` is the median of them all.
/// Each takes a few milliseconds: bunched at the start, 25 of them
/// sampled whatever the shared host did in those 40 ms, and their median
/// moved by 50% between processes. Spread over the run, they see the
/// same host the iterations do. A build after an iteration takes as long
/// as a process's first build (about 2× a back-to-back rebuild), which is
/// the cost the single build of a `scenario run` pays.
const SETUPS_FIRST: u64 = 5;
const SETUPS_PER_ITERATION: u64 = 4;

struct Expected {
    sps_bits: u64,
    sim_ns: u64,
    flows_per_iteration: u64,
}

impl Expected {
    fn from_json(v: Option<&Json>) -> Result<Self, String> {
        let v = v.ok_or("workload missing from expected.json")?;
        let int = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .map(|x| x as u64)
                .ok_or(format!("expected.json: `{k}` missing"))
        };
        let bits = v
            .get("samples_per_sec_bits")
            .and_then(Json::as_str)
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or("expected.json: `samples_per_sec_bits` missing")?;
        Ok(Expected {
            sps_bits: bits,
            sim_ns: int("sim_ns")?,
            flows_per_iteration: int("flows_per_iteration")?,
        })
    }

    fn check(&self, rec: &IterationRecord, flows: u64) -> Option<String> {
        if !matches!(rec.outcome, IterationOutcome::Completed { .. }) {
            return Some(format!("iteration {} timed out", rec.index));
        }
        let sim_ns = (rec.end - rec.start).as_nanos();
        let sps = rec.samples_per_sec.to_bits();
        (sps != self.sps_bits || sim_ns != self.sim_ns || flows != self.flows_per_iteration).then(
            || {
                format!(
                    "fingerprint mismatch: samples/s bits {sps:016x} (want {:016x}), \
                     sim {sim_ns} ns (want {}), flows {flows} (want {})",
                    self.sps_bits, self.sim_ns, self.flows_per_iteration
                )
            },
        )
    }
}

fn fingerprint(rec: &IterationRecord, flows: u64) -> String {
    format!(
        "sps_bits={:016x} sim_ns={} flows={flows}",
        rec.samples_per_sec.to_bits(),
        (rec.end - rec.start).as_nanos()
    )
}

/// `per_second` is measured iterations per second of `--seconds`.
pub fn run(toml: &str, expected: Option<&Json>, per_second: f64, cfg: &Cfg) -> Outcome {
    let mut o = Outcome::new(cfg.trace);
    let expected = match Expected::from_json(expected) {
        Ok(e) => e,
        Err(e) => {
            o.check(Some(e));
            return o;
        }
    };
    let ctx = SimCtx::default();
    let mut probe = Probe::new();
    let mut setup_s = Vec::new();
    let mut build = |o: &mut Outcome| {
        let b = setup::build(toml, &ctx, &mut o.tracer, setup_s.len() as u64)?;
        setup_s.push(b.1);
        Ok::<_, String>(b.0)
    };
    let mut built = None;
    for _ in 0..SETUPS_FIRST {
        match build(&mut o) {
            Ok(s) => built = Some(s),
            Err(e) => {
                o.check(Some(e));
                return o;
            }
        }
    }
    probe.read();
    let mut s = built.expect("SETUPS_FIRST > 0");
    let Some(workload) = s.workload.take() else {
        o.check(Some("scenario has no workload".into()));
        return o;
    };
    let clock = cfg
        .trace
        .then(|| crate::alloc::install(&mut s.cluster, &ctx));
    let alloc_ns = || clock.as_ref().map_or(0, |c| c.ns());
    let mut session = workload.session();

    // Warm-up: checked, not timed.
    let fct0 = s.cluster.net.fct_sketch().count();
    let rec = session.run_iteration(&mut s.cluster);
    let flows = s.cluster.net.fct_sketch().count() - fct0;
    o.check(expected.check(&rec, flows));
    o.fingerprint = fingerprint(&rec, flows);

    let (mut iter_ms, mut self_ms) = (Vec::new(), Vec::new());
    let (mut alloc_total_ns, mut iter_total_s) = (0u64, 0.0);
    let scope0 = s.cluster.alloc_scope();
    let stats0 = s.cluster.stats();
    let fct_start = s.cluster.net.fct_sketch().count();
    let start = Instant::now();
    let mut measured = 0u64;
    while measured < cfg.ops(per_second) && !cfg.overtime(start) {
        let (fct0, ns0, events0) = (
            s.cluster.net.fct_sketch().count(),
            alloc_ns(),
            s.cluster.alloc_scope().events,
        );
        let span = o.tracer.start("core.iteration", None, measured);
        let t = Instant::now();
        let rec = session.run_iteration(&mut s.cluster);
        let dt = t.elapsed();
        o.tracer.end(span);
        let flows = s.cluster.net.fct_sketch().count() - fct0;
        o.check(expected.check(&rec, flows));
        let ns = alloc_ns() - ns0;
        if o.tracer.enabled() {
            // All of this iteration's recomputes folded into one child.
            let begin = o.tracer.spans()[span].start_ns;
            let events = s.cluster.alloc_scope().events - events0;
            o.tracer.record(
                "sim.alloc.recompute",
                begin,
                begin + ns,
                Some(span),
                measured,
                events,
            );
        }
        iter_ms.push(dt.as_secs_f64() * 1e3);
        self_ms.push((dt.as_secs_f64() - ns as f64 / 1e9) * 1e3);
        alloc_total_ns += ns;
        iter_total_s += dt.as_secs_f64();
        measured += 1;
        for _ in 0..SETUPS_PER_ITERATION {
            if let Err(e) = build(&mut o) {
                o.check(Some(e));
            }
        }
        probe.read();
    }

    let n = measured as f64;
    let scope = s.cluster.alloc_scope().since(&scope0);
    let stats = s.cluster.stats();
    let scale = probe.scale();
    let p50 = median(&iter_ms).unwrap_or(f64::NAN) * scale;
    if cfg.trace {
        let events = scope.events.max(1) as f64;
        o.set("sim.alloc.recompute_ms", alloc_total_ns as f64 / 1e6 / n);
        o.set(
            "sim.alloc.share",
            alloc_total_ns as f64 / 1e9 / iter_total_s,
        );
        o.set("sim.alloc.recomputes", scope.events as f64 / n);
        o.set(
            "sim.alloc.us_per_recompute",
            alloc_total_ns as f64 / 1e3 / events,
        );
        o.set(
            "sim.alloc.flows_per_recompute",
            scope.flows_touched as f64 / events,
        );
        o.set(
            "sim.alloc.max_component_flows",
            s.cluster.alloc_scope().max_component_flows as f64,
        );
        o.set(
            "sim.flows_completed",
            (s.cluster.net.fct_sketch().count() - fct_start) as f64 / n,
        );
        o.set("sim.paths_interned", s.cluster.net.path_count() as f64);
        o.set("core.self_ms", median(&self_ms).unwrap_or(f64::NAN));
        o.set(
            "transport.messages",
            (stats.completed - stats0.completed) as f64 / n,
        );
        o.set(
            "transport.reroutes",
            (stats.reroutes - stats0.reroutes) as f64 / n,
        );
        o.set(
            "transport.stalls",
            (stats.stalls - stats0.stalls) as f64 / n,
        );
        setup::layer_metrics(&mut o);
        o.set("topology.links", s.cluster.net.link_count() as f64);
        o.set("faults.events", s.faults.len() as f64);
        o.set("host.probe_ms", probe.median_ms());
        o.set("traced.p50_ms", p50);
    } else {
        o.set("setup_s", median(&setup_s).unwrap_or(f64::NAN) * scale);
        o.set("p50_ms", p50);
        // Iterations run back to back, so throughput is the reciprocal of
        // the iteration time. Taken from the median rather than the total,
        // a few iterations slowed by the shared host do not move it.
        o.set("ops_per_s", 1e3 / p50);
        o.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    }
    o
}
