//! The parallel runner's determinism contract, checked end to end:
//! `--jobs N` may only change wall-clock, never a byte of output.
//!
//! Two layers:
//!
//! * A fast subset (always on) over the cheap stochastic figures — every
//!   file `write_sweep_outputs` produces (figures, JSONL telemetry,
//!   manifests) is byte-compared between a sequential and two parallel
//!   runs.
//! * The full gate (fig13–fig19) at `jobs=1` vs `jobs=8` vs `jobs=8`,
//!   `#[ignore]`d here because a debug-build gate takes minutes on one
//!   core; CI's `determinism` job runs it in release with
//!   `--include-ignored`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use hpn::telemetry::hex_digest;
use hpn_bench::gate::{run_gate, FigureStatus, GATE_FIGURES};
use hpn_bench::runner::{run_plan, variance_json, write_sweep_outputs, RunPlan};
use hpn_bench::Scale;

mod allocator {
    //! The rate allocators' determinism contract: a session is
    //! byte-reproducible run-to-run, and the incremental allocator moves
    //! every flow exactly as the dense oracle does.

    use hpn::collectives::CommConfig;
    use hpn::core::{placement, TrainingSession};
    use hpn::routing::HashMode;
    use hpn::sim::AllocatorKind;
    use hpn::telemetry::{JsonlRecorder, SharedBuf, SharedRecorder, SimCtx};
    use hpn::topology::HpnConfig;
    use hpn::transport::ClusterSim;
    use hpn::workload::{ModelSpec, ParallelismPlan, TrainingJob};

    /// Run one medium-fabric training session under an explicit context —
    /// no `HPN_ALLOCATOR` environment writes, so this is safe under
    /// parallel test threads.
    fn session_fingerprint(kind: AllocatorKind) -> (Vec<u64>, String) {
        let buf = SharedBuf::new();
        let ctx = SimCtx::new()
            .with_recorder(SharedRecorder::new(Box::new(JsonlRecorder::new(
                buf.clone(),
            ))))
            .with_allocator(kind);
        let mut cs = ClusterSim::with_ctx(HpnConfig::medium().build(), HashMode::Polarized, &ctx);
        let rails = cs.fabric.host_params.rails;
        let hosts = placement::place_segment_first(&cs.fabric, 8).unwrap();
        let job = TrainingJob::new(
            ModelSpec::llama_7b(),
            ParallelismPlan::new(rails, 2, 4),
            hosts,
            rails,
            256,
        );
        let mut session = TrainingSession::new(job, CommConfig::hpn_default());
        session.run_iterations(&mut cs, 3);
        let nanos = session.records().iter().map(|r| r.end.as_nanos()).collect();
        (nanos, buf.text())
    }

    #[test]
    fn incremental_session_is_byte_reproducible() {
        let (nanos_a, telemetry_a) = session_fingerprint(AllocatorKind::Incremental);
        let (nanos_b, telemetry_b) = session_fingerprint(AllocatorKind::Incremental);
        assert_eq!(nanos_a, nanos_b, "iteration timings drifted");
        assert_eq!(
            telemetry_a, telemetry_b,
            "telemetry stream is not byte-identical across runs"
        );
        assert!(
            telemetry_a.contains("\"ev\":\"rate_recompute\""),
            "session never exercised the rate allocator"
        );
    }

    #[test]
    fn dense_session_times_like_incremental() {
        // Bitwise-equal rates mean equal completion times, iteration
        // timings and every event but the recompute-scope counters.
        let without_scope = |t: &str| -> Vec<String> {
            t.lines()
                .filter(|l| !l.contains("\"ev\":\"rate_recompute\""))
                .map(str::to_owned)
                .collect()
        };
        let (nanos_incr, telemetry_incr) = session_fingerprint(AllocatorKind::Incremental);
        let (nanos_dense, telemetry_dense) = session_fingerprint(AllocatorKind::Dense);
        assert_eq!(
            nanos_incr, nanos_dense,
            "incremental drifted from the dense oracle"
        );
        assert_eq!(
            without_scope(&telemetry_incr),
            without_scope(&telemetry_dense),
            "telemetry differs beyond the recompute scope"
        );
    }

    #[test]
    fn figure_bytes_do_not_depend_on_the_allocator() {
        // The figure-gate contract in one cheap figure: the report the
        // golden hash covers is byte-identical under either allocator.
        let fig19 = hpn_bench::find("fig19").expect("fig19 is registered");
        let report = |kind| fig19(&SimCtx::new().with_allocator(kind), hpn_bench::Scale::Quick);
        assert_eq!(
            report(AllocatorKind::Incremental).to_json(),
            report(AllocatorKind::Dense).to_json()
        );
    }
}

/// Fresh per-test scratch dir under the target tree.
fn tmp_dir(name: &str) -> PathBuf {
    let d = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if d.exists() {
        std::fs::remove_dir_all(&d).expect("clear scratch dir");
    }
    d
}

/// Every file in `dir`, name → content bytes.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read output dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().into_string().expect("utf-8 file name");
        out.insert(name, std::fs::read(entry.path()).expect("read output file"));
    }
    out
}

/// Assert two output trees are bitwise equal, reporting the first
/// offending file by name.
fn assert_trees_equal(a: &BTreeMap<String, Vec<u8>>, b: &BTreeMap<String, Vec<u8>>, what: &str) {
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "{what}: file sets differ"
    );
    for (name, bytes) in a {
        assert!(
            bytes == &b[name],
            "{what}: {name} is not byte-identical across runs"
        );
    }
}

#[test]
fn workload_kind_examples_are_byte_identical_at_jobs_1_and_8() {
    // The shipped example scenario for every non-training workload kind,
    // run through the same cell machinery as `scenario run`: `--jobs N`
    // may only change wall-clock, never a byte of manifest or telemetry.
    use hpn_bench::runner::{run_cells, Cell, RunPlan};
    use hpn_bench::scenario_cli::{self, LatencyMode};
    use hpn_bench::SimCtx;

    let files = [
        "moe_a2a.toml",
        "trace_replay.toml",
        "inference_serving.toml",
        "multi_job.toml",
    ];
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios");

    let outputs = |jobs: usize, label: &str| {
        let scenarios: Vec<_> = files
            .iter()
            .map(|f| {
                let sc = scenario_cli::load(&root.join(f)).expect("example parses");
                sc.check().expect("example validates");
                sc
            })
            .collect();
        let labels: Vec<String> = scenarios.iter().map(|sc| sc.name.clone()).collect();
        let tasks: Vec<(Cell, _)> = scenarios
            .into_iter()
            .zip(&labels)
            .enumerate()
            .map(|(index, (sc, label))| {
                let cell = Cell {
                    index,
                    figure: label.clone(),
                    seed: None,
                };
                (cell, move |ctx: &SimCtx, scale| {
                    scenario_cli::report_with_latency(ctx, &sc, scale, LatencyMode::Off)
                })
            })
            .collect();
        let results = run_cells(tasks, Scale::Quick, jobs);
        let plan = RunPlan {
            figures: labels,
            seeds: vec![None],
            scale: Scale::Quick,
        };
        let dir = tmp_dir(&format!("determinism-kinds-{label}"));
        write_sweep_outputs(&plan, &results, Some(&dir)).expect("write outputs");
        dir_bytes(&dir)
    };

    let jobs1 = outputs(1, "jobs1");
    let jobs8 = outputs(8, "jobs8");
    assert_trees_equal(&jobs1, &jobs8, "workload-kind examples jobs=1 vs jobs=8");
}

#[test]
fn quick_subset_parallel_matches_sequential_byte_for_byte() {
    // Cheap, RNG-bearing figures — runs in seconds even in debug builds.
    let figures = ["fig01", "fig06", "fig19"];
    let plan = RunPlan::sweep(&figures, Scale::Quick, &[11, 12]);

    let mut trees = Vec::new();
    let mut reports = Vec::new();
    for (label, jobs) in [("jobs1", 1usize), ("jobs4-a", 4), ("jobs4-b", 4)] {
        let dir = tmp_dir(&format!("determinism-subset-{label}"));
        let results = run_plan(&plan, jobs);
        let manifests = write_sweep_outputs(&plan, &results, Some(&dir)).expect("write outputs");
        assert_eq!(manifests.len(), 2, "one manifest per sweep seed");
        trees.push(dir_bytes(&dir));
        reports.push(variance_json(&plan, &results));
    }

    // Sequential vs parallel, and parallel vs a second parallel run.
    assert_trees_equal(&trees[0], &trees[1], "jobs=1 vs jobs=4");
    assert_trees_equal(&trees[1], &trees[2], "jobs=4 vs jobs=4 (rerun)");
    assert_eq!(reports[0], reports[1], "variance report drifted with jobs");
    assert_eq!(
        reports[1], reports[2],
        "variance report unstable across runs"
    );
}

#[test]
#[ignore = "full 7-figure gate × 3 runs: minutes in debug — CI's determinism job runs it in release with --include-ignored"]
fn full_gate_is_byte_identical_at_jobs_1_and_8() {
    let ids = GATE_FIGURES;
    let mut trees = Vec::new();
    let mut manifest_shas = Vec::new();
    for (label, jobs) in [("jobs1", 1usize), ("jobs8-a", 8), ("jobs8-b", 8)] {
        let dir = tmp_dir(&format!("determinism-gate-{label}"));
        let outcome = run_gate(&ids, Scale::Quick, false, Some(&dir), jobs).expect("gate run");
        assert!(!outcome.updated);
        // Byte-identity alone is not enough — every run must also match the
        // *checked-in* goldens, so parallelism can't hide a joint drift.
        for (id, _, status) in &outcome.figures {
            assert_eq!(
                *status,
                FigureStatus::Match,
                "{id} drifted from tests/golden/figure_hashes.json at {label}"
            );
        }
        manifest_shas.push(hex_digest(outcome.manifest.to_json().as_bytes()));
        trees.push(dir_bytes(&dir));
    }

    assert_eq!(
        manifest_shas[0], manifest_shas[1],
        "manifest SHA-256 differs between jobs=1 and jobs=8"
    );
    assert_eq!(
        manifest_shas[1], manifest_shas[2],
        "manifest SHA-256 differs between two jobs=8 runs"
    );
    assert_trees_equal(&trees[0], &trees[1], "gate jobs=1 vs jobs=8");
    assert_trees_equal(&trees[1], &trees[2], "gate jobs=8 vs jobs=8 (rerun)");
}
