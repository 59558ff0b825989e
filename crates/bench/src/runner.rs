//! The parallel experiment runner: a [`RunPlan`] enumerating
//! (figure, seed) cells, executed across a work-stealing pool
//! ([`crate::pool`]) and collected back **in plan order**.
//!
//! # The determinism argument
//!
//! Every figure file and manifest a parallel run produces is bitwise-equal
//! to the sequential run's, by construction rather than by luck:
//!
//! 1. **Cell isolation.** Each cell gets its own [`hpn_telemetry::SimCtx`]
//!    — recorder handle, sweep root seed, allocator selection — built by
//!    the runner and passed explicitly into the experiment, so telemetry
//!    cannot interleave across cells and nothing is thread-scoped.
//!    Experiments share no other mutable state — every cell builds its own
//!    fabric and simulator, and the context (like everything it carries)
//!    is `Send`, so cells migrate freely across pool workers.
//! 2. **Order-independent inputs.** A cell's RNG streams are derived from
//!    `(root_seed, site_id)` via [`hpn_sim::split_seed`], a stateless hash
//!    (`ctx.seed_for`), never from a shared sequential generator — so the
//!    schedule cannot change what a cell computes.
//! 3. **One output per cell, assembled in plan order.** A cell streams its
//!    telemetry JSONL straight into its own file ([`telemetry_file`]) as
//!    it runs, so no two cells ever share a stream and nothing is merged.
//!    Results come back from the pool indexed by plan position, and every
//!    shared output (report printing, manifest entries, golden comparison)
//!    is emitted by iterating that order. Completion order affects
//!    wall-clock only.
//!
//! The determinism test suite (`tests/determinism.rs` at the workspace
//! root) checks the conclusion directly: `--jobs 1` and `--jobs 8` produce
//! identical figure bytes and manifest SHA-256s for every gated figure,
//! and the telemetry of four cells matches checked-in SHA-256s.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hpn_sim::AllocatorKind;
use hpn_telemetry::{
    Event, JsonlRecorder, NullRecorder, Recorder, Registry, RunManifest, SharedRecorder, SimCtx,
};

use crate::gate::figure_fingerprint;
use crate::pool;
use crate::report::{json_num, json_str, Report};
use crate::{find, ExperimentFn, Scale};

/// The scale label recorded in manifests and `SimStart` labels.
pub fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Full => "full",
        Scale::Quick => "quick",
    }
}

/// One unit of schedulable work: a figure at a sweep seed (or at its
/// built-in fixed seeds when `seed` is `None`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Position in plan order — the collection key.
    pub index: usize,
    /// Experiment id (e.g. `"fig15"`).
    pub figure: String,
    /// Sweep root seed; `None` is the golden-figure configuration.
    pub seed: Option<u64>,
}

/// A run plan: the cross product of figures × seeds at one scale.
#[derive(Clone, Debug)]
pub struct RunPlan {
    /// Experiment ids, in presentation order.
    pub figures: Vec<String>,
    /// Sweep root seeds; `[None]` for a plain (golden) run.
    pub seeds: Vec<Option<u64>>,
    /// Fidelity of every cell.
    pub scale: Scale,
}

impl RunPlan {
    /// A plan running `ids` once each with their built-in fixed seeds —
    /// the configuration the golden hashes fingerprint.
    pub fn figures_only(ids: &[&str], scale: Scale) -> Self {
        RunPlan {
            figures: ids.iter().map(|s| s.to_string()).collect(),
            seeds: vec![None],
            scale,
        }
    }

    /// A multi-seed sweep: every figure at every root seed.
    pub fn sweep(ids: &[&str], scale: Scale, seeds: &[u64]) -> Self {
        assert!(!seeds.is_empty(), "sweep with no seeds");
        RunPlan {
            figures: ids.iter().map(|s| s.to_string()).collect(),
            seeds: seeds.iter().map(|&s| Some(s)).collect(),
            scale,
        }
    }

    /// The plan's cells, seed-major (all figures of seed 0, then seed 1 …)
    /// so per-seed outputs group contiguously.
    pub fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::with_capacity(self.figures.len() * self.seeds.len());
        for &seed in &self.seeds {
            for fig in &self.figures {
                cells.push(Cell {
                    index: cells.len(),
                    figure: fig.clone(),
                    seed,
                });
            }
        }
        cells
    }

    /// Fail fast on unknown experiment ids.
    pub fn validate(&self) -> Result<(), String> {
        for fig in &self.figures {
            if find(fig).is_none() {
                return Err(format!("unknown experiment '{fig}'"));
            }
        }
        Ok(())
    }
}

/// Everything one cell produced but its telemetry stream, which went to
/// the cell's own output as it ran.
pub struct CellResult {
    /// The cell that ran.
    pub cell: Cell,
    /// The experiment's report.
    pub report: Report,
    /// SHA-256 of the report's canonical bytes.
    pub fingerprint: String,
    /// Telemetry aggregates of this cell alone.
    pub registry: Registry,
    /// Wall-clock the cell took (reporting only — never hashed).
    pub wall: Duration,
}

/// Tee sink: write the event stream to the cell's output and aggregate
/// it, per cell. The registry is shared so the runner can read the
/// aggregates back after the cell's recorder handle is dropped; both
/// halves are `Send`, keeping the whole context shippable to a pool worker.
struct CellSink {
    out: Box<dyn Recorder>,
    registry: Arc<Mutex<Registry>>,
}

impl Recorder for CellSink {
    fn record(&mut self, ev: &Event) {
        self.out.record(ev);
        self.registry.lock().expect("cell registry").record(ev);
    }

    fn flush(&mut self) {
        self.out.flush();
    }
}

/// The `SimStart` label of a cell — same format the sequential gate has
/// always written, so parallel JSONL streams are byte-identical.
fn cell_label(cell: &Cell, scale: Scale, allocator: AllocatorKind) -> String {
    format!(
        "{} seed={} allocator={} scale={}",
        cell.figure,
        cell.seed.unwrap_or(0),
        allocator.name(),
        scale_label(scale)
    )
}

/// The name of a cell's telemetry file in an output directory:
/// `<figure>.telemetry.jsonl`, or `<figure>.seed<root>.telemetry.jsonl`
/// for a sweep cell.
pub fn telemetry_file(cell: &Cell) -> String {
    match cell.seed {
        None => format!("{}.telemetry.jsonl", cell.figure),
        Some(root) => format!("{}.seed{root}.telemetry.jsonl", cell.figure),
    }
}

/// Execute one cell in isolation on the current thread, streaming its
/// telemetry into `out` as it runs.
///
/// Builds the cell's [`SimCtx`] — recorder teeing into `out` and the
/// registry, sweep root seed from the plan — and passes it to the cell
/// body. Generic over the body so user-authored scenarios (closures built
/// by `scenario_cli`) run through the exact same context / telemetry /
/// fingerprint machinery as the registered experiments. `out` is the
/// cell's JSONL file, a serve connection's sink, an in-memory buffer, or a
/// [`NullRecorder`] when nothing is written; it is flushed before the
/// context is dropped.
pub fn run_cell_into<F: Fn(&SimCtx, Scale) -> Report>(
    cell: &Cell,
    scale: Scale,
    out: Box<dyn Recorder>,
    f: F,
) -> CellResult {
    let start = std::time::Instant::now();
    let registry = Arc::new(Mutex::new(Registry::new()));
    let mut ctx = SimCtx::new().with_recorder(SharedRecorder::new(Box::new(CellSink {
        out,
        registry: registry.clone(),
    })));
    if let Some(root) = cell.seed {
        ctx = ctx.with_root_seed(root);
    }
    ctx.recorder().record(&Event::SimStart {
        label: cell_label(cell, scale, ctx.allocator()),
    });
    let report = f(&ctx, scale);
    ctx.recorder().flush();
    drop(ctx);
    // All recorder handles are gone (the experiment's simulators were
    // dropped with it), so the registry Arc is ours alone.
    let registry = Arc::try_unwrap(registry)
        .map(|m| m.into_inner().expect("cell registry"))
        .unwrap_or_else(|arc| arc.lock().expect("cell registry").clone());
    CellResult {
        cell: cell.clone(),
        fingerprint: figure_fingerprint(&report),
        report,
        registry,
        wall: start.elapsed(),
    }
}

/// An I/O error that names the path it happened at.
fn at_path(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// Run an arbitrary batch of `(cell, body)` tasks across `jobs` workers
/// and return results in plan (index) order. `jobs <= 1` is the exact
/// sequential path (no pool).
///
/// With `out_dir`, the directory is created before any cell runs and each
/// cell streams its telemetry into `out_dir/`[`telemetry_file`]; without
/// it, no JSONL is encoded at all. An error names the path that could not
/// be created; a cell whose file cannot be created does not run.
pub fn run_cells<F>(
    tasks: Vec<(Cell, F)>,
    scale: Scale,
    jobs: usize,
    out_dir: Option<&Path>,
) -> io::Result<Vec<CellResult>>
where
    F: Fn(&SimCtx, Scale) -> Report + Send + Sync,
{
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).map_err(|e| at_path(dir, e))?;
    }
    pool::run_indexed(jobs, tasks, move |_, (cell, f)| {
        let out: Box<dyn Recorder> = match out_dir {
            None => Box::new(NullRecorder),
            Some(dir) => {
                let path = dir.join(telemetry_file(&cell));
                Box::new(JsonlRecorder::create(&path).map_err(|e| at_path(&path, e))?)
            }
        };
        Ok(run_cell_into(&cell, scale, out, f))
    })
    .into_iter()
    .collect()
}

/// Run every cell of the plan across `jobs` workers and return results in
/// plan order; `out_dir` is as for [`run_cells`]. `jobs <= 1` is the exact
/// sequential path (no pool).
pub fn run_plan(
    plan: &RunPlan,
    jobs: usize,
    out_dir: Option<&Path>,
) -> io::Result<Vec<CellResult>> {
    let tasks: Vec<(Cell, ExperimentFn)> = plan
        .cells()
        .into_iter()
        .map(|c| {
            let f = find(&c.figure).unwrap_or_else(|| panic!("unknown experiment '{}'", c.figure));
            (c, f)
        })
        .collect();
    run_cells(tasks, plan.scale, jobs, out_dir)
}

/// Write one manifest per sweep seed (`manifest-seed<root>.json`, or
/// `manifest.json` for a plain run) into `out_dir`, and return the
/// manifests in seed order. The cells already streamed their telemetry
/// there, and [`run_cells`] created the directory.
///
/// The manifests record what the run *produced* — seed, figures,
/// fingerprints, telemetry summaries — never how it was scheduled: `jobs`
/// deliberately does not appear, so a parallel sweep's manifests are
/// byte-identical to a sequential sweep's.
pub fn write_sweep_outputs(
    plan: &RunPlan,
    results: &[CellResult],
    out_dir: Option<&Path>,
) -> io::Result<Vec<RunManifest>> {
    let mut manifests = Vec::new();
    for &seed in &plan.seeds {
        let mut manifest = RunManifest::new(
            seed.unwrap_or(0),
            AllocatorKind::default().name(),
            scale_label(plan.scale),
        );
        manifest.set_param("figures", plan.figures.join(","));
        manifest.set_param(
            "seed_policy",
            match seed {
                None => "fixed per experiment".to_string(),
                Some(root) => format!("split_seed(root={root}, site)"),
            },
        );
        for r in results.iter().filter(|r| r.cell.seed == seed) {
            manifest.record_figure(&r.cell.figure, &r.fingerprint);
            manifest.record_telemetry(&r.cell.figure, &r.registry);
            // Multi-job scenarios surface their per-job placement/timing and
            // the fragmentation tally as manifest params, so the packing
            // outcome is machine-readable without re-parsing the report.
            // Figure reports have no such rows, so their manifests are
            // byte-unchanged.
            for (k, v) in &r.report.rows {
                if k == "fragmentation" || k.starts_with("job ") {
                    manifest.set_param(&format!("{}.{k}", r.cell.figure), v);
                }
            }
        }
        if let Some(dir) = out_dir {
            let name = match seed {
                None => "manifest.json".to_string(),
                Some(root) => format!("manifest-seed{root}.json"),
            };
            let path = dir.join(name);
            manifest.write(&path).map_err(|e| at_path(&path, e))?;
        }
        manifests.push(manifest);
    }
    Ok(manifests)
}

/// Aggregated cross-seed variance report for a sweep, as deterministic
/// JSON: per figure, the number of distinct fingerprints over the seeds
/// and mean/stddev/min/max of each series' mean value.
///
/// A figure whose output is seed-independent shows
/// `"distinct_fingerprints": 1` — itself a useful fact: the gated figures
/// must stay that way, while the stochastic figures (fig01/fig05/fig06)
/// spread.
pub fn variance_json(plan: &RunPlan, results: &[CellResult]) -> String {
    let seeds: Vec<u64> = plan.seeds.iter().map(|s| s.unwrap_or(0)).collect();
    let mut out = String::from("{\n  \"seeds\": [");
    for (i, s) in seeds.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&s.to_string());
    }
    out.push_str("],\n  \"figures\": {\n");
    for (fi, fig) in plan.figures.iter().enumerate() {
        let per_seed: Vec<&CellResult> = results.iter().filter(|r| &r.cell.figure == fig).collect();
        let distinct: std::collections::BTreeSet<&str> =
            per_seed.iter().map(|r| r.fingerprint.as_str()).collect();
        // series name -> per-seed mean sample value.
        let mut series: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for r in &per_seed {
            for s in &r.report.series {
                let samples = s.samples();
                let mean = if samples.is_empty() {
                    0.0
                } else {
                    samples.iter().map(|&(_, v)| v).sum::<f64>() / samples.len() as f64
                };
                series.entry(&s.name).or_default().push(mean);
            }
        }
        if fi > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "    {}: {{\"runs\": {}, \"distinct_fingerprints\": {}",
            json_str(fig),
            per_seed.len(),
            distinct.len()
        ));
        if !series.is_empty() {
            out.push_str(", \"series_mean\": {");
            for (i, (name, means)) in series.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{}: {{\"mean\": {}, \"stddev\": {}, \"min\": {}, \"max\": {}}}",
                    json_str(name),
                    json_num(hpn_sim::stats::mean(means)),
                    json_num(hpn_sim::stats::stddev(means)),
                    json_num(means.iter().copied().fold(f64::INFINITY, f64::min)),
                    json_num(means.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
                ));
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cheap, RNG-bearing figures: fig01/fig06 build no simulator at all.
    const CHEAP: [&str; 2] = ["fig01", "fig06"];

    fn summaries(results: &[CellResult]) -> Vec<(String, String, String)> {
        results
            .iter()
            .map(|r| {
                (
                    r.cell.figure.clone(),
                    r.fingerprint.clone(),
                    r.registry.summary_json(),
                )
            })
            .collect()
    }

    #[test]
    fn plan_enumerates_seed_major_cells() {
        let plan = RunPlan::sweep(&["a", "b"], Scale::Quick, &[7, 9]);
        let cells = plan.cells();
        assert_eq!(cells.len(), 4);
        assert_eq!(
            cells
                .iter()
                .map(|c| (c.index, c.figure.as_str(), c.seed))
                .collect::<Vec<_>>(),
            vec![
                (0, "a", Some(7)),
                (1, "b", Some(7)),
                (2, "a", Some(9)),
                (3, "b", Some(9)),
            ]
        );
        assert!(plan.validate().is_err(), "'a' is not a real experiment");
        assert!(RunPlan::figures_only(&["fig19"], Scale::Quick)
            .validate()
            .is_ok());
    }

    /// A fresh scratch directory for one test run.
    fn scratch_dir(label: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hpn-runner-{}-{label}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clear scratch dir");
        }
        dir
    }

    #[test]
    fn parallel_run_is_byte_identical_to_sequential() {
        let plan = RunPlan::figures_only(&CHEAP, Scale::Quick);
        let (seq_dir, par_dir) = (scratch_dir("seq"), scratch_dir("par"));
        let seq = run_plan(&plan, 1, Some(&seq_dir)).expect("sequential run");
        let par = run_plan(&plan, 4, Some(&par_dir)).expect("parallel run");
        assert_eq!(summaries(&seq), summaries(&par));
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.report.to_json(), b.report.to_json(), "{}", a.cell.figure);
            let file = telemetry_file(&a.cell);
            let read = |dir: &Path| std::fs::read(dir.join(&file)).expect("cell telemetry file");
            let jsonl = read(&seq_dir);
            assert!(jsonl.starts_with(b"{\"ev\":\"sim_start\""), "{file}");
            assert_eq!(jsonl, read(&par_dir), "{} telemetry drifted", a.cell.figure);
        }
        for dir in [seq_dir, par_dir] {
            std::fs::remove_dir_all(dir).expect("remove scratch dir");
        }
    }

    #[test]
    fn telemetry_file_names_sweep_cells_by_seed() {
        let mut cell = Cell {
            index: 0,
            figure: "fig06".into(),
            seed: None,
        };
        assert_eq!(telemetry_file(&cell), "fig06.telemetry.jsonl");
        cell.seed = Some(3);
        assert_eq!(telemetry_file(&cell), "fig06.seed3.telemetry.jsonl");
    }

    #[test]
    fn sweep_seeds_reproduce_and_decorrelate() {
        let plan_a = RunPlan::sweep(&["fig06"], Scale::Quick, &[1, 2]);
        let plan_b = RunPlan::sweep(&["fig06"], Scale::Quick, &[2]);
        let a = run_plan(&plan_a, 2, None).expect("no io without dir");
        let b = run_plan(&plan_b, 1, None).expect("no io without dir");
        // Different roots change the figure; the same root reproduces it
        // regardless of which plan (or schedule) it ran under.
        assert_ne!(a[0].fingerprint, a[1].fingerprint);
        assert_eq!(a[1].fingerprint, b[0].fingerprint);
    }

    #[test]
    fn sweep_outputs_and_variance_report() {
        let plan = RunPlan::sweep(&CHEAP, Scale::Quick, &[1, 2, 3]);
        let results = run_plan(&plan, 4, None).expect("no io without dir");
        let manifests = write_sweep_outputs(&plan, &results, None).expect("no io without dir");
        assert_eq!(manifests.len(), 3);
        assert_eq!(manifests[0].seed, 1);
        assert_eq!(manifests[2].seed, 3);
        for m in &manifests {
            assert_eq!(m.figures.len(), CHEAP.len());
        }
        let v = variance_json(&plan, &results);
        assert!(v.contains("\"seeds\": [1,2,3]"));
        // fig01/fig06 are seeded: three roots give three fingerprints.
        assert!(v.contains("\"distinct_fingerprints\": 3"), "{v}");
        assert!(v.contains("\"series_mean\""));
    }

    #[test]
    fn golden_run_fingerprints_are_sweep_independent() {
        // A `None` cell inside a mixed workload must equal a plain run:
        // the sweep scope cannot leak across cells on the same worker.
        let mixed = RunPlan {
            figures: vec!["fig06".into()],
            seeds: vec![Some(5), None, Some(6)],
            scale: Scale::Quick,
        };
        let mixed_results = run_plan(&mixed, 1, None).expect("no io without dir");
        let plain =
            run_plan(&RunPlan::figures_only(&["fig06"], Scale::Quick), 1, None).expect("no io");
        assert_eq!(mixed_results[1].fingerprint, plain[0].fingerprint);
        assert_ne!(mixed_results[0].fingerprint, plain[0].fingerprint);
    }
}
