//! CI regression gate over figure output.
//!
//! Every gated figure is re-run and fingerprinted (SHA-256 of its
//! canonical report bytes); the fingerprints are compared against the
//! checked-in golden set in `tests/golden/figure_hashes.json`. Any drift —
//! a changed series, a changed headline row, a changed verdict — fails the
//! gate, which is exactly what CI wants: figure output only changes when a
//! PR *intends* it to, in which case the golden file is regenerated with
//! `hpn-experiments gate --quick --update` and reviewed in the diff.
//!
//! PR 1 established that the dense and incremental allocators produce
//! byte-identical figures, so the golden file stores *one* hash per figure
//! and CI runs the gate under both `HPN_ALLOCATOR` settings against the
//! same goldens — the gate doubles as an allocator-equivalence check.
//!
//! Each gate run also writes a deterministic [`RunManifest`] (and, per
//! figure, a JSONL telemetry stream) into the output directory, so a CI
//! artifact fully identifies what ran and what it produced.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use hpn_sim::AllocatorKind;
use hpn_telemetry::{
    flat_map_json, hex_digest, parse_flat_map, replay, JsonlRecorder, RunManifest,
};

use crate::report::Report;
use crate::runner::{run_plan, scale_label, RunPlan};
use crate::{Scale, SimCtx};

/// The figures CI gates on: the paper's evaluation section (§6).
pub const GATE_FIGURES: [&str; 7] = [
    "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
];

/// Location of the golden fingerprint file, relative to the workspace root.
pub fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/figure_hashes.json")
}

/// Location of the golden latency-summary fingerprints: SHA-256 of each
/// figure's [`hpn_telemetry::Registry::latency_summary_json`] — the
/// FCT/queue-delay quantile block. A separate golden from the figure
/// hashes because it guards a different failure mode: a change that leaves
/// every report row intact but silently shifts the latency distributions
/// (a sketch bug, a mis-fed event) drifts here and only here.
pub fn latency_golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/latency_hashes.json")
}

/// SHA-256 fingerprint of a report's canonical bytes.
///
/// The canonical form is [`Report::to_json`] — id, rows, every series
/// sample and the verdict. Hashing the full machine-readable report (not
/// just the series) means the gate also catches drift in headline numbers
/// that never make it into a series.
pub fn figure_fingerprint(r: &Report) -> String {
    hex_digest(r.to_json().as_bytes())
}

/// One figure's gate verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FigureStatus {
    /// Fingerprint matches the golden file.
    Match,
    /// Fingerprint differs from the golden entry (expected, actual).
    Drift(String, String),
    /// The golden file has no entry for this figure.
    Missing(String),
}

/// Per-figure `(id, fingerprint, status)` rows, in run order.
pub type StatusRows = Vec<(String, String, FigureStatus)>;

/// Result of a full gate run.
pub struct GateOutcome {
    /// Per-figure `(id, fingerprint, status)`, in run order.
    pub figures: StatusRows,
    /// Per-figure latency-summary `(id, fingerprint, status)` against
    /// [`latency_golden_path`], in run order.
    pub latency: StatusRows,
    /// The manifest describing this run (written to the out dir, if any).
    pub manifest: RunManifest,
    /// Whether the golden file was (re)written.
    pub updated: bool,
    /// Per-figure wall-clock, in run order (reporting only — never hashed
    /// or written into the manifest, so parallel and sequential runs stay
    /// byte-identical).
    pub timings: Vec<(String, Duration)>,
}

impl GateOutcome {
    /// True when every figure and latency summary matched (or the golden
    /// files were updated).
    pub fn passed(&self) -> bool {
        self.updated
            || self
                .figures
                .iter()
                .chain(&self.latency)
                .all(|(_, _, s)| *s == FigureStatus::Match)
    }
}

/// The allocator label recorded in manifests and printed by the gate.
pub fn allocator_label() -> &'static str {
    match SimCtx::new().allocator() {
        AllocatorKind::Dense => "dense",
        AllocatorKind::Incremental => "incremental",
    }
}

/// Run `ids` with telemetry enabled (on up to `jobs` worker threads),
/// fingerprint each report, and compare against (or, with `update`,
/// rewrite) the golden file. When `out_dir` is given, a `manifest.json`
/// plus one `<id>.telemetry.jsonl` per figure are written there.
///
/// Every output is merged **in plan order** — `jobs` changes wall-clock
/// only, never a byte of the figures, the JSONL streams or the manifest
/// (which deliberately does not record `jobs`). `tests/determinism.rs`
/// checks this equivalence end to end.
pub fn run_gate(
    ids: &[&str],
    scale: Scale,
    update: bool,
    out_dir: Option<&Path>,
    jobs: usize,
) -> std::io::Result<GateOutcome> {
    if let Some(dir) = out_dir {
        fs::create_dir_all(dir)?;
    }
    // Experiments carry their own fixed seeds; the manifest records the
    // harness-level identity (allocator, scale, figure set).
    let mut manifest = RunManifest::new(0, allocator_label(), scale_label(scale));
    manifest.set_param("gate_figures", ids.join(","));
    manifest.set_param("seed_policy", "fixed per experiment");

    // `figures_only` keeps every experiment on its built-in fixed seeds —
    // the exact configuration the golden hashes fingerprint.
    let results = run_plan(&RunPlan::figures_only(ids, scale), jobs);

    let mut fingerprints: BTreeMap<String, String> = BTreeMap::new();
    let mut latency_fps: BTreeMap<String, String> = BTreeMap::new();
    let mut timings = Vec::with_capacity(results.len());
    for r in &results {
        let id = r.cell.figure.as_str();
        if let Some(dir) = out_dir {
            let mut jsonl = JsonlRecorder::create(&dir.join(format!("{id}.telemetry.jsonl")))?;
            replay(&r.events, &mut jsonl);
        }
        manifest.record_figure(id, &r.fingerprint);
        manifest.record_telemetry(id, &r.registry);
        fingerprints.insert(id.to_string(), r.fingerprint.clone());
        latency_fps.insert(
            id.to_string(),
            hex_digest(r.registry.latency_summary_json().as_bytes()),
        );
        timings.push((id.to_string(), r.wall));
    }

    let (figures, updated) = reconcile_golden(&golden_path(), ids, &fingerprints, update)?;
    let (latency, _) = reconcile_golden(&latency_golden_path(), ids, &latency_fps, update)?;

    if let Some(dir) = out_dir {
        manifest.write(&dir.join("manifest.json"))?;
    }
    Ok(GateOutcome {
        figures,
        latency,
        manifest,
        updated,
        timings,
    })
}

/// Compare `actual` fingerprints against (or, with `update`, rewrite) one
/// golden flat-map file. Returns per-id statuses in `ids` order.
fn reconcile_golden(
    golden: &Path,
    ids: &[&str],
    actual: &BTreeMap<String, String>,
    update: bool,
) -> std::io::Result<(StatusRows, bool)> {
    if update {
        if let Some(parent) = golden.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut body = flat_map_json(actual, 2);
        body.push('\n');
        fs::write(golden, body)?;
        return Ok((
            ids.iter()
                .map(|id| {
                    let h = actual[*id].clone();
                    (id.to_string(), h, FigureStatus::Match)
                })
                .collect(),
            true,
        ));
    }
    let expected = match fs::read_to_string(golden) {
        Ok(src) => parse_flat_map(&src).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed golden file {}: {e}", golden.display()),
            )
        })?,
        Err(e) => {
            return Err(std::io::Error::new(
                e.kind(),
                format!(
                    "cannot read golden file {} ({e}); run `hpn-experiments gate --update`",
                    golden.display()
                ),
            ))
        }
    };
    Ok((
        ids.iter()
            .map(|id| {
                let got = actual[*id].clone();
                let status = match expected.get(*id) {
                    Some(want) if *want == got => FigureStatus::Match,
                    Some(want) => FigureStatus::Drift(want.clone(), got.clone()),
                    None => FigureStatus::Missing(got.clone()),
                };
                (id.to_string(), got, status)
            })
            .collect(),
        false,
    ))
}
