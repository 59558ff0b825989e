//! `compare PARENT_DIR CHANGE_DIR`: judge a change against its parent from
//! two directories of `run` results (`results.json`, directly in the
//! directory or one level below), paired by seed. Every (end-to-end
//! metric, workload) pair gets one verdict against its bound in
//! `BENCHMARK.json`:
//!
//! * **regression** — the change's median is worse than the parent's by
//!   more than the bound;
//! * **gain** — the change wins at least 9 of 10 pairs and the medians
//!   differ by more than the parent's interquartile range;
//! * **unresolved** — run-to-run spread (IQR over median) exceeds the
//!   bound, unless every run of one side beats every run of the other;
//! * **same** — none of the above.
//!
//! Any rise in a workload's failed ÷ attempted is a regression. At least
//! ten pairs are required, run in alternating order (README). Exits 1 on
//! any regression.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::stats::{median, quartiles, relative_iqr};

/// Pairs needed before any verdict.
pub const MIN_PAIRS: usize = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Regression,
    Gain,
    Unresolved,
    Same,
}

/// Judge one metric: `parent[i]` and `change[i]` are the i-th pair.
pub fn judge(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    assert_eq!(parent.len(), change.len(), "values come in pairs");
    let (Some(mp), Some(mc), Some([q1, _, q3])) =
        (median(parent), median(change), quartiles(parent))
    else {
        return Verdict::Unresolved;
    };
    let better = |c: f64, p: f64| if lower_is_better { c < p } else { c > p };
    let worse_by = if lower_is_better { mc - mp } else { mp - mc } / mp.abs();
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let gain = wins * 10 >= parent.len() * 9 && (mc - mp).abs() > q3 - q1 && better(mc, mp);
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let all_worse = change.iter().all(|&c| parent.iter().all(|&p| better(p, c)));
    let spread = relative_iqr(parent)
        .zip(relative_iqr(change))
        .map_or(f64::INFINITY, |(a, b)| a.max(b));
    if spread > bound {
        if all_better && gain {
            Verdict::Gain
        } else if all_worse && worse_by > bound {
            Verdict::Regression
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regression
    } else if gain {
        Verdict::Gain
    } else {
        Verdict::Same
    }
}

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .into(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// One `run`: seed → workload → (metric → value), plus failures.
struct Run {
    seed: u64,
    workloads: BTreeMap<String, (BTreeMap<String, f64>, f64, f64)>,
}

fn load_runs(dir: &Path) -> Result<Vec<Run>, String> {
    let mut files = vec![dir.join("results.json")];
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut subdirs: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    subdirs.sort();
    files.extend(subdirs.into_iter().map(|d| d.join("results.json")));
    let mut runs = Vec::new();
    for f in files.into_iter().filter(|f| f.is_file()) {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        let seed = doc
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or(format!("{}: no seed", f.display()))?;
        let mut workloads = BTreeMap::new();
        for (w, v) in doc.get("workloads").and_then(Json::as_obj).unwrap_or(&[]) {
            let metrics = v
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap_or(&[])
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                .collect();
            let n = |k| v.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            workloads.insert(w.clone(), (metrics, n("attempted"), n("failed")));
        }
        runs.push(Run {
            seed: seed as u64,
            workloads,
        });
    }
    Ok(runs)
}

/// Bounds come from `BENCHMARK.json` in the working directory (the
/// repository root).
pub fn main(args: &[String]) -> i32 {
    let [parent_dir, change_dir] = args else {
        eprintln!("usage: hpn-perfbench compare PARENT_DIR CHANGE_DIR");
        return 2;
    };
    match compare(
        Path::new(parent_dir),
        Path::new(change_dir),
        Path::new("BENCHMARK.json"),
    ) {
        Ok(regressed) => i32::from(regressed),
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn side<'a>(pair: &(&'a Run, &'a Run), change: bool) -> &'a Run {
    if change {
        pair.1
    } else {
        pair.0
    }
}

/// Print the verdict table; `Ok(true)` when anything regressed.
fn compare(parent_dir: &Path, change_dir: &Path, bounds_path: &Path) -> Result<bool, String> {
    let bounds = bounds(bounds_path)?;
    let parent = load_runs(parent_dir)?;
    let change = load_runs(change_dir)?;
    let pairs: Vec<(&Run, &Run)> = parent
        .iter()
        .filter_map(|p| change.iter().find(|c| c.seed == p.seed).map(|c| (p, c)))
        .collect();
    if pairs.len() < MIN_PAIRS {
        return Err(format!(
            "{} seed-matched pairs, need at least {MIN_PAIRS}",
            pairs.len()
        ));
    }
    let workloads: Vec<&String> = pairs[0].0.workloads.keys().collect();
    let mut regressed = false;
    println!(
        "{:<14} {:<12} {:>12} {:>12} {:>7} {:>5}  verdict",
        "workload", "metric", "parent", "change", "spread", "wins"
    );
    for w in workloads {
        for b in &bounds {
            let vals = |change: bool| -> Option<Vec<f64>> {
                pairs
                    .iter()
                    .map(|pr| side(pr, change).workloads.get(w)?.0.get(&b.name).copied())
                    .collect()
            };
            let (Some(p), Some(c)) = (vals(false), vals(true)) else {
                println!("{w:<14} {:<12} missing from some runs", b.name);
                regressed = true;
                continue;
            };
            let v = judge(&p, &c, b.lower_is_better, b.bound);
            regressed |= v == Verdict::Regression;
            let better = |x: f64, y: f64| if b.lower_is_better { x < y } else { x > y };
            let wins = p.iter().zip(&c).filter(|(p, c)| better(**c, **p)).count();
            let spread = relative_iqr(&p).unwrap_or(f64::NAN);
            println!(
                "{w:<14} {:<12} {:>12.4} {:>12.4} {:>6.1}% {:>2}/{:<2}  {v:?} (bound {:.0}%)",
                b.name,
                median(&p).unwrap_or(f64::NAN),
                median(&c).unwrap_or(f64::NAN),
                spread * 100.0,
                wins,
                p.len(),
                b.bound * 100.0
            );
        }
        let ratio = |change: bool| {
            let (a, f) = pairs.iter().fold((0.0, 0.0), |(a, f), pr| {
                side(pr, change)
                    .workloads
                    .get(w)
                    .map_or((a, f + 1.0), |x| (a + x.1, f + x.2))
            });
            f / f64::max(a, 1.0)
        };
        let (fp, fc) = (ratio(false), ratio(true));
        let v = if fc > fp {
            Verdict::Regression
        } else {
            Verdict::Same
        };
        regressed |= v == Verdict::Regression;
        println!(
            "{w:<14} {:<12} {fp:>12.4} {fc:>12.4} {:>7} {:>5}  {v:?}",
            "fail_ratio", "", ""
        );
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(m: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| m * (1.0 + jitter * ((i % 5) as f64 - 2.0) / 2.0))
            .collect()
    }

    #[test]
    fn verdicts_on_synthetic_runs() {
        let parent = around(100.0, 0.01);
        // Same distribution: no verdict either way.
        assert_eq!(
            judge(&parent, &around(100.5, 0.01), true, 0.1),
            Verdict::Same
        );
        // 20% slower against a 10% bound.
        assert_eq!(
            judge(&parent, &around(120.0, 0.01), true, 0.1),
            Verdict::Regression
        );
        // The same numbers are a gain when higher is better.
        assert_eq!(
            judge(&parent, &around(120.0, 0.01), false, 0.1),
            Verdict::Gain
        );
        // 5% faster in every pair, beyond the parent's IQR: a gain.
        assert_eq!(
            judge(&parent, &around(95.0, 0.01), true, 0.1),
            Verdict::Gain
        );
        // Spread wider than the bound: unresolved, not "same".
        let noisy = around(100.0, 0.3);
        assert_eq!(
            judge(&noisy, &around(101.0, 0.3), true, 0.1),
            Verdict::Unresolved
        );
        // ...unless every change run beats every parent run.
        let far: Vec<f64> = noisy.iter().map(|x| x * 0.3).collect();
        assert_eq!(judge(&noisy, &far, true, 0.1), Verdict::Gain);
        let worse: Vec<f64> = noisy.iter().map(|x| x * 3.0).collect();
        assert_eq!(judge(&noisy, &worse, true, 0.1), Verdict::Regression);
        // Winning 8 of 10 pairs is not a gain.
        let mut c = around(95.0, 0.01);
        c[0] = 200.0;
        c[1] = 200.0;
        assert_ne!(judge(&parent, &c, true, 0.5), Verdict::Gain);
    }

    #[test]
    fn fail_ratio_rise_and_pairing_go_through_result_files() {
        let root =
            std::env::temp_dir().join(format!("hpn-perfbench-compare-{}", std::process::id()));
        let write = |side: &str, seed: u64, p50: f64, failed: u64| {
            let dir = root.join(side).join(seed.to_string());
            std::fs::create_dir_all(&dir).unwrap();
            let doc = format!(
                "{{\"seed\":{seed},\"workloads\":{{\"w\":{{\"attempted\":10,\"failed\":{failed},\
                 \"metrics\":{{\"p50_ms\":{{\"value\":{p50},\"unit\":\"ms\"}}}}}}}}}}"
            );
            std::fs::write(dir.join("results.json"), doc).unwrap();
        };
        let bounds = root.join("BENCHMARK.json");
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(
            &bounds,
            r#"{"end_to_end":[{"name":"p50_ms","unit":"ms","better":"lower","bound":0.1}]}"#,
        )
        .unwrap();
        for seed in 0..10 {
            write("a", seed, 100.0 + seed as f64 * 0.1, 0);
            write("b", seed, 100.0 + seed as f64 * 0.1, 0);
            write("c", seed, 100.0 + seed as f64 * 0.1, u64::from(seed == 3));
        }
        assert_eq!(
            compare(&root.join("a"), &root.join("b"), &bounds),
            Ok(false)
        );
        assert_eq!(compare(&root.join("a"), &root.join("c"), &bounds), Ok(true));
        write("short", 0, 100.0, 0);
        assert!(compare(&root.join("a"), &root.join("short"), &bounds).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
