//! `run`: every workload in a child process of its own (so each reports
//! its own peak RSS), end-to-end metrics printed as
//! `workload metric value unit` and written to `DIR/results.json`.
//! With `--trace`, each workload runs a second time traced: its per-layer
//! metrics are printed and saved, its spans go to `DIR/<workload>.trace.json`,
//! its fingerprint must equal the untraced one, and the tracing overhead
//! (traced minus untraced `p50_ms`) is reported.

use std::process::{Command, Stdio};

use crate::json::{num, quote, Json};
use crate::{flags, WORKLOADS};

/// Run length of every workload, as `BENCHMARK.json`'s `run_seconds`.
const SECONDS: &str = "20";

struct Child {
    correct: bool,
    attempted: f64,
    failed: f64,
    fingerprint: String,
    /// `(name, value, unit)` in the order the child printed them.
    metrics: Vec<(String, f64, String)>,
}

impl Child {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    fn metrics_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    quote(n),
                    num(*v),
                    quote(u)
                )
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

fn child(workload: &str, seed: &str, trace: bool, dir: &str) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", seed, "--seconds", SECONDS])
        .args(["--trace", if trace { "1" } else { "0" }, "--out", dir])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{workload} printed nothing"))?;
    let v = Json::parse(last).map_err(|e| format!("{workload} result line: {e}"))?;
    let metrics = v
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or(format!("{workload}: no metrics"))?
        .iter()
        .map(|(k, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            (k.clone(), value, unit)
        })
        .collect();
    Ok(Child {
        correct: v.get("correct").and_then(Json::as_bool).unwrap_or(false),
        attempted: v.get("attempted").and_then(Json::as_f64).unwrap_or(0.0),
        failed: v.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
        fingerprint: stdout
            .lines()
            .find_map(|l| l.strip_prefix("fingerprint "))
            .unwrap_or("")
            .to_string(),
        metrics,
    })
}

pub fn main(args: &[String]) -> i32 {
    let (trace, rest): (Vec<&String>, Vec<&String>) = args.iter().partition(|a| *a == "--trace");
    let rest: Vec<String> = rest.into_iter().cloned().collect();
    let parsed = match flags(&rest, &["--seed", "--out"]) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let (Some(seed), Some(dir)) = (parsed.get("--seed"), parsed.get("--out")) else {
        eprintln!("error: run needs --seed N --out DIR");
        return 2;
    };
    let trace = !trace.is_empty();

    let mut ok = true;
    let mut entries = Vec::new();
    for w in WORKLOADS {
        let untraced = match child(w, seed, false, dir) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        };
        ok &= untraced.correct;
        for (name, v, unit) in &untraced.metrics {
            println!("{w} {name} {v} {unit}");
        }
        let fail_ratio = untraced.failed / untraced.attempted.max(1.0);
        println!("{w} fail_ratio {fail_ratio} ratio");
        let mut entry = format!(
            "{}:{{\"correct\":{},\"attempted\":{},\"failed\":{},\"fail_ratio\":{},\
             \"fingerprint\":{},\"metrics\":{}",
            quote(w),
            untraced.correct,
            untraced.attempted,
            untraced.failed,
            num(fail_ratio),
            quote(&untraced.fingerprint),
            untraced.metrics_json()
        );
        if trace {
            let traced = match child(w, seed, true, dir) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            };
            let same = traced.fingerprint == untraced.fingerprint;
            ok &= traced.correct && same;
            for (name, v, unit) in &traced.metrics {
                println!("{w} {name} {v} {unit}");
            }
            let overhead = traced.metric("traced.p50_ms").unwrap_or(f64::NAN)
                - untraced.metric("p50_ms").unwrap_or(f64::NAN);
            println!("{w} trace_overhead_ms {overhead} ms");
            println!("{w} trace_fingerprint_match {same}");
            entry.push_str(&format!(
                ",\"trace_correct\":{},\"trace_fingerprint_match\":{same},\
                 \"trace_overhead_ms\":{},\"per_layer\":{}",
                traced.correct,
                if overhead.is_finite() {
                    num(overhead)
                } else {
                    "null".into()
                },
                traced.metrics_json()
            ));
        }
        entry.push('}');
        entries.push(entry);
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // The children accepted `seed` as an integer, so it is valid JSON.
    let doc = format!(
        "{{\"seed\":{seed},\"seconds\":{SECONDS},\"nproc\":{nproc},\"workloads\":{{\n{}\n}}}}\n",
        entries.join(",\n")
    );
    let path = std::path::Path::new(dir).join("results.json");
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc)) {
        eprintln!("error: writing {}: {e}", path.display());
        return 1;
    }
    if ok {
        0
    } else {
        eprintln!("error: an output check failed (see FAILED lines above)");
        1
    }
}
