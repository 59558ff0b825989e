//! What one workload run reports, and the metric vocabulary every workload
//! shares: an untraced run prints each [`END_TO_END`] metric, a traced run
//! each [`PER_LAYER`] metric, for every workload alike.

use std::collections::BTreeMap;

use crate::json::{num, quote};
use crate::spans::Tracer;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics a user of the simulator sees. Each workload defines its
/// "operation" (README): a training iteration, a fabric round, a request.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("p50_ms", "ms"),
    m("ops_per_s", "1/s"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics from the traced run. Counts are per measured
/// operation; a layer a workload does not exercise reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("sim.alloc.recompute_ms", "ms"),
    m("sim.alloc.share", "ratio"),
    m("sim.alloc.recomputes", "count"),
    m("sim.alloc.us_per_recompute", "us"),
    m("sim.alloc.flows_per_recompute", "count"),
    m("sim.alloc.max_component_flows", "count"),
    m("sim.flows_completed", "count"),
    m("sim.paths_interned", "count"),
    m("core.self_ms", "ms"),
    m("transport.messages", "count"),
    m("transport.reroutes", "count"),
    m("transport.stalls", "count"),
    m("scenario.parse_ms", "ms"),
    m("topology.build_ms", "ms"),
    m("routing.build_ms", "ms"),
    m("scenario.attach_ms", "ms"),
    m("topology.links", "count"),
    m("faults.events", "count"),
    m("serve.ttfb_p50_ms", "ms"),
    m("serve.ttfb_p90_ms", "ms"),
    m("serve.stream_p50_ms", "ms"),
    m("serve.response_kb", "KB"),
    m("serve.topology_hit_ratio", "ratio"),
    m("serve.path_hit_ratio", "ratio"),
    m("serve.lo_p90_ms", "ms"),
    m("serve.hi_p50_ms", "ms"),
    m("serve.hi_p90_ms", "ms"),
    m("serve.gen_late_p90_ms", "ms"),
    m("host.probe_ms", "ms"),
    m("traced.p50_ms", "ms"),
];

/// One workload run's result.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed (one line each, deduplicated by the caller).
    pub failures: Vec<String>,
    /// What the run computed, independent of host time: equal strings
    /// mean equal simulated results (traced vs untraced, run vs run).
    pub fingerprint: String,
    pub metrics: BTreeMap<&'static str, f64>,
    pub tracer: Tracer,
}

impl Outcome {
    pub fn new(trace: bool) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            fingerprint: String::new(),
            metrics: BTreeMap::new(),
            tracer: Tracer::new(trace),
        }
    }

    /// Count one attempted operation, failed when `problem` is `Some`.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if !self.failures.contains(&p) && self.failures.len() < 20 {
                self.failures.push(p);
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`
    /// over `defs`. Per-layer metrics a workload left unset are 0; a
    /// missing or non-finite end-to-end value makes the run incorrect.
    /// A run that attempted nothing first records that as a failure.
    pub fn result_line(&mut self, defs: &[MetricDef], zero_fill: bool) -> String {
        if self.attempted == 0 {
            self.check(Some("no operation ran".into()));
        }
        let mut correct = self.failed == 0;
        let mut body = Vec::new();
        for d in defs {
            let v = match self.metrics.get(d.name) {
                Some(v) if v.is_finite() => *v,
                None if zero_fill => 0.0,
                _ => {
                    correct = false;
                    continue;
                }
            };
            body.push(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(d.name),
                num(v),
                quote(d.unit)
            ));
        }
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            body.join(",")
        )
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// The metric tables here and `BENCHMARK.json` at the repository root
    /// must name the same metrics with the same units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| {
                    let s = |k| e.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let mut o = Outcome::new(false);
        o.check(None);
        for d in END_TO_END {
            o.set(d.name, 1.5);
        }
        let correct =
            |line: String| Json::parse(&line).unwrap().get("correct") == Some(&Json::Bool(true));
        let line = o.result_line(END_TO_END, false);
        assert!(correct(line.clone()));
        let v = Json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        o.set("p50_ms", f64::NAN);
        assert!(
            !correct(o.result_line(END_TO_END, false)),
            "NaN is not a measurement"
        );
        o.check(Some("mismatch".into()));
        assert!(!correct(o.result_line(PER_LAYER, true)));
    }
}
