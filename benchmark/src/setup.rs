//! TOML text → runnable `Session`, through the scenario layer's public
//! phases, with a span around each.

use std::time::Instant;

use hpn_scenario::{Scenario, Session};
use hpn_telemetry::SimCtx;

use crate::spans::Tracer;
use crate::stats::median;

/// Parse, build the topology, build routing and attach the workload —
/// the cold path of every `scenario run` and every serve cache miss.
/// Returns the session and the wall seconds the four phases took.
pub fn build(
    text: &str,
    ctx: &SimCtx,
    tr: &mut Tracer,
    request: u64,
) -> Result<(Session, f64), String> {
    let t = Instant::now();
    let root = tr.start("setup", None, request);
    let span = tr.start("scenario.parse", Some(root), request);
    let sc = Scenario::parse_toml(text).map_err(|e| format!("parse: {e}"))?;
    tr.end(span);
    let span = tr.start("topology.build", Some(root), request);
    let fabric = sc.build_topology().map_err(|e| format!("topology: {e}"))?;
    tr.end(span);
    let span = tr.start("routing.build", Some(root), request);
    let router = sc.build_routing(&fabric);
    tr.end(span);
    let span = tr.start("scenario.attach", Some(root), request);
    let session = sc
        .attach_workload(fabric, router, ctx)
        .map_err(|e| format!("attach: {e}"))?;
    tr.end(span);
    tr.end(root);
    Ok((session, t.elapsed().as_secs_f64()))
}

/// Median over requests of the summed duration (ms) of the spans named
/// `name` in each request — e.g. topology build time per set-up, where a
/// set-up may build several fabrics. 0 when there are none.
fn median_per_request_ms(tr: &Tracer, name: &str) -> f64 {
    let mut per: std::collections::BTreeMap<u64, u64> = Default::default();
    for s in tr.spans().iter().filter(|s| s.name == name) {
        *per.entry(s.request).or_insert(0) += s.duration_ns();
    }
    let ms: Vec<f64> = per.values().map(|&ns| ns as f64 / 1e6).collect();
    median(&ms).unwrap_or(0.0)
}

/// Record the set-up layers' per-layer metrics from the set-up spans.
pub fn layer_metrics(o: &mut crate::outcome::Outcome) {
    for (metric, span) in [
        ("scenario.parse_ms", "scenario.parse"),
        ("topology.build_ms", "topology.build"),
        ("routing.build_ms", "routing.build"),
        ("scenario.attach_ms", "scenario.attach"),
    ] {
        let v = median_per_request_ms(&o.tracer, span);
        o.set(metric, v);
    }
}
