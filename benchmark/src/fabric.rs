//! `fabric_build`: rounds of parse → topology → routing → attach over five
//! paper-scale fabrics, the cold path of every `scenario run` and every
//! serve cache miss. No iteration runs, so the rate allocator does no work.
//!
//! The first fabric carries a pp8×dp240 training placement and a 30-day
//! Poisson fault plan seeded by `--seed`. Node and link counts are pinned
//! in `expected.json`; the fault plan must come out identical in every
//! round; the first round also runs the wiring blueprint check.
//!
//! The host-speed probe runs every [`ROUNDS_PER_PROBE`] rounds; the
//! end-to-end times are scaled by the run's [`Probe::scale`].

use std::time::Instant;

use hpn_scenario::Session;
use hpn_telemetry::SimCtx;
use hpn_topology::wiring;

use crate::json::Json;
use crate::outcome::{peak_rss_mb, Outcome};
use crate::probe::Probe;
use crate::setup;
use crate::stats::median;
use crate::Cfg;

/// Rounds per second of `--seconds`: a round takes about 90 ms on the
/// reference host.
const ROUNDS_PER_SECOND: f64 = 10.0;
/// Rounds between two probe readings: about a second of work, against
/// 45 ms of probe.
const ROUNDS_PER_PROBE: usize = 10;

/// `(name, scenario TOML)`; the first is the workload's primary scenario
/// (its build time is `setup_s`).
const FABRICS: [(&str, &str); 5] = [
    (
        "hpn_train",
        include_str!("../workloads/fabric_hpn_train.toml"),
    ),
    ("hpn", include_str!("../workloads/fabric_hpn.toml")),
    ("dcnplus", include_str!("../workloads/fabric_dcnplus.toml")),
    (
        "railonly",
        include_str!("../workloads/fabric_railonly.toml"),
    ),
    ("fattree", include_str!("../workloads/fabric_fattree.toml")),
];

fn check_counts(name: &str, s: &Session, expected: Option<&Json>) -> Option<String> {
    let want = |k: &str| {
        expected
            .and_then(|e| e.get(name))
            .and_then(|e| e.get(k))
            .and_then(Json::as_f64)
    };
    let (nodes, links) = (
        s.cluster.fabric.net.node_count(),
        s.cluster.net.link_count(),
    );
    match (want("nodes"), want("links")) {
        (Some(n), Some(l)) if n == nodes as f64 && l == links as f64 => None,
        (Some(n), Some(l)) => Some(format!(
            "{name}: {nodes} nodes / {links} links, expected {n} / {l}"
        )),
        _ => Some(format!("{name}: missing from expected.json")),
    }
}

pub fn run(expected: Option<&Json>, cfg: &Cfg) -> Outcome {
    let mut o = Outcome::new(cfg.trace);
    let ctx = SimCtx::default();
    let texts: Vec<String> = FABRICS
        .iter()
        .enumerate()
        .map(|(i, (_, t))| {
            if i == 0 {
                format!(
                    "{t}\n[faults]\nhorizon_secs = 2592000.0\nseed = {}\n",
                    cfg.seed
                )
            } else {
                t.to_string()
            }
        })
        .collect();

    let (mut round_ms, mut primary_s) = (Vec::new(), Vec::new());
    let mut probe = Probe::new();
    let mut plan = None;
    let mut links_per_round = 0usize;
    let start = Instant::now();
    for round in 0..cfg.ops(ROUNDS_PER_SECOND) {
        if cfg.overtime(start) {
            break;
        }
        let mut secs = 0.0;
        let mut problems = Vec::new();
        links_per_round = 0;
        for (i, text) in texts.iter().enumerate() {
            let name = FABRICS[i].0;
            let (s, dt) = match setup::build(text, &ctx, &mut o.tracer, round) {
                Ok(b) => b,
                Err(e) => {
                    problems.push(format!("{name}: {e}"));
                    continue;
                }
            };
            secs += dt;
            if i == 0 {
                primary_s.push(dt);
                match &plan {
                    None if s.faults.is_empty() => problems.push("empty 30-day fault plan".into()),
                    None => plan = Some(s.faults.clone()),
                    Some(p) => {
                        let same = p.len() == s.faults.len()
                            && p.iter()
                                .zip(&s.faults)
                                .all(|(a, b)| a.at == b.at && a.kind == b.kind);
                        if !same {
                            problems.push("fault plan differs between rounds".into());
                        }
                    }
                }
            }
            problems.extend(check_counts(name, &s, expected));
            if round == 0 {
                let v = wiring::validate_blueprint(&s.cluster.fabric);
                if !v.is_empty() {
                    problems.push(format!(
                        "{name}: {} wiring violation(s): {:?}",
                        v.len(),
                        v[0]
                    ));
                }
            }
            links_per_round += s.cluster.net.link_count();
        }
        o.check((!problems.is_empty()).then(|| problems.join("; ")));
        round_ms.push(secs * 1e3);
        if round_ms.len() % ROUNDS_PER_PROBE == 0 {
            probe.read();
        }
    }

    let plan = plan.unwrap_or_default();
    let events = plan.len();
    // FNV-1a over the plan's fault times.
    let plan_hash = plan.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, e| {
        (h ^ e.at.as_nanos()).wrapping_mul(0x0100_0000_01b3)
    });
    o.fingerprint =
        format!("links={links_per_round} fault_events={events} fault_plan={plan_hash:016x}");
    let scale = probe.scale();
    let p50 = median(&round_ms).unwrap_or(f64::NAN) * scale;
    if cfg.trace {
        setup::layer_metrics(&mut o);
        o.set("topology.links", links_per_round as f64);
        o.set("faults.events", events as f64);
        o.set("host.probe_ms", probe.median_ms());
        o.set("traced.p50_ms", p50);
    } else {
        o.set("setup_s", median(&primary_s).unwrap_or(f64::NAN) * scale);
        o.set("p50_ms", p50);
        // Rounds run back to back (see `train::run`).
        o.set("ops_per_s", 1e3 / p50);
        o.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    }
    o
}
