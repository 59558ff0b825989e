//! Fig 13 & 14 — dual-ToR downstream imbalance: typical Clos vs dual-plane.
//!
//! The same rail-optimized dual-ToR tier-1 is wired to tier-2 either as a
//! typical Clos (both ToRs of a pair under one Aggregation pool — traffic
//! to a NIC can arrive through *either* port, hash-decided at 60 Aggs) or
//! as HPN's dual-plane (a flow entering plane p exits on port p,
//! deterministically). We train a GPT-3-variant whose DP rings cross
//! segments, then compare the egress rate (Fig 13) and queue occupancy
//! (Fig 14) of the two ToR downstream ports feeding the same NIC.

// Index loops mirror the paper's (host, rail, plane) notation; iterator
// adaptors would obscure the wiring math.
#![allow(clippy::needless_range_loop)]

use std::sync::{Arc, Mutex};

use hpn_scenario::{links, ModelId, PlacementSpec, Scenario, TopologySpec, WorkloadSpec};
use hpn_sim::{stats, SimDuration, TimeSeries};

use hpn_telemetry::SimCtx;

use crate::experiments::common;
use crate::report::Report;
use crate::Scale;

struct PortStats {
    rate_series: [TimeSeries; 2],
    queue_series: [TimeSeries; 2],
    mean_rates: Vec<(f64, f64)>, // per watched NIC: mean port rates
    /// Per watched NIC: mean queue (KB) on each port.
    nic_queues: Vec<(f64, f64)>,
}

/// Drive the training workload on a fabric and sample the two downlinks of
/// every active host's rail-0 NIC. Hosts are interleaved across the two
/// segments so every DP-ring hop converges through the Aggregation layer
/// onto a dual-ToR set — the §6.1 scenario.
fn measure(ctx: &SimCtx, topo: TopologySpec, scale: Scale) -> PortStats {
    let dp = scale.pick(16usize, 8);
    let pp = 2usize;
    // Compute shrunk to 0.3 gpu-s/sample so iterations stay
    // communication-heavy; segments interleaved so consecutive DP replicas
    // alternate sides and every ring hop crosses the Aggregation layer.
    let scenario = Scenario::new("fig13-14", topo).with_workload(
        WorkloadSpec::new(ModelId::Gpt3_175b, pp, dp, 256)
            .gpu_secs(0.3)
            .placed(PlacementSpec::InterleaveSegments),
    );
    let (mut cs, session) = common::scenario_session(ctx, &scenario);
    let watched: Vec<[hpn_sim::LinkId; 2]> = session
        .job()
        .expect("training workload")
        .hosts
        .iter()
        .map(|&h| {
            let d = links::nic_downlinks(&cs.fabric, h as usize, 0);
            [d[0], d[1]]
        })
        .collect();
    type Acc = (
        Vec<[Vec<f64>; 2]>, // rates per NIC per port
        Vec<[Vec<f64>; 2]>, // queues per NIC per port
        Vec<f64>,           // sample timestamps (seconds)
    );
    let acc: Arc<Mutex<Acc>> = Arc::new(Mutex::new((
        vec![[Vec::new(), Vec::new()]; watched.len()],
        vec![[Vec::new(), Vec::new()]; watched.len()],
        Vec::new(),
    )));
    let acc2 = acc.clone();
    let watched2 = watched.clone();
    let mut session = session.with_sampler(SimDuration::from_millis(200), move |cs| {
        cs.net.recompute_if_dirty();
        if cs.telemetry().enabled() {
            for ports in watched2.iter() {
                for p in 0..2 {
                    cs.sample_link_telemetry(ports[p]);
                }
            }
        }
        let mut a = acc2.lock().expect("sampler accumulator");
        a.2.push(cs.now().as_secs_f64());
        for (i, ports) in watched2.iter().enumerate() {
            for p in 0..2 {
                let link = cs.net.link(ports[p]);
                a.0[i][p].push(link.allocated_bps / 1e9);
                a.1[i][p].push(link.queue_bits / 8e3); // KB
            }
        }
    });
    session.run_iterations(&mut cs, scale.pick(4, 3));

    let a = acc.lock().expect("sampler accumulator");
    // Keep only samples where the NIC was receiving at all.
    let mean_rates: Vec<(f64, f64)> =
        a.0.iter()
            .map(|[p0, p1]| {
                let busy: Vec<(f64, f64)> = p0
                    .iter()
                    .zip(p1)
                    .filter(|(&x, &y)| x + y > 1.0)
                    .map(|(&x, &y)| (x, y))
                    .collect();
                if busy.is_empty() {
                    (0.0, 0.0)
                } else {
                    (
                        busy.iter().map(|&(x, _)| x).sum::<f64>() / busy.len() as f64,
                        busy.iter().map(|&(_, y)| y).sum::<f64>() / busy.len() as f64,
                    )
                }
            })
            .collect();
    let mean = |v: &Vec<f64>| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let nic_queues: Vec<(f64, f64)> = a.1.iter().map(|[q0, q1]| (mean(q0), mean(q1))).collect();
    // Show series for the NIC with the most skewed port split (the NIC the
    // paper's Fig 13/14 would have picked to plot).
    let hottest = nic_queues
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| {
            a.0.max(a.1)
                .partial_cmp(&b.0.max(b.1))
                .expect("queues are not NaN")
        })
        .map(|(i, _)| i)
        .unwrap_or(0);
    let build = |vals: &[Vec<f64>; 2]| {
        let mut out = [TimeSeries::new("Port 1"), TimeSeries::new("Port 2")];
        for p in 0..2 {
            for (t, v) in a.2.iter().zip(&vals[p]) {
                out[p].push(hpn_sim::SimTime::from_secs_f64(*t), *v);
            }
        }
        out
    };
    PortStats {
        rate_series: build(&a.0[hottest]),
        queue_series: build(&a.1[hottest]),
        mean_rates,
        nic_queues,
    }
}

/// Worst per-NIC pair of mean port queues (by the hotter port).
fn worst_queue_pair(stats: &PortStats) -> (f64, f64) {
    stats
        .nic_queues
        .iter()
        .copied()
        .max_by(|a, b| {
            a.0.max(a.1)
                .partial_cmp(&b.0.max(b.1))
                .expect("queues are not NaN")
        })
        .unwrap_or((0.0, 0.0))
}

/// Per-NIC imbalance ratios (max port rate over min), clamped at 100×
/// ("≥100×" means one port starved), sorted ascending.
fn imbalances(stats: &PortStats) -> Vec<f64> {
    let mut v: Vec<f64> = stats
        .mean_rates
        .iter()
        .filter(|&&(a, b)| a + b > 1.0)
        .map(|&(a, b)| {
            let hi = a.max(b);
            let lo = a.min(b).max(hi / 100.0);
            hi / lo
        })
        .collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    v
}

/// Render an imbalance summary line ("median 1.8×, worst 3.0×").
fn imbalance_summary(stats: &PortStats) -> String {
    let v = imbalances(stats);
    if v.is_empty() {
        return "no loaded NICs observed".into();
    }
    let median = v[v.len() / 2];
    let worst = *v.last().expect("non-empty");
    let worst_s = if worst >= 100.0 {
        "≥100× (one port starved)".to_string()
    } else {
        format!("{worst:.1}×")
    };
    format!("median {median:.1}×, worst {worst_s}")
}

/// Mean Jain fairness of the port split across NICs.
fn mean_fairness(stats: &PortStats) -> f64 {
    let vals: Vec<f64> = stats
        .mean_rates
        .iter()
        .filter(|&&(a, b)| a + b > 1.0)
        .map(|&(a, b)| stats::jain_fairness(&[a, b]))
        .collect();
    stats::mean(&vals)
}

/// Fig 13 — traffic on ToR ports towards the same NIC.
pub fn run_fig13(ctx: &SimCtx, scale: Scale) -> Report {
    let hosts_per_seg = scale.pick(16, 8);
    let clos = measure(
        ctx,
        common::hpn_clos_topology(scale, 2, hosts_per_seg),
        scale,
    );
    let dual = measure(ctx, common::hpn_topology(scale, 2, hosts_per_seg), scale);

    let mut r = Report::new(
        "fig13",
        "Traffic on ToR ports towards the same NIC",
        "typical Clos: up to 3× load difference between the two ports; dual-plane: even",
    );
    r.row(
        "typical Clos port imbalance",
        format!(
            "{} (mean Jain {:.3})",
            imbalance_summary(&clos),
            mean_fairness(&clos)
        ),
    );
    r.row(
        "dual-plane port imbalance",
        format!(
            "{} (mean Jain {:.3})",
            imbalance_summary(&dual),
            mean_fairness(&dual)
        ),
    );
    for s in clos.rate_series.iter() {
        let mut named = s.resample_avg(2.0);
        named.name = format!("Clos {}", named.name);
        r.push_series(named);
    }
    for s in dual.rate_series.iter() {
        let mut named = s.resample_avg(2.0);
        named.name = format!("Dual-plane {}", named.name);
        r.push_series(named);
    }
    r.verdict("Clos splits a NIC's ingress unevenly across its two ports; dual-plane equalizes — matches Fig 13");
    r
}

/// Fig 14 — queue length at ToR downstream ports.
pub fn run_fig14(ctx: &SimCtx, scale: Scale) -> Report {
    let hosts_per_seg = scale.pick(16, 8);
    let clos = measure(
        ctx,
        common::hpn_clos_topology(scale, 2, hosts_per_seg),
        scale,
    );
    let dual = measure(ctx, common::hpn_topology(scale, 2, hosts_per_seg), scale);

    let mut r = Report::new(
        "fig14",
        "Queue length at ToR downstream ports",
        "Clos: persistent 267KB vs 3KB queues on the two ports; dual-plane: ~20KB average, −91.8%",
    );
    let (c0, c1) = worst_queue_pair(&clos);
    let (d0, d1) = worst_queue_pair(&dual);
    r.row(
        "Clos hottest NIC mean queue (port1/port2)",
        format!("{c0:.0}KB / {c1:.0}KB"),
    );
    r.row(
        "dual-plane hottest NIC mean queue (port1/port2)",
        format!("{d0:.0}KB / {d1:.0}KB"),
    );
    let clos_worst = c0.max(c1);
    let dual_worst = d0.max(d1).max(1e-3);
    r.row(
        "worst-port queue reduction",
        format!("{:.1}%", (1.0 - dual_worst / clos_worst) * 100.0),
    );
    for s in clos.queue_series.iter() {
        let mut named = s.resample_avg(2.0);
        named.name = format!("Clos {} queue KB", named.name);
        r.push_series(named);
    }
    r.verdict("persistent queue on the hot Clos port, near-zero under dual-plane — matches Fig 14");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worst_imbalance(stats: &PortStats) -> f64 {
        imbalances(stats).last().copied().unwrap_or(1.0)
    }

    #[test]
    fn clos_is_less_fair_than_dual_plane() {
        let scale = Scale::Quick;
        let hosts_per_seg = 8;
        let ctx = &SimCtx::new();
        let clos = measure(
            ctx,
            common::hpn_clos_topology(scale, 2, hosts_per_seg),
            scale,
        );
        let dual = measure(ctx, common::hpn_topology(scale, 2, hosts_per_seg), scale);
        assert!(
            mean_fairness(&dual) > mean_fairness(&clos),
            "dual-plane {} should beat Clos {}",
            mean_fairness(&dual),
            mean_fairness(&clos)
        );
        assert!(
            worst_imbalance(&clos) > 1.5,
            "Clos should show real imbalance, got {:.2}×",
            worst_imbalance(&clos)
        );
        let (c0, c1) = worst_queue_pair(&clos);
        let (d0, d1) = worst_queue_pair(&dual);
        assert!(
            c0.max(c1) > 10.0 * d0.max(d1).max(0.1),
            "Clos hot-port queue ({:.1}KB) should dwarf dual-plane ({:.1}KB)",
            c0.max(c1),
            d0.max(d1)
        );
    }
}
