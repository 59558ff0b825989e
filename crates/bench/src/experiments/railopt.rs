//! §5.2 ablation — rail-optimized tier-1.
//!
//! Rail-optimization spreads a host's 8 NICs over 8 dual-ToR pairs,
//! multiplying segment capacity 8× (1024 GPUs instead of 128 under one
//! pair). At fixed job size that shrinks the number of segments a job
//! spans — and with it the traffic that must cross the Aggregation layer.
//! We train the same job on both tier-1 designs, holding the ToR port
//! budget constant (a non-rail segment can only host an eighth of the
//! hosts).

use hpn_scenario::{links, ModelId, Scenario, TopologySpec, WorkloadSpec};
use hpn_topology::HpnConfig;

use hpn_telemetry::SimCtx;

use crate::experiments::common;
use crate::report::{pct_gain, Report};
use crate::Scale;

struct Out {
    samples_per_sec: f64,
    segments: usize,
    cross_agg_bits: f64,
}

fn train(ctx: &SimCtx, scale: Scale, rail_optimized: bool) -> Out {
    let hosts = scale.pick(32u32, 16);
    let mut cfg = HpnConfig::paper();
    cfg.rail_optimized = rail_optimized;
    // Same ToR port budget either way: a rail-optimized ToR pair serves
    // one rail of every host, a non-rail pair serves all 8 rails of an
    // eighth of the hosts.
    cfg.hosts_per_segment = if rail_optimized { hosts } else { hosts / 8 };
    cfg.segments_per_pod = if rail_optimized { 2 } else { 9 };
    cfg.backup_hosts_per_segment = 0;
    cfg.aggs_per_plane = scale.pick(16, 8);
    cfg.cores_per_plane = 8;
    // gpu_secs 0.2 keeps the DP AllReduce on the critical path.
    let scenario = Scenario::new("railopt", TopologySpec::Hpn(cfg)).with_workload(
        WorkloadSpec::new(ModelId::Llama13b, 1, hosts as usize, 512)
            .gpu_secs(0.2)
            .min_timeout(600.0),
    );
    let (mut cs, mut session) = common::scenario_session(ctx, &scenario);
    let segments = hpn_core::placement::segments_spanned(
        &cs.fabric,
        &session.job().expect("training workload").hosts,
    );
    session.run_iterations(&mut cs, scale.pick(3, 2) + 1);

    // Cross-Aggregation traffic: bits carried on ToR→Agg links.
    let cross_agg_bits: f64 = links::tor_to_agg_links(&cs.fabric)
        .iter()
        .map(|&l| cs.net.link(l).carried_bits)
        .sum();
    Out {
        samples_per_sec: session.mean_throughput(1),
        segments,
        cross_agg_bits,
    }
}

/// Run the experiment.
pub fn run(ctx: &SimCtx, scale: Scale) -> Report {
    let rail = train(ctx, scale, true);
    let flat = train(ctx, scale, false);
    let mut r = Report::new(
        "railopt",
        "Rail-optimized tier-1 ablation (§5.2)",
        "rail-optimization grows segments 8× (1K GPUs), keeping jobs inside tier-1 and cutting \
         Aggregation-layer traffic",
    );
    r.row(
        "rail-optimized",
        format!(
            "{:.1} samples/s over {} segment(s), {:.0} Gbit crossed the Agg layer",
            rail.samples_per_sec,
            rail.segments,
            rail.cross_agg_bits / 1e9
        ),
    );
    r.row(
        "non-rail-optimized",
        format!(
            "{:.1} samples/s over {} segment(s), {:.0} Gbit crossed the Agg layer",
            flat.samples_per_sec,
            flat.segments,
            flat.cross_agg_bits / 1e9
        ),
    );
    r.row(
        "rail-optimized gain",
        pct_gain(rail.samples_per_sec, flat.samples_per_sec),
    );
    r.verdict(
        "fewer segments spanned, far less Aggregation traffic, faster training — §5.2's case",
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rail_optimized_reduces_agg_traffic() {
        let ctx = &SimCtx::new();
        let rail = train(ctx, Scale::Quick, true);
        let flat = train(ctx, Scale::Quick, false);
        assert!(
            rail.segments < flat.segments,
            "rail packs jobs into fewer segments"
        );
        assert!(
            rail.cross_agg_bits < flat.cross_agg_bits,
            "rail {} vs flat {} Agg bits",
            rail.cross_agg_bits,
            flat.cross_agg_bits
        );
        assert!(rail.samples_per_sec >= flat.samples_per_sec * 0.99);
    }
}
