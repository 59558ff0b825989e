//! Shared experiment setup: scenario declarations and collective sweeps.
//!
//! Since the scenario refactor, figure experiments no longer hand-build
//! fabrics, clusters and jobs: they declare a typed [`Scenario`] (topology,
//! routing, workload, faults) and reduce the built session into their
//! figure. The helpers here produce the [`TopologySpec`]s every §9
//! experiment shares and turn scenarios into runnable `(cluster, session)`
//! pairs, panicking with the full [`hpn_scenario::ScenarioError`]
//! diagnostic when a statically-declared scenario is wrong — that is a
//! bug, not an input error.
//!
//! Every cluster-building helper takes the cell's [`SimCtx`]: the context
//! carries the sweep root seed (experiments call `ctx.seed_for(site)` with
//! their fixed site constant — outside a sweep that returns the constant
//! itself, preserving the golden figure bytes), the telemetry recorder and
//! the rate-allocator selection. The former thread-local `SweepScope` is
//! gone; nothing in this crate is ambient anymore.

use hpn_collectives::{bw, graph, CommConfig, Communicator, Runner};
use hpn_core::{placement, WorkloadSession};
use hpn_scenario::{Scenario, TopologySpec};
use hpn_sim::SimDuration;
use hpn_telemetry::SimCtx;
use hpn_topology::{DcnPlusConfig, Fabric, HpnConfig};
use hpn_transport::ClusterSim;

use crate::Scale;

/// HPN topology sized for the §9.1 experiments: `segments` segments of
/// `hosts_per_segment` hosts (8 rails). Quick mode shrinks the radix.
pub fn hpn_topology(scale: Scale, segments: u32, hosts_per_segment: u32) -> TopologySpec {
    let mut cfg = HpnConfig::paper();
    cfg.segments_per_pod = segments;
    cfg.hosts_per_segment = hosts_per_segment;
    cfg.backup_hosts_per_segment = scale.pick(8, 0);
    cfg.aggs_per_plane = scale.pick(60, 8);
    cfg.cores_per_plane = scale.pick(64, 8);
    TopologySpec::Hpn(cfg)
}

/// The typical-Clos tier-2 ablation of the same fabric (Fig 12a/13a/14a).
pub fn hpn_clos_topology(scale: Scale, segments: u32, hosts_per_segment: u32) -> TopologySpec {
    let TopologySpec::Hpn(mut cfg) = hpn_topology(scale, segments, hosts_per_segment) else {
        unreachable!()
    };
    cfg.dual_plane = false;
    TopologySpec::Hpn(cfg)
}

/// DCN+ topology covering at least `hosts` hosts (16 per segment, 4
/// segments per pod — Appendix C).
pub fn dcn_topology(scale: Scale, hosts: u32) -> TopologySpec {
    let mut cfg = DcnPlusConfig::paper();
    cfg.pods = hosts.div_ceil(64).max(1);
    cfg.tor_agg_parallel = scale.pick(8, 4);
    cfg.agg_core_uplinks = scale.pick(64, 8);
    cfg.cores = scale.pick(128, 16);
    TopologySpec::DcnPlus(cfg)
}

/// Build just the fabric of a topology spec (fault planning, inventory).
pub fn build_fabric(topo: &TopologySpec) -> Fabric {
    topo.try_build()
        .unwrap_or_else(|e| panic!("experiment topology failed to build: {e}"))
}

/// Build a cluster runtime for a topology-only scenario. The default
/// routing is the production (polarization-prone) hash family — HPN's
/// advantage must come from architecture, not magic hashes.
pub fn build_cluster(ctx: &SimCtx, topo: TopologySpec) -> ClusterSim {
    scenario_cluster(ctx, &Scenario::new("adhoc", topo))
}

/// Build a scenario's cluster runtime under the cell's context, panicking
/// with the scenario name and field-level diagnostic on error.
pub fn scenario_cluster(ctx: &SimCtx, sc: &Scenario) -> ClusterSim {
    sc.build_with(ctx)
        .unwrap_or_else(|e| panic!("scenario '{}' failed to build: {e}", sc.name))
        .cluster
}

/// Build a workload-bearing scenario into its cluster runtime and a fresh
/// session.
pub fn scenario_session(ctx: &SimCtx, sc: &Scenario) -> (ClusterSim, WorkloadSession) {
    let mut built = sc
        .build_with(ctx)
        .unwrap_or_else(|e| panic!("scenario '{}' failed to build: {e}", sc.name));
    let w = built
        .workload
        .take()
        .unwrap_or_else(|| panic!("scenario '{}' declares no workload", sc.name));
    (built.cluster, w.session())
}

/// Which collective a sweep runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CollectiveKind {
    /// Hierarchical AllReduce with NVLS (production NCCL on these hosts).
    AllReduce,
    /// Hierarchical AllGather (NVSwitch-bound either way, Fig 17b).
    AllGather,
    /// Per-rail Multi-AllReduce (Megatron TP=8 gradient pattern).
    MultiAllReduce,
}

/// Run one collective of `size_bits` over the first `hosts` hosts of the
/// fabric and return `(duration, busbw bytes/s)`.
pub fn run_collective(
    cs: &mut ClusterSim,
    kind: CollectiveKind,
    hosts: usize,
    size_bits: f64,
    config: CommConfig,
    sport_base: u16,
) -> (SimDuration, f64) {
    let rails = cs.fabric.host_params.rails;
    let host_ids = placement::place_segment_first(&cs.fabric, hosts).expect("enough hosts");
    let ranks: Vec<(u32, usize)> = host_ids
        .iter()
        .flat_map(|&h| (0..rails).map(move |r| (h, r)))
        .collect();
    let n = ranks.len();
    let g = match kind {
        CollectiveKind::AllReduce => {
            graph::hierarchical_allreduce(hosts, rails, size_bits, true, 2)
        }
        CollectiveKind::AllGather => graph::hierarchical_allgather(hosts, rails, size_bits, 2),
        CollectiveKind::MultiAllReduce => graph::multi_allreduce(hosts, rails, size_bits, 2),
    };
    let comm = Communicator::new(ranks, config, sport_base);
    let mut runner = Runner::new();
    let c = runner.add_comm(comm);
    let job = runner.add_job(g, c);
    let horizon = cs.now() + SimDuration::from_secs(3600);
    let ok = runner.run_job(cs, job, horizon);
    assert!(
        ok,
        "collective did not finish within an hour of simulated time"
    );
    let dur = runner.job_duration(job).expect("finished");
    let busbw = match kind {
        CollectiveKind::AllReduce | CollectiveKind::MultiAllReduce => {
            bw::allreduce_busbw(size_bits, n, dur)
        }
        CollectiveKind::AllGather => bw::allgather_busbw(size_bits, n, dur),
    };
    (dur, busbw)
}

/// NCCL-style size sweep (log-spaced from 1MB to `max` bytes).
pub fn size_sweep(scale: Scale) -> Vec<f64> {
    let max_exp = scale.pick(32, 28); // 4GB full, 256MB quick
    (20..=max_exp)
        .step_by(2)
        .map(|e| 2f64.powi(e) * 8.0)
        .collect()
}

/// Warm up + time `iters` iterations; returns mean samples/s.
pub fn mean_samples_per_sec(
    cs: &mut ClusterSim,
    session: &mut WorkloadSession,
    iters: usize,
) -> f64 {
    session.run_iterations(cs, iters + 1);
    session.mean_throughput(1)
}
