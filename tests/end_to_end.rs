//! Cross-crate integration tests: fabric → routing → transport →
//! collectives → workload, exercised together the way the experiment
//! harness uses them.
//!
//! Telemetry is passed explicitly: a test that wants to observe events
//! builds a [`hpn::telemetry::SimCtx`] carrying its own
//! [`hpn::telemetry::EventLog`] (see [`logging_ctx`]) and hands it to
//! [`ClusterSim::with_ctx`]. There is no ambient recorder to isolate
//! from, so the suite is safe under `cargo test`'s default parallelism —
//! no `--test-threads=1` required.

use hpn::collectives::{bw, graph, CommConfig, Communicator, Runner};
use hpn::core::{placement, IterationOutcome, WorkloadSession};
use hpn::routing::{repac, HashMode};
use hpn::sim::{SimDuration, SimTime};
use hpn::telemetry::SimCtx;
use hpn::topology::{DcnPlusConfig, HpnConfig};
use hpn::transport::ClusterSim;
use hpn::workload::{ModelSpec, ParallelismPlan, TrainingJob};

fn hpn_cluster() -> ClusterSim {
    ClusterSim::new(HpnConfig::medium().build(), HashMode::Polarized)
}

/// A context recording into this test's own [`hpn::telemetry::EventLog`].
/// Simulators built from the context record there and nowhere else —
/// concurrent tests cannot share recorder state because nothing is
/// thread- or process-global.
fn logging_ctx() -> (hpn::telemetry::EventLog, SimCtx) {
    let log = hpn::telemetry::EventLog::new();
    let ctx =
        SimCtx::new().with_recorder(hpn::telemetry::SharedRecorder::new(Box::new(log.clone())));
    (log, ctx)
}

#[test]
fn allreduce_on_hpn_reaches_sane_busbw() {
    let (log, ctx) = logging_ctx();
    let mut cs = ClusterSim::with_ctx(HpnConfig::medium().build(), HashMode::Polarized, &ctx);
    let hosts = 8usize;
    let rails = cs.fabric.host_params.rails;
    let ranks: Vec<(u32, usize)> = (0..hosts as u32)
        .flat_map(|h| (0..rails).map(move |r| (h, r)))
        .collect();
    let n = ranks.len();
    let size = 8e9; // 1 GB
    let mut runner = Runner::new();
    let comm = runner.add_comm(Communicator::new(ranks, CommConfig::hpn_default(), 49152));
    let job = runner.add_job(
        graph::hierarchical_allreduce(hosts, rails, size, true, 2),
        comm,
    );
    assert!(runner.run_job(&mut cs, job, SimTime::from_secs(60)));
    let busbw = bw::allreduce_busbw(size, n, runner.job_duration(job).unwrap()) / 1e9;
    // Bounded by NVLink/NIC physics: tens to a few hundred GB/s.
    assert!(
        (20.0..=500.0).contains(&busbw),
        "busbw {busbw} GB/s out of physical range"
    );
    // The collective ran under *this* test's recorder, nobody else's.
    assert!(
        log.events()
            .iter()
            .any(|e| matches!(e, hpn::telemetry::Event::FlowAdd { .. })),
        "scoped recorder observed the collective's flows"
    );
}

#[test]
fn training_iterations_are_deterministic_across_runs() {
    let run = || {
        // Fresh recording context per run: telemetry is an observer, so
        // the two runs stay nanosecond-identical with recording enabled.
        let (_log, ctx) = logging_ctx();
        let mut cs = ClusterSim::with_ctx(HpnConfig::medium().build(), HashMode::Polarized, &ctx);
        let rails = cs.fabric.host_params.rails;
        let hosts = placement::place_segment_first(&cs.fabric, 8).unwrap();
        let job = TrainingJob::new(
            ModelSpec::llama_7b(),
            ParallelismPlan::new(rails, 2, 4),
            hosts,
            rails,
            256,
        );
        let mut session = WorkloadSession::training(job, CommConfig::hpn_default());
        session.run_iterations(&mut cs, 3);
        session
            .records()
            .iter()
            .map(|r| r.end.as_nanos())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "same seed, same fabric, same nanoseconds");
}

#[test]
fn hpn_beats_dcn_on_cross_segment_multiallreduce() {
    let time_on = |cs: &mut ClusterSim| {
        let hosts = 24usize;
        let rails = cs.fabric.host_params.rails;
        let host_ids = placement::place_segment_first(&cs.fabric, hosts).unwrap();
        let ranks: Vec<(u32, usize)> = host_ids
            .iter()
            .flat_map(|&h| (0..rails).map(move |r| (h, r)))
            .collect();
        let mut runner = Runner::new();
        let comm = runner.add_comm(Communicator::new(ranks, CommConfig::hpn_default(), 49152));
        let job = runner.add_job(graph::multi_allreduce(hosts, rails, 8e9, 2), comm);
        let deadline = cs.now() + SimDuration::from_secs(600);
        assert!(runner.run_job(cs, job, deadline));
        runner.job_duration(job).unwrap().as_secs_f64()
    };
    let mut hpn = ClusterSim::new(
        {
            let mut c = HpnConfig::medium();
            c.hosts_per_segment = 12;
            c.build()
        },
        HashMode::Polarized,
    );
    let mut dcn = ClusterSim::new(
        {
            let mut c = DcnPlusConfig::paper();
            c.pods = 1;
            c.tor_agg_parallel = 4;
            c.agg_core_uplinks = 8;
            c.cores = 16;
            c.build()
        },
        HashMode::Polarized,
    );
    let t_hpn = time_on(&mut hpn);
    let t_dcn = time_on(&mut dcn);
    assert!(
        t_hpn <= t_dcn,
        "HPN ({t_hpn}s) should not lose to DCN+ ({t_dcn}s) on network-heavy collectives"
    );
}

#[test]
fn repac_paths_survive_failures_and_training_continues() {
    let mut cs = hpn_cluster();
    let rails = cs.fabric.host_params.rails;
    let hosts = placement::place_segment_first(&cs.fabric, 8).unwrap();
    let job = TrainingJob::new(
        ModelSpec::llama_7b(),
        ParallelismPlan::new(rails, 1, 8),
        hosts,
        rails,
        256,
    );
    let mut session = WorkloadSession::training(job, CommConfig::hpn_default());
    session.run_iterations(&mut cs, 2);

    // Fail three different access cables at once.
    for h in 0..3 {
        let cable = cs.fabric.hosts[h].nic_up[0][0].unwrap();
        cs.fail_cable(cable);
    }
    let rec = session.run_iteration(&mut cs);
    assert!(
        matches!(rec.outcome, IterationOutcome::Completed { .. }),
        "dual-ToR training survives three concurrent link failures"
    );
    assert!(rec.samples_per_sec > 0.0);
}

#[test]
fn find_paths_is_consistent_with_cluster_routing() {
    let cs = hpn_cluster();
    let dst = cs.fabric.segment_hosts(1)[0].id;
    let res = repac::find_paths(&cs.router, &cs.fabric, &cs.health, 0, 0, dst, 0, 8, 49152);
    assert!(res.paths.len() >= 4);
    for p in &res.paths {
        // Every enumerated path must be re-derivable from the router with
        // the same sport and port — RePaC's core premise.
        let again = cs
            .router
            .route(
                &cs.fabric,
                &cs.health,
                &hpn::routing::RouteRequest {
                    src_host: 0,
                    src_rail: 0,
                    dst_host: dst,
                    dst_rail: 0,
                    sport: p.sport,
                    port: p.route.port,
                },
            )
            .expect("path still routable");
        assert_eq!(again.links, p.route.links, "hash inversion is exact");
    }
}

#[test]
fn workload_traffic_volumes_survive_composition() {
    // The iteration graph's network bytes must equal Table-3 composition
    // even after placement on a real fabric.
    let cs = hpn_cluster();
    let rails = cs.fabric.host_params.rails;
    let hosts = placement::place_segment_first(&cs.fabric, 16).unwrap();
    let plan = ParallelismPlan::new(rails, 4, 4);
    let job = TrainingJob::new(ModelSpec::gpt3_175b(), plan, hosts, rails, 512);
    let g = job.iteration_graph();
    let ranks = job.ranks();
    let (net, local) = g.traffic_split(|a, b| ranks[a as usize].0 == ranks[b as usize].0);
    assert!(net > 0.0 && local > 0.0);
    let t3 = hpn::workload::traffic::table3(&job.model, &job.plan);
    let dp_total = (job.plan.pp * rails * job.plan.dp) as f64
        * 2.0
        * t3.dp_bytes
        * 8.0
        * (job.plan.dp as f64 - 1.0)
        / job.plan.dp as f64;
    assert!(net >= dp_total * 0.99, "DP volume must be present in full");
}

#[test]
fn paper_scale_pod_builds_and_routes() {
    // The full 15,360-GPU pod: build it, check the inventory, and route
    // across it. (Build only — simulating it is the harness's job.)
    let fabric = HpnConfig::paper().build();
    assert_eq!(fabric.active_gpu_count(), 15_360);
    assert_eq!(fabric.tors.len(), 15 * 8 * 2);
    assert_eq!(fabric.aggs.len(), 2 * 60);
    let router = hpn::routing::Router::new(&fabric, HashMode::Polarized);
    let health = hpn::routing::LinkHealth::new(fabric.net.link_count());
    let dst = fabric.segment_hosts(14)[0].id;
    let route = router
        .route(
            &fabric,
            &health,
            &hpn::routing::RouteRequest {
                src_host: 0,
                src_rail: 3,
                dst_host: dst,
                dst_rail: 3,
                sport: 50_000,
                port: None,
            },
        )
        .expect("cross-pod-width route");
    // gpu→nic→tor→agg→tor→nic→gpu.
    assert_eq!(route.links.len(), 6);
}
