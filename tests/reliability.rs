//! Reliability integration: stochastic fault injection driving the full
//! stack (faults → transport failover → collectives → training).
//!
//! Telemetry is passed explicitly: a test that wants to observe events
//! builds a [`hpn::telemetry::SimCtx`] carrying its own
//! [`hpn::telemetry::EventLog`] and hands it to [`ClusterSim::with_ctx`].
//! There is no ambient recorder, so the suite runs under `cargo test`'s
//! default parallelism without cross-test interference.

use hpn::collectives::CommConfig;
use hpn::core::{placement, IterationOutcome, WorkloadSession};
use hpn::faults::{access_links, plan, schedule, FaultKind, FaultRates};
use hpn::routing::HashMode;
use hpn::sim::{SimDuration, SimTime};
use hpn::topology::{wiring, HpnConfig};
use hpn::transport::ClusterSim;
use hpn::workload::{ModelSpec, ParallelismPlan, TrainingJob};

/// A context recording into this test's own [`hpn::telemetry::EventLog`].
/// Clusters built with it record there and nowhere else; no state is
/// shared between tests because nothing is thread- or process-global.
fn logging_ctx() -> (hpn::telemetry::EventLog, hpn::telemetry::SimCtx) {
    let log = hpn::telemetry::EventLog::new();
    let ctx = hpn::telemetry::SimCtx::new()
        .with_recorder(hpn::telemetry::SharedRecorder::new(Box::new(log.clone())));
    (log, ctx)
}

fn small_fabric() -> hpn::topology::Fabric {
    let mut cfg = HpnConfig::paper();
    cfg.segments_per_pod = 2;
    cfg.hosts_per_segment = 8;
    cfg.backup_hosts_per_segment = 1;
    cfg.aggs_per_plane = 8;
    cfg.cores_per_plane = 8;
    cfg.build()
}

fn small_cluster() -> ClusterSim {
    ClusterSim::new(small_fabric(), HashMode::Polarized)
}

#[test]
fn training_survives_an_accelerated_month_of_faults() {
    let (log, ctx) = logging_ctx();
    let mut cs = ClusterSim::with_ctx(small_fabric(), HashMode::Polarized, &ctx);
    // Accelerate the production rates so a few simulated minutes see many
    // failures; repairs are quick so redundancy windows overlap.
    let mut rates = FaultRates::paper();
    rates.link_fail_per_month *= 50_000.0;
    rates.flaps_per_link_day *= 200.0;
    rates.link_repair = SimDuration::from_secs(20);
    rates.tor_crash_per_month = 0.0;
    let horizon = SimDuration::from_secs(300);
    let faults = plan(&cs.fabric, &rates, horizon, 7);
    assert!(
        faults.len() > 20,
        "the accelerated schedule should be busy, got {}",
        faults.len()
    );
    schedule(&mut cs, &faults);

    let rails = cs.fabric.host_params.rails;
    let hosts = placement::place_segment_first(&cs.fabric, 16).unwrap();
    let mut model = ModelSpec::llama_7b();
    model.gpu_secs_per_sample = 0.5;
    let job = TrainingJob::new(model, ParallelismPlan::new(rails, 2, 8), hosts, rails, 1024);
    let mut session = WorkloadSession::training(job, CommConfig::hpn_default());

    let mut completed = 0;
    while cs.now() < SimTime::ZERO + horizon {
        let rec = session.run_iteration(&mut cs);
        assert!(
            matches!(rec.outcome, IterationOutcome::Completed { .. }),
            "dual-ToR training must not crash under single-link faults (iteration {})",
            rec.index
        );
        completed += 1;
    }
    assert!(
        completed >= 10,
        "made real progress: {completed} iterations"
    );
    // The fault storm actually exercised failover paths.
    assert!(
        cs.stats().reroutes > 0 || cs.stats().stalls == 0,
        "stats: {:?}",
        cs.stats()
    );
    // The scoped recorder (not some shared fixture) observed this test's
    // simulation, link flaps included.
    assert!(!log.is_empty(), "scoped recorder saw the simulation");
    assert!(log
        .events()
        .iter()
        .any(|e| matches!(e, hpn::telemetry::Event::LinkState { up: false, .. })));
}

#[test]
fn fault_schedule_covers_all_access_links_eventually() {
    let cs = small_cluster();
    let mut rates = FaultRates::paper();
    rates.link_fail_per_month = 0.9; // near-certain monthly failure
    rates.flaps_per_link_day = 0.0;
    rates.tor_crash_per_month = 0.0;
    let horizon = SimDuration::from_secs(10 * 30 * 24 * 3600);
    let schedule = plan(&cs.fabric, &rates, horizon, 3);
    let mut hit: std::collections::BTreeSet<_> = Default::default();
    for ev in &schedule {
        if let FaultKind::LinkFailure { link, .. } = ev.kind {
            hit.insert(link);
        }
    }
    let total = access_links(&cs.fabric).len();
    assert!(
        hit.len() as f64 > total as f64 * 0.95,
        "only {}/{} access links ever failed",
        hit.len(),
        total
    );
}

#[test]
fn backup_swap_after_tor_level_loss_keeps_the_job_alive() {
    let mut cs = small_cluster();
    let rails = cs.fabric.host_params.rails;
    let mut hosts = placement::place_segment_first(&cs.fabric, 8).unwrap();

    // An entire host dies (power). Swap in the standby under the same ToRs.
    let failed = hosts[3];
    for rail in 0..rails {
        for port in 0..2 {
            if let Some(l) = cs.fabric.hosts[failed as usize].nic_up[rail][port] {
                cs.fail_cable(l);
            }
        }
    }
    let replacement = hpn::core::swap_to_backup(&cs.fabric, &mut hosts, failed).unwrap();
    assert!(cs.fabric.hosts[replacement as usize].backup);

    let job = TrainingJob::new(
        ModelSpec::llama_7b(),
        ParallelismPlan::new(rails, 1, 8),
        hosts,
        rails,
        256,
    );
    let mut session = WorkloadSession::training(job, CommConfig::hpn_default());
    let rec = session.run_iteration(&mut cs);
    assert!(matches!(rec.outcome, IterationOutcome::Completed { .. }));
}

#[test]
fn asymmetric_link_failure_degrades_but_does_not_crash() {
    // §10's "asymmetric link states" lesson: the NIC→ToR direction dies
    // (bad optics + LFS notification lost) while ToR→NIC stays up. The
    // dual-ToR design turns this into degradation, not a crash.
    let mut cs = small_cluster();
    let rails = cs.fabric.host_params.rails;
    let hosts = placement::place_segment_first(&cs.fabric, 8).unwrap();
    let mut model = ModelSpec::llama_7b();
    model.gpu_secs_per_sample = 0.2;
    let job = TrainingJob::new(model, ParallelismPlan::new(rails, 1, 8), hosts, rails, 256);
    let mut session = WorkloadSession::training(job, CommConfig::hpn_default());
    session.run_iterations(&mut cs, 2);
    let baseline = session.records()[1].samples_per_sec;

    // Fail ONLY the uplink direction of host0 rail0 port0.
    let up = cs.fabric.hosts[0].nic_up[0][0].unwrap();
    cs.fail_link(up);
    // Let BGP converge, then measure.
    session.run_iteration(&mut cs);
    let rec = session.run_iteration(&mut cs);
    assert!(
        matches!(rec.outcome, IterationOutcome::Completed { .. }),
        "asymmetric failure must not crash dual-ToR training"
    );
    assert!(
        rec.samples_per_sec <= baseline,
        "one-directional loss cannot speed things up"
    );
    // And the reverse direction genuinely stayed up.
    let down = cs.fabric.hosts[0].nic_down[0][0].unwrap();
    assert!(cs.net.link(down.flow_link()).up);
}

#[test]
fn built_fabrics_pass_the_wiring_blueprint() {
    // The §10 INT-probe check, applied to every builder at test scale.
    for fabric in [
        HpnConfig::tiny().build(),
        HpnConfig::medium().build(),
        hpn::topology::DcnPlusConfig::tiny().build(),
    ] {
        let violations = wiring::validate_blueprint(&fabric);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
