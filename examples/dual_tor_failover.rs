//! Dual-ToR failover in action (§4, Fig 18): fail a NIC-ToR cable in the
//! middle of training and watch the difference between dual-ToR and
//! single-ToR access.
//!
//! ```sh
//! cargo run --release --example dual_tor_failover
//! ```

use hpn::collectives::CommConfig;
use hpn::core::{placement, IterationOutcome, WorkloadSession};
use hpn::routing::HashMode;
use hpn::sim::SimDuration;
use hpn::topology::HpnConfig;
use hpn::transport::ClusterSim;
use hpn::workload::{ModelSpec, ParallelismPlan, TrainingJob};

fn scenario(dual_tor: bool) {
    let mut cfg = HpnConfig::paper();
    cfg.segments_per_pod = 1;
    cfg.hosts_per_segment = 8;
    cfg.backup_hosts_per_segment = 0;
    cfg.aggs_per_plane = 8;
    cfg.cores_per_plane = 8;
    cfg.dual_tor = dual_tor;
    let mut cs = ClusterSim::new(cfg.build(), HashMode::Polarized);

    let rails = cs.fabric.host_params.rails;
    let hosts = placement::place_segment_first(&cs.fabric, 8).unwrap();
    let mut model = ModelSpec::llama_7b();
    model.gpu_secs_per_sample = 0.1;
    let job = TrainingJob::new(model, ParallelismPlan::new(rails, 1, 8), hosts, rails, 256);
    let mut session = WorkloadSession::training(job, CommConfig::hpn_default());
    session.min_timeout = SimDuration::from_secs(120);

    println!(
        "== {} access ==",
        if dual_tor { "dual-ToR" } else { "single-ToR" }
    );
    session.run_iterations(&mut cs, 2);
    let baseline = session.records()[1].samples_per_sec;
    println!("  baseline: {baseline:.0} samples/s");

    // Fail host0 rail0's first cable 200ms into the next iteration; repair
    // it 60 seconds later.
    let cable = cs.fabric.hosts[0].nic_up[0][0].unwrap();
    let t = cs.now() + SimDuration::from_millis(200);
    cs.schedule_cable_event(t, cable, false);
    cs.schedule_cable_event(t + SimDuration::from_secs(60), cable, true);

    let during = session.run_iteration(&mut cs);
    match during.outcome {
        IterationOutcome::Completed { duration } => println!(
            "  during failure: {:.0} samples/s ({:+.1}%, iteration took {:.1}s)",
            during.samples_per_sec,
            (during.samples_per_sec / baseline - 1.0) * 100.0,
            duration.as_secs_f64()
        ),
        IterationOutcome::TimedOut => {
            println!("  during failure: iteration TIMED OUT — the job would crash and roll back");
            return;
        }
    }
    let after = session.run_iteration(&mut cs);
    let after = session
        .run_iteration(&mut cs)
        .samples_per_sec
        .max(after.samples_per_sec);
    println!("  after repair: {after:.0} samples/s");
    println!(
        "  transport: {} reroutes, {} stalls\n",
        cs.stats().reroutes,
        cs.stats().stalls
    );
}

fn main() {
    scenario(true);
    scenario(false);
}
