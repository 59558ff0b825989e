//! A day in the life of a pod: continuous training under the paper's
//! production fault rates (§2.3), with dual-ToR failover doing its job.
//!
//! ```sh
//! cargo run --release --example pod_operations
//! ```

use hpn::collectives::CommConfig;
use hpn::core::{placement, IterationOutcome, WorkloadSession};
use hpn::faults::{access_links, plan, schedule, FaultRates};
use hpn::routing::HashMode;
use hpn::sim::{SimDuration, SimTime};
use hpn::topology::HpnConfig;
use hpn::transport::ClusterSim;
use hpn::workload::{ModelSpec, ParallelismPlan, TrainingJob};

fn main() {
    let mut cfg = HpnConfig::paper();
    cfg.segments_per_pod = 2;
    cfg.hosts_per_segment = 8;
    cfg.backup_hosts_per_segment = 1;
    cfg.aggs_per_plane = 8;
    cfg.cores_per_plane = 8;
    let mut cs = ClusterSim::new(cfg.build(), HashMode::Polarized);

    // Crank the fault rates so a single simulated hour sees real action
    // (at the true 0.057%/month rate a small testbed would stay quiet).
    let mut rates = FaultRates::paper();
    rates.link_fail_per_month *= 2000.0;
    rates.flaps_per_link_day *= 20.0;
    rates.link_repair = SimDuration::from_secs(120);
    rates.tor_crash_per_month = 0.0;
    let horizon = SimDuration::from_secs(3600);
    let faults = plan(&cs.fabric, &rates, horizon, 42);
    println!(
        "operating a {}-GPU pod for 1h with {} scheduled faults over {} access links",
        cs.fabric.active_gpu_count(),
        faults.len(),
        access_links(&cs.fabric).len()
    );

    // Pre-arm every fault as a timer so training runs uninterrupted.
    schedule(&mut cs, &faults);

    let rails = cs.fabric.host_params.rails;
    let hosts = placement::place_segment_first(&cs.fabric, 16).unwrap();
    let mut model = ModelSpec::llama_7b();
    model.gpu_secs_per_sample = 1.0;
    let job = TrainingJob::new(model, ParallelismPlan::new(rails, 2, 8), hosts, rails, 2048);
    let mut session = WorkloadSession::training(job, CommConfig::hpn_default());

    let mut completed = 0usize;
    let mut degraded = 0usize;
    let mut baseline = 0.0f64;
    while cs.now() < SimTime::ZERO + horizon {
        let rec = session.run_iteration(&mut cs);
        match rec.outcome {
            IterationOutcome::Completed { .. } => {
                completed += 1;
                if baseline == 0.0 {
                    baseline = rec.samples_per_sec;
                }
                if rec.samples_per_sec < baseline * 0.95 {
                    degraded += 1;
                }
            }
            IterationOutcome::TimedOut => {
                println!("iteration {} TIMED OUT (would crash the job)", rec.index);
                break;
            }
        }
    }
    println!(
        "completed {completed} iterations ({degraded} visibly degraded by faults), \
         0 crashes — transport rerouted {} messages, {} stalls",
        cs.stats().reroutes,
        cs.stats().stalls
    );
    println!(
        "mean throughput {:.0} samples/s (first iteration {:.0})",
        session.mean_throughput(1),
        baseline
    );
}
