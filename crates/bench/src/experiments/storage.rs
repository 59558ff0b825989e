//! §8/§10 — the location of the storage cluster.
//!
//! HPN keeps CPFS/OSS storage on the independent frontend network. The
//! alternative — storage in the backend — offers 3.2Tbps per host but
//! injects checkpoint bursts into the same ports the training collectives
//! need. This experiment trains with checkpoint writes placed either way:
//! frontend placement is physically isolated (zero backend flows); backend
//! placement emits the 30GB-per-GPU checkpoint through the training NICs.

use hpn_scenario::{ModelId, Scenario, WorkloadSpec};

use hpn_telemetry::SimCtx;

use crate::experiments::common;
use crate::report::{pct_gain, Report};
use crate::Scale;

fn train_with_storage(ctx: &SimCtx, scale: Scale, storage_in_backend: bool) -> f64 {
    // Two segments: the job in segment 0 (segment-first placement fills
    // exactly its active hosts), stand-in storage hosts in segment 1 (they
    // model the backend-attached CPFS frontends).
    let hosts = scale.pick(16u32, 8);
    let topo = common::hpn_topology(scale, 2, hosts);
    let fabric = common::build_fabric(&topo);
    let job_hosts: Vec<u32> = fabric.segment_hosts(0).iter().map(|h| h.id).collect();
    let storage_hosts: Vec<u32> = fabric.segment_hosts(1).iter().map(|h| h.id).collect();
    let dp = job_hosts.len();

    let scenario = Scenario::new("storage", topo).with_workload(
        WorkloadSpec::new(ModelId::Llama7b, 1, dp, 512)
            .gpu_secs(0.1)
            .min_timeout(600.0),
    );
    let (mut cs, mut session) = common::scenario_session(ctx, &scenario);
    let rails = cs.fabric.host_params.rails;
    debug_assert_eq!(session.job().map(|j| &j.hosts), Some(&job_hosts));
    session.run_iterations(&mut cs, 2);

    if storage_in_backend {
        // Checkpoint burst: every training host streams 30GB per GPU to the
        // storage hosts through its backend NICs, concurrent with training.
        let per_gpu_bits = 30e9 * 8.0;
        let mut groups = Vec::new();
        for (i, &h) in job_hosts.iter().enumerate() {
            let dsth = storage_hosts[i % storage_hosts.len()];
            for r in 0..rails {
                groups.push(cs.establish_group(
                    (h, r),
                    (dsth, r),
                    2,
                    hpn_transport::PathPolicy::LeastWqe,
                    30_000 + (i as u16) * 131,
                ));
            }
        }
        // `u64::MAX` names no runner job, so the training runner that
        // receives these completions ignores them.
        for g in groups {
            cs.send_group(g, per_gpu_bits, u64::MAX);
        }
    }
    let rec = session.run_iteration(&mut cs);
    rec.samples_per_sec
}

/// Run the experiment.
pub fn run(ctx: &SimCtx, scale: Scale) -> Report {
    let frontend = train_with_storage(ctx, scale, false);
    let backend = train_with_storage(ctx, scale, true);
    let mut r = Report::new(
        "storage",
        "Location of the storage cluster (§8/§10)",
        "backend-placed storage injects checkpoint bursts into training ports, causing fluctuations; \
         frontend placement isolates them",
    );
    r.row(
        "storage on frontend (deployed)",
        format!("{frontend:.1} samples/s during checkpoint"),
    );
    r.row(
        "storage in backend",
        format!("{backend:.1} samples/s during checkpoint"),
    );
    r.row("backend-placement penalty", pct_gain(backend, frontend));
    r.verdict(
        "checkpoint traffic through the backend slows the overlapping iteration; the frontend \
         keeps training flat — the §10 decision",
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_storage_slows_training() {
        let ctx = &SimCtx::new();
        let frontend = train_with_storage(ctx, Scale::Quick, false);
        let backend = train_with_storage(ctx, Scale::Quick, true);
        assert!(
            backend < frontend * 0.97,
            "backend checkpoint traffic should visibly slow the iteration: {backend} vs {frontend}"
        );
    }
}
