//! A Scenario-built run is byte-equal to the legacy hand-wired run.
//!
//! Before the scenario layer, every training experiment wired fabric →
//! placement → job → session by hand (the old `experiments/common.rs`
//! helpers). The figure gate proves the ported experiments kept their
//! fingerprints; this test pins the equivalence at the source — the same
//! configuration built both ways produces bit-identical iteration records.

use hpn_collectives::CommConfig;
use hpn_core::{placement, WorkloadSession};
use hpn_routing::HashMode;
use hpn_scenario::{ModelId, Scenario, TopologySpec, WorkloadSpec};
use hpn_topology::HpnConfig;
use hpn_transport::ClusterSim;
use hpn_workload::{ModelSpec, ParallelismPlan, TrainingJob};

#[test]
fn scenario_build_matches_legacy_wiring_bit_for_bit() {
    // Legacy wiring, exactly as the pre-refactor experiments did it.
    let fabric = HpnConfig::tiny().build();
    let plan = ParallelismPlan::new(fabric.host_params.rails, 2, 2);
    let hosts = placement::place_segment_first(&fabric, 4).expect("tiny fits 4 hosts");
    let mut model = ModelSpec::llama_7b();
    model.gpu_secs_per_sample = 0.05;
    let job = TrainingJob::new(model, plan, hosts, plan.tp, 64);
    let mut legacy_cs = ClusterSim::new(fabric, HashMode::Polarized);
    let mut legacy = WorkloadSession::training(job, CommConfig::hpn_default());

    // The same point declared as a Scenario.
    let sc = Scenario::new("equiv", TopologySpec::Hpn(HpnConfig::tiny()))
        .with_workload(WorkloadSpec::new(ModelId::Llama7b, 2, 2, 64).gpu_secs(0.05));
    let mut built = sc.build().expect("valid scenario");
    let mut session = built.workload.take().expect("has workload").session();

    let hosts = |s: &WorkloadSession| s.job().expect("training session").hosts.clone();
    assert_eq!(hosts(&legacy), hosts(&session), "placement must agree");
    for i in 0..3 {
        let a = legacy.run_iteration(&mut legacy_cs);
        let b = session.run_iteration(&mut built.cluster);
        assert_eq!(a.start, b.start, "iteration {i} start");
        assert_eq!(a.end, b.end, "iteration {i} end");
        assert_eq!(
            a.samples_per_sec.to_bits(),
            b.samples_per_sec.to_bits(),
            "iteration {i} throughput must be bit-identical"
        );
    }
}
