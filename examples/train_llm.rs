//! Train a GPT-scale model on HPN vs the DCN+ baseline and compare
//! throughput — a miniature of the paper's §9.1 production story.
//!
//! ```sh
//! cargo run --release --example train_llm
//! ```

use hpn::collectives::CommConfig;
use hpn::core::{placement, WorkloadSession};
use hpn::routing::HashMode;
use hpn::topology::{DcnPlusConfig, Fabric, HpnConfig};
use hpn::transport::ClusterSim;
use hpn::workload::{ModelSpec, ParallelismPlan, TrainingJob};

fn train(name: &str, fabric: Fabric, hosts: usize) -> f64 {
    let mut cs = ClusterSim::new(fabric, HashMode::Polarized);
    let rails = cs.fabric.host_params.rails;
    let pp = 4;
    let plan = ParallelismPlan::new(rails, pp, hosts / pp);
    let host_ids = placement::place_segment_first(&cs.fabric, hosts).expect("enough hosts");
    let spanned = placement::segments_spanned(&cs.fabric, &host_ids);
    let job = TrainingJob::new(ModelSpec::gpt3_175b(), plan, host_ids, rails, 512);
    let mut session = WorkloadSession::training(job, CommConfig::hpn_default());
    session.run_iterations(&mut cs, 4);
    let sps = session.mean_throughput(1);
    println!(
        "{name:>6}: {} GPUs over {spanned} segments → {sps:.1} samples/s \
         (iteration {:.2}s)",
        hosts * rails,
        512.0 / sps,
    );
    sps
}

fn main() {
    let hosts = 48usize;
    println!(
        "training a GPT-3-175B variant (TP=8, PP=4, DP={}):\n",
        hosts / 4
    );

    // HPN: 24-host segments here, so the job spans 2 (the paper's 288-host
    // job spans 3 segments of 128).
    let mut hpn_cfg = HpnConfig::paper();
    hpn_cfg.segments_per_pod = 3;
    hpn_cfg.hosts_per_segment = 24;
    hpn_cfg.backup_hosts_per_segment = 0;
    hpn_cfg.aggs_per_plane = 8;
    hpn_cfg.cores_per_plane = 8;
    let hpn = train("HPN", hpn_cfg.build(), hosts);

    // DCN+: 16-host segments, 3-tier Clos — the job spans 3 segments.
    let mut dcn_cfg = DcnPlusConfig::paper();
    dcn_cfg.pods = 1;
    dcn_cfg.tor_agg_parallel = 4;
    dcn_cfg.agg_core_uplinks = 8;
    dcn_cfg.cores = 16;
    let dcn = train("DCN+", dcn_cfg.build(), hosts);

    println!(
        "\nHPN end-to-end gain: {:+.1}% (the paper reports +14.9% at 2300+ GPUs)",
        (hpn / dcn - 1.0) * 100.0
    );
}
