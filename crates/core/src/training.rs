//! End-to-end training sessions.
//!
//! A [`TrainingSession`] wraps a placed [`TrainingJob`] with a shared
//! communicator (connections — and their WQE counters — persist across
//! iterations, as real QPs do) and runs iterations over a
//! [`hpn_transport::ClusterSim`], producing the per-iteration throughput
//! records behind Fig 15a, Fig 16 and Fig 18.

use hpn_collectives::{CommConfig, Communicator, Runner};
use hpn_sim::{RecomputeScope, SimDuration, SimTime, TimeSeries};
use hpn_transport::ClusterSim;
use hpn_workload::TrainingJob;

/// What happened to one iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum IterationOutcome {
    /// Finished within the deadline.
    Completed {
        /// Wall-clock duration.
        duration: SimDuration,
    },
    /// Still unfinished at the deadline (e.g. collective stalled on a dead
    /// link) — the NCCL-timeout / job-crash condition of §9.3.
    TimedOut,
}

/// One iteration's record.
#[derive(Clone, Copy, Debug)]
pub struct IterationRecord {
    /// Iteration index.
    pub index: usize,
    /// Start instant.
    pub start: SimTime,
    /// End instant (deadline if timed out).
    pub end: SimTime,
    /// Outcome.
    pub outcome: IterationOutcome,
    /// Samples/s achieved (0 when timed out).
    pub samples_per_sec: f64,
    /// Rate-allocator work attributable to this iteration: recompute
    /// events and flows/links touched (diffed from the fluid net's
    /// [`RecomputeScope`] counters across the iteration).
    pub alloc_scope: RecomputeScope,
}

/// A running training session.
pub struct TrainingSession {
    /// The placed job.
    pub job: TrainingJob,
    runner: Runner,
    comm: usize,
    /// Per-iteration deadline multiplier: an iteration taking longer than
    /// `timeout_factor × expected` (min `min_timeout`) counts as stalled.
    pub timeout_factor: f64,
    /// Lower bound on the per-iteration deadline.
    pub min_timeout: SimDuration,
    records: Vec<IterationRecord>,
}

impl TrainingSession {
    /// Create a session; communicator connections are established lazily
    /// on first use.
    pub fn new(job: TrainingJob, comm_config: CommConfig) -> Self {
        let comm = Communicator::new(job.ranks(), comm_config, 49152);
        let mut runner = Runner::new();
        let comm = runner.add_comm(comm);
        TrainingSession {
            job,
            runner,
            comm,
            timeout_factor: 10.0,
            min_timeout: SimDuration::from_secs(120),
            records: Vec::new(),
        }
    }

    /// Lower the runner's chunk spray factor — large-fleet experiments use
    /// this to trade pipelining adaptivity for simulation speed.
    pub fn with_spray(mut self, spray: u32) -> Self {
        self.runner = self.runner.with_spray(spray);
        self
    }

    /// Install a periodic sampler on the underlying runner (used by the
    /// Fig 2 / Fig 13–15 experiments to record link rates and queues).
    pub fn with_sampler(
        mut self,
        period: SimDuration,
        f: impl FnMut(&mut ClusterSim) + Send + 'static,
    ) -> Self {
        self.runner = self.runner.with_sampler(period, f);
        self
    }

    /// The per-iteration deadline given an expected duration guess.
    fn deadline_for(&self, start: SimTime, expected: SimDuration) -> SimTime {
        let budget = SimDuration::from_secs_f64(
            (expected.as_secs_f64() * self.timeout_factor).max(self.min_timeout.as_secs_f64()),
        );
        start + budget
    }

    /// Run one iteration to completion (or timeout). The expected duration
    /// used for the timeout is the previous completed iteration's, or the
    /// compute time for the first.
    pub fn run_iteration(&mut self, cs: &mut ClusterSim) -> IterationRecord {
        let expected = self
            .records
            .iter()
            .rev()
            .find_map(|r| match r.outcome {
                IterationOutcome::Completed { duration } => Some(duration),
                IterationOutcome::TimedOut => None,
            })
            .unwrap_or_else(|| {
                self.job
                    .model
                    .compute_time(self.job.global_batch, self.job.gpus())
            });
        let start = cs.now();
        let scope_before = cs.net.alloc_scope();
        let graph = self.job.iteration_graph();
        let jid = self.runner.add_job(graph, self.comm);
        let deadline = self.deadline_for(start, expected);
        let finished = self.runner.run_job(cs, jid, deadline);
        let end = cs.now();
        let alloc_scope = cs.net.alloc_scope().since(&scope_before);
        let outcome = if finished {
            IterationOutcome::Completed {
                duration: end - start,
            }
        } else {
            IterationOutcome::TimedOut
        };
        let samples_per_sec = if finished {
            self.job.samples_per_second(end - start)
        } else {
            0.0
        };
        let rec = IterationRecord {
            index: self.records.len(),
            start,
            end,
            outcome,
            samples_per_sec,
            alloc_scope,
        };
        self.records.push(rec);
        rec
    }

    /// Run `n` iterations back to back.
    pub fn run_iterations(&mut self, cs: &mut ClusterSim, n: usize) -> &[IterationRecord] {
        for _ in 0..n {
            self.run_iteration(cs);
        }
        &self.records[self.records.len() - n..]
    }

    /// All records so far.
    pub fn records(&self) -> &[IterationRecord] {
        &self.records
    }

    /// Mean samples/s over completed iterations, skipping the first
    /// `warmup` (connection establishment noise).
    pub fn mean_throughput(&self, warmup: usize) -> f64 {
        let xs: Vec<f64> = self
            .records
            .iter()
            .skip(warmup)
            .filter(|r| matches!(r.outcome, IterationOutcome::Completed { .. }))
            .map(|r| r.samples_per_sec)
            .collect();
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    }

    /// Instantaneous-throughput time series: each completed iteration
    /// contributes its samples/s over `[start, end)`; gaps (stalls) read
    /// as zero. `step` is the sampling period. This is how Fig 15a / 18
    /// style plots are produced.
    pub fn throughput_series(&self, step: SimDuration) -> TimeSeries {
        let mut ts = TimeSeries::new("samples/s");
        let Some(last) = self.records.last() else {
            return ts;
        };
        let end = last.end;
        let mut t = SimTime::ZERO;
        while t <= end {
            let v = self
                .records
                .iter()
                .find(|r| {
                    r.start <= t
                        && t < r.end
                        && matches!(r.outcome, IterationOutcome::Completed { .. })
                })
                .map(|r| r.samples_per_sec)
                .unwrap_or(0.0);
            ts.push(t, v);
            t += step;
        }
        ts
    }

    /// The session's communicator (e.g. for the Fig 3 per-host census).
    pub fn communicator(&self) -> &Communicator {
        self.runner.comm(self.comm)
    }

    /// The connection census for Fig 3: established connections per host.
    pub fn connections_per_host(&self, cs: &ClusterSim) -> f64 {
        let conns = self.runner.comm(self.comm).established_connections(cs) as f64;
        let hosts = self.job.hosts.len() as f64;
        conns / hosts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpn_routing::HashMode;
    use hpn_topology::HpnConfig;
    use hpn_workload::{ModelSpec, ParallelismPlan};

    fn small_job(fabric_hosts: &[u32]) -> TrainingJob {
        // 4 hosts × 2 rails: TP=2, PP=2, DP=2.
        let plan = ParallelismPlan::new(2, 2, 2);
        TrainingJob::new(ModelSpec::llama_7b(), plan, fabric_hosts.to_vec(), 2, 64)
    }

    #[test]
    fn training_session_is_send() {
        // Sessions move across threads (work-stealing experiment runner),
        // so everything inside — including an installed sampler — is Send.
        fn assert_send<T: Send>() {}
        assert_send::<TrainingSession>();
    }

    fn setup() -> (ClusterSim, TrainingSession) {
        let fabric = HpnConfig::tiny().build();
        let cs = ClusterSim::new(fabric, HashMode::Polarized);
        let hosts = crate::placement::place_segment_first(&cs.fabric, 4).unwrap();
        let session = TrainingSession::new(small_job(&hosts), CommConfig::hpn_default());
        (cs, session)
    }

    #[test]
    fn iterations_complete_and_record_throughput() {
        let (mut cs, mut session) = setup();
        // Flows completed per iteration, from the fluid net's FCT sketch.
        let mut completed = Vec::new();
        for _ in 0..3 {
            let before = cs.net.fct_sketch().count();
            session.run_iteration(&mut cs);
            completed.push(cs.net.fct_sketch().count() - before);
        }
        let recs = session.records().to_vec();
        assert_eq!(recs.len(), 3);
        for r in &recs {
            assert!(matches!(r.outcome, IterationOutcome::Completed { .. }));
            assert!(r.samples_per_sec > 0.0);
            assert!(r.end > r.start);
        }
        // Iterations are steady after the first.
        let a = recs[1].samples_per_sec;
        let b = recs[2].samples_per_sec;
        assert!((a - b).abs() / a < 0.05, "unsteady: {a} vs {b}");
        assert!(session.mean_throughput(1) > 0.0);
        // Allocator-scope accounting: every iteration drove rate
        // recomputes, and the flows that finish at one instant share one
        // (fewer solves than completions). Per-component scoping is pinned
        // by the allocator's own tests.
        for (r, &done) in recs.iter().zip(&completed) {
            assert!(r.alloc_scope.events > 0, "iteration drove recomputes");
            assert!(
                r.alloc_scope.events < done,
                "same-instant completions batched: {} solves for {done} completions",
                r.alloc_scope.events
            );
        }
    }

    #[test]
    fn failed_access_link_degrades_but_does_not_halt_dual_tor() {
        let (mut cs, mut session) = setup();
        let baseline = {
            session.run_iterations(&mut cs, 2);
            session.records()[1].samples_per_sec
        };
        // Fail one NIC-ToR cable of a participating host mid-run.
        let link = cs.fabric.hosts[0].nic_up[0][0].unwrap();
        cs.fail_cable(link);
        cs.run(&mut NopApp, cs.now() + SimDuration::from_secs(2));
        let rec = session.run_iteration(&mut cs);
        assert!(
            matches!(rec.outcome, IterationOutcome::Completed { .. }),
            "dual-ToR training survives a single link failure"
        );
        assert!(
            rec.samples_per_sec < baseline,
            "but throughput degrades: {} !< {}",
            rec.samples_per_sec,
            baseline
        );
    }

    struct NopApp;
    impl hpn_transport::ClusterApp for NopApp {
        fn on_message_complete(&mut self, _: &mut ClusterSim, _: hpn_transport::MessageDone) {}
    }

    #[test]
    fn single_tor_times_out_under_failure() {
        let mut cfg = HpnConfig::tiny();
        cfg.dual_tor = false;
        let mut cs = ClusterSim::new(cfg.build(), HashMode::Polarized);
        let hosts = crate::placement::place_segment_first(&cs.fabric, 4).unwrap();
        let mut session = TrainingSession::new(small_job(&hosts), CommConfig::single_path());
        session.min_timeout = SimDuration::from_secs(30);
        session.timeout_factor = 3.0;
        session.run_iterations(&mut cs, 2);
        // Fail the (only) access cable of host 0 rail 0; never repair.
        let link = cs.fabric.hosts[0].nic_up[0][0].unwrap();
        cs.fail_cable(link);
        let rec = session.run_iteration(&mut cs);
        assert_eq!(rec.outcome, IterationOutcome::TimedOut);
        assert_eq!(rec.samples_per_sec, 0.0);
    }

    #[test]
    fn throughput_series_shows_gap_during_stall() {
        let (mut cs, mut session) = setup();
        session.run_iterations(&mut cs, 2);
        let ts = session.throughput_series(SimDuration::from_millis(100));
        assert!(!ts.is_empty());
        assert!(ts.max() > 0.0);
    }

    #[test]
    fn connection_census_is_positive_after_running() {
        let (mut cs, mut session) = setup();
        session.run_iterations(&mut cs, 1);
        assert!(session.connections_per_host(&cs) > 0.0);
    }
}
