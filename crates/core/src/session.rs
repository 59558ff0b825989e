//! Workload sessions: every `[workload] kind` runs through one
//! [`WorkloadSession`].
//!
//! A session owns a collectives [`Runner`] whose communicators persist
//! across iterations (connections — and their WQE counters — live on, as
//! real QPs do). Each iteration adds the kind's op graphs as runner jobs,
//! runs them under a deadline, and appends one [`IterationRecord`], so
//! oracles (iteration monotonicity, throughput finiteness) and report
//! plumbing treat every kind alike. The kinds differ only in the graphs an
//! iteration adds, the duration the first deadline expects, and the work
//! count behind `samples_per_sec`:
//!
//! * training — the built-in Megatron iteration (also carries MoE),
//!   reported as samples/s: Figs 15a, 16 and 18;
//! * trace replay — a pre-compiled application-trace op graph (see
//!   `hpn_workload::trace`), reported as ops/s;
//! * inference serving — a frontend host ticks requests at a fixed rate
//!   and sprays small request/response flows over the serving hosts (§8),
//!   optionally superimposed on a training job, reported as requests/s;
//! * multi-job — N placed training jobs on one runner (Fig 6's job mix).
//!   The first iteration runs each job solo for an interference-free
//!   baseline; later ones run all jobs together, so per-job slowdown =
//!   concurrent / solo.

use hpn_collectives::graph::{OpGraph, OpKind};
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

/// Open-loop serving load: aggregate request rate over a fixed window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServingLoad {
    /// Aggregate requests per second across all serving hosts.
    pub requests_per_sec: f64,
    /// Request payload, bytes.
    pub request_bytes: f64,
    /// Response payload, bytes.
    pub response_bytes: f64,
    /// Window one iteration simulates.
    pub window: SimDuration,
}

impl ServingLoad {
    /// Requests issued per window (at least one).
    pub fn requests(&self) -> usize {
        ((self.requests_per_sec * self.window.as_secs_f64()).round() as usize).max(1)
    }
}

/// Per-job facts and measurements for the multi-job report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobStats {
    /// GPUs the Fig 6 sampler drew for this job.
    pub gpus: u32,
    /// Hosts the scheduler assigned (0 when skipped for lack of room).
    pub hosts: usize,
    /// Segments the assignment spans (>1 = fragmented across tier-2).
    pub segments: usize,
    /// Solo iteration time, seconds (first, interference-free pass).
    pub solo_secs: Option<f64>,
    /// Latest concurrent iteration time, seconds.
    pub concurrent_secs: Option<f64>,
}

impl JobStats {
    /// True when the scheduler found room for the job.
    pub fn placed(&self) -> bool {
        self.hosts > 0
    }

    /// Interference slowdown: concurrent / solo iteration time.
    pub fn slowdown(&self) -> Option<f64> {
        match (self.solo_secs, self.concurrent_secs) {
            (Some(s), Some(c)) if s > 0.0 => Some(c / s),
            _ => None,
        }
    }
}

/// What an iteration runs; each variant names its communicators by their
/// runner index.
enum Kind {
    Training {
        job: TrainingJob,
        comm: usize,
    },
    Replay {
        graph: OpGraph,
        comm: usize,
    },
    Serving {
        load: ServingLoad,
        /// Serving hosts (frontend excluded).
        serving: usize,
        comm: usize,
        training: Option<(TrainingJob, usize)>,
    },
    MultiJob {
        /// `(stats index, job, communicator)` per placed job.
        jobs: Vec<(usize, TrainingJob, usize)>,
        stats: Vec<JobStats>,
    },
}

/// Graphs launched together under one deadline.
struct Wave {
    graphs: Vec<(OpGraph, usize)>,
    /// The duration the deadline expects before any iteration completed.
    expected: SimDuration,
}

/// The compute time of the slowest job, or one second without jobs.
fn compute_bound<'a>(jobs: impl IntoIterator<Item = &'a TrainingJob>) -> SimDuration {
    jobs.into_iter()
        .map(|j| j.model.compute_time(j.global_batch, j.gpus()))
        .max()
        .unwrap_or(SimDuration::from_secs(1))
}

impl Kind {
    /// The waves one iteration runs, in order.
    fn waves(&self, first: bool) -> Vec<Wave> {
        match self {
            Kind::Training { job, comm } => vec![Wave {
                graphs: vec![(job.iteration_graph(), *comm)],
                expected: compute_bound([job]),
            }],
            Kind::Replay { graph, comm } => vec![Wave {
                graphs: vec![(graph.clone(), *comm)],
                expected: SimDuration::from_secs(1),
            }],
            Kind::Serving {
                load,
                serving,
                comm,
                training,
            } => {
                let mut graphs = vec![(window_graph(load, *serving), *comm)];
                graphs.extend(training.iter().map(|(j, c)| (j.iteration_graph(), *c)));
                vec![Wave {
                    graphs,
                    expected: load.window,
                }]
            }
            Kind::MultiJob { jobs, .. } => {
                let wave = |jobs: &[(usize, TrainingJob, usize)]| Wave {
                    graphs: jobs
                        .iter()
                        .map(|(_, j, c)| (j.iteration_graph(), *c))
                        .collect(),
                    expected: compute_bound(jobs.iter().map(|(_, j, _)| j)),
                };
                if first {
                    jobs.chunks(1).map(wave).collect()
                } else {
                    vec![wave(jobs)]
                }
            }
        }
    }

    /// Samples (ops, requests) one completed iteration accounts for.
    fn work(&self) -> f64 {
        match self {
            Kind::Training { job, .. } => job.global_batch as f64,
            Kind::Replay { graph, .. } => graph.len() as f64,
            Kind::Serving { load, .. } => load.requests() as f64,
            Kind::MultiJob { jobs, .. } => {
                jobs.iter().map(|(_, j, _)| j.global_batch).sum::<usize>() as f64
            }
        }
    }
}

/// The open-loop window graph: a frontend clock chain ticking at the
/// request interval; each tick fires a request send to a serving host
/// (round-robin) whose completion fires the response send back.
fn window_graph(load: &ServingLoad, serving: usize) -> OpGraph {
    let n = load.requests();
    let interval = SimDuration::from_secs_f64(load.window.as_secs_f64() / n as f64);
    let mut g = OpGraph::new();
    let mut prev: Option<u32> = None;
    for k in 0..n {
        let tick = g.add(
            OpKind::Compute {
                rank: 0,
                dur: interval,
            },
            prev.map(|p| vec![p]).unwrap_or_default(),
        );
        let host = (1 + k % serving) as u32;
        let req = g.add(
            OpKind::Send {
                src: 0,
                dst: host,
                bits: load.request_bytes * 8.0,
            },
            vec![tick],
        );
        g.add(
            OpKind::Send {
                src: host,
                dst: 0,
                bits: load.response_bytes * 8.0,
            },
            vec![req],
        );
        prev = Some(tick);
    }
    g
}

/// A running workload of any kind.
pub struct WorkloadSession {
    runner: Runner,
    kind: Kind,
    /// Per-iteration deadline multiplier: an iteration taking longer than
    /// `timeout_factor × expected` (min `min_timeout`) counts as stalled.
    pub timeout_factor: f64,
    /// Lower bound on the per-iteration deadline.
    pub min_timeout: SimDuration,
    records: Vec<IterationRecord>,
}

impl WorkloadSession {
    fn new(runner: Runner, kind: Kind) -> Self {
        WorkloadSession {
            runner,
            kind,
            timeout_factor: 10.0,
            min_timeout: SimDuration::from_secs(120),
            records: Vec::new(),
        }
    }

    /// Train a placed job, one Megatron iteration per session iteration.
    /// Communicator connections are established lazily on first use.
    pub fn training(job: TrainingJob, comm_config: CommConfig) -> Self {
        let mut runner = Runner::new();
        let comm = runner.add_comm(Communicator::new(job.ranks(), comm_config, 49152));
        Self::new(runner, Kind::Training { job, comm })
    }

    /// Replay `graph` once per iteration over the given rank endpoints
    /// (graph rank `r` runs at `ranks[r]`).
    pub fn replay(graph: OpGraph, ranks: Vec<(u32, usize)>, comm_config: CommConfig) -> Self {
        let mut runner = Runner::new();
        let comm = runner.add_comm(Communicator::new(ranks, comm_config, 49152));
        Self::new(runner, Kind::Replay { graph, comm })
    }

    /// Serve one open-loop window per iteration: `hosts[0]` is the
    /// frontend, the rest serve. With `training`, each window also runs one
    /// iteration of that job over its own communicator, and ends when both
    /// are done.
    pub fn serving(
        hosts: Vec<u32>,
        load: ServingLoad,
        training: Option<TrainingJob>,
        comm_config: CommConfig,
    ) -> Self {
        assert!(hosts.len() >= 2, "serving needs a frontend and a server");
        assert!(
            load.requests_per_sec > 0.0 && load.window > SimDuration::ZERO,
            "serving load must be positive"
        );
        let serving = hosts.len() - 1;
        let ranks: Vec<(u32, usize)> = hosts.into_iter().map(|h| (h, 0usize)).collect();
        let mut runner = Runner::new();
        let comm = runner.add_comm(Communicator::new(ranks, comm_config, 45056));
        let training = training.map(|job| {
            let c = runner.add_comm(Communicator::new(job.ranks(), comm_config, 49152));
            (job, c)
        });
        Self::new(
            runner,
            Kind::Serving {
                load,
                serving,
                comm,
                training,
            },
        )
    }

    /// Run sampled jobs side by side: each entry is the job's stats plus
    /// its placed [`TrainingJob`] (`None` when the scheduler skipped it).
    /// The first iteration runs each placed job solo, later ones all
    /// together; throughput is the summed batch over the pass.
    pub fn multi_job(
        entries: Vec<(JobStats, Option<TrainingJob>)>,
        comm_config: CommConfig,
    ) -> Self {
        let mut runner = Runner::new();
        let mut jobs = Vec::new();
        let mut stats = Vec::with_capacity(entries.len());
        for (si, (stat, job)) in entries.into_iter().enumerate() {
            stats.push(stat);
            if let Some(job) = job {
                // Distinct sport bases keep concurrent groups exploring
                // different tuple ranges (wrapping is fine — it is a seed).
                let base = 40000u16.wrapping_add((si as u16).wrapping_mul(997));
                let c = runner.add_comm(Communicator::new(job.ranks(), comm_config, base));
                jobs.push((si, job, c));
            }
        }
        Self::new(runner, Kind::MultiJob { jobs, stats })
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

    /// Run one iteration to completion (or timeout). Each wave's deadline
    /// expects the previous completed iteration's duration, or the kind's
    /// own guess before any completed.
    pub fn run_iteration(&mut self, cs: &mut ClusterSim) -> IterationRecord {
        let start = cs.now();
        let scope_before = cs.net.alloc_scope();
        let first = self.records.is_empty();
        let last = self.records.iter().rev().find_map(|r| match r.outcome {
            IterationOutcome::Completed { duration } => Some(duration),
            IterationOutcome::TimedOut => None,
        });
        let mut finished = true;
        // Each job's duration in launch order, `None` when it timed out.
        let mut durations = Vec::new();
        for wave in self.kind.waves(first) {
            let deadline = self.deadline_for(cs.now(), last.unwrap_or(wave.expected));
            let jids: Vec<usize> = wave
                .graphs
                .into_iter()
                .map(|(g, c)| self.runner.add_job(g, c))
                .collect();
            for jid in jids {
                let done = self.runner.run_job(cs, jid, deadline);
                finished &= done;
                durations.push(self.runner.job_duration(jid).filter(|_| done));
            }
        }
        if let Kind::MultiJob { jobs, stats } = &mut self.kind {
            for ((si, _, _), d) in jobs.iter().zip(durations) {
                let s = &mut stats[*si];
                let slot = if first {
                    &mut s.solo_secs
                } else {
                    &mut s.concurrent_secs
                };
                *slot = d.map(|d| d.as_secs_f64());
            }
        }
        let end = cs.now();
        let elapsed = (end - start).as_secs_f64();
        let rec = IterationRecord {
            index: self.records.len(),
            start,
            end,
            outcome: if finished {
                IterationOutcome::Completed {
                    duration: end - start,
                }
            } else {
                IterationOutcome::TimedOut
            },
            samples_per_sec: if finished && elapsed > 0.0 {
                self.kind.work() / elapsed
            } else {
                0.0
            },
            alloc_scope: cs.net.alloc_scope().since(&scope_before),
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

    /// Mean samples/s (ops/s, requests/s) over completed iterations,
    /// skipping the first `warmup` (connection establishment noise).
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

    /// The session's first communicator: the training job's, the replayed
    /// trace's, the serving fleet's, or the first placed job's (e.g. for
    /// the Fig 3 per-host census). Panics for a multi-job session that
    /// placed no job.
    pub fn communicator(&self) -> &Communicator {
        self.runner.comm(0)
    }

    /// The placed job of a training session.
    pub fn job(&self) -> Option<&TrainingJob> {
        match &self.kind {
            Kind::Training { job, .. } => Some(job),
            _ => None,
        }
    }

    /// Per-job stats (sampled size, placement, timings) of a multi-job
    /// session, in sample order.
    pub fn job_stats(&self) -> Option<&[JobStats]> {
        match &self.kind {
            Kind::MultiJob { stats, .. } => Some(stats),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpn_routing::HashMode;
    use hpn_topology::HpnConfig;
    use hpn_workload::{ModelSpec, ParallelismPlan};

    fn sim() -> ClusterSim {
        ClusterSim::new(HpnConfig::tiny().build(), HashMode::Polarized)
    }

    fn placed_hosts(cs: &ClusterSim, n: usize) -> Vec<u32> {
        crate::placement::place_segment_first(&cs.fabric, n).unwrap()
    }

    fn small_job(fabric_hosts: &[u32]) -> TrainingJob {
        // 4 hosts × 2 rails: TP=2, PP=2, DP=2.
        let plan = ParallelismPlan::new(2, 2, 2);
        TrainingJob::new(ModelSpec::llama_7b(), plan, fabric_hosts.to_vec(), 2, 64)
    }

    #[test]
    fn sessions_are_send() {
        // Sessions move across threads (work-stealing experiment runner),
        // so everything inside — including an installed sampler — is Send.
        fn assert_send<T: Send>() {}
        assert_send::<WorkloadSession>();
    }

    fn setup() -> (ClusterSim, WorkloadSession) {
        let cs = sim();
        let hosts = placed_hosts(&cs, 4);
        let session = WorkloadSession::training(small_job(&hosts), CommConfig::hpn_default());
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
        let hosts = placed_hosts(&cs, 4);
        let mut session = WorkloadSession::training(small_job(&hosts), CommConfig::single_path());
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
        assert!(session.communicator().established_connections(&cs) > 0);
    }

    #[test]
    fn replay_session_runs_a_handoff_graph() {
        let mut cs = sim();
        let hosts = placed_hosts(&cs, 2);
        let ranks: Vec<(u32, usize)> = hosts.iter().map(|&h| (h, 0)).collect();
        let mut g = OpGraph::new();
        let c = g.add(
            OpKind::Compute {
                rank: 0,
                dur: SimDuration::from_millis(5),
            },
            vec![],
        );
        let s = g.add(
            OpKind::Send {
                src: 0,
                dst: 1,
                bits: 8e6,
            },
            vec![c],
        );
        g.add(
            OpKind::Compute {
                rank: 1,
                dur: SimDuration::from_millis(3),
            },
            vec![s],
        );
        let mut session = WorkloadSession::replay(g, ranks, CommConfig::hpn_default());
        let mut prev_end = SimTime::ZERO;
        for _ in 0..2 {
            let rec = session.run_iteration(&mut cs);
            assert!(matches!(rec.outcome, IterationOutcome::Completed { .. }));
            assert!(rec.samples_per_sec > 0.0 && rec.samples_per_sec.is_finite());
            assert!(rec.start >= prev_end && rec.end >= rec.start);
            // Compute floor: 5ms + 3ms plus wire time.
            assert!((rec.end - rec.start).as_secs_f64() >= 0.008);
            prev_end = rec.end;
        }
    }

    #[test]
    fn serving_session_sustains_the_open_loop_rate() {
        let mut cs = sim();
        let hosts = placed_hosts(&cs, 3);
        let load = ServingLoad {
            requests_per_sec: 400.0,
            request_bytes: 4e3,
            response_bytes: 2e3,
            window: SimDuration::from_millis(50),
        };
        let mut session = WorkloadSession::serving(hosts, load, None, CommConfig::hpn_default());
        let rec = session.run_iteration(&mut cs);
        assert!(matches!(rec.outcome, IterationOutcome::Completed { .. }));
        // 20 requests over ~50ms: the tiny flows ride on top of the clock
        // chain, so the achieved rate is close to the open-loop rate.
        assert!(
            rec.samples_per_sec > 200.0 && rec.samples_per_sec < 800.0,
            "requests/s {}",
            rec.samples_per_sec
        );
    }

    #[test]
    fn superimposed_serving_runs_both_jobs() {
        let mut cs = sim();
        let hosts = placed_hosts(&cs, 4);
        let plan = ParallelismPlan::new(2, 2, 2);
        let mut job = TrainingJob::new(ModelSpec::llama_7b(), plan, hosts.clone(), 2, 64);
        job.model.gpu_secs_per_sample = 0.001;
        let load = ServingLoad {
            requests_per_sec: 100.0,
            request_bytes: 4e3,
            response_bytes: 2e3,
            window: SimDuration::from_millis(20),
        };
        let mut session =
            WorkloadSession::serving(hosts, load, Some(job), CommConfig::hpn_default());
        let rec = session.run_iteration(&mut cs);
        assert!(matches!(rec.outcome, IterationOutcome::Completed { .. }));
        // The window can't end before the training iteration does, which
        // dwarfs the 20ms serving window.
        assert!((rec.end - rec.start).as_secs_f64() > 0.02);
    }

    fn tiny_job(hosts: Vec<u32>, rails: usize) -> TrainingJob {
        let plan = ParallelismPlan::new(rails, 1, hosts.len());
        let mut job = TrainingJob::new(ModelSpec::llama_7b(), plan, hosts, rails, 32);
        job.model.gpu_secs_per_sample = 0.001;
        job
    }

    fn unplaced() -> (JobStats, Option<TrainingJob>) {
        (
            JobStats {
                gpus: 2944,
                hosts: 0,
                segments: 0,
                solo_secs: None,
                concurrent_secs: None,
            },
            None,
        )
    }

    #[test]
    fn multi_job_measures_solo_then_concurrent() {
        let mut cs = sim();
        let hosts = placed_hosts(&cs, 4);
        let placed = |hosts: &[u32]| {
            (
                JobStats {
                    gpus: 4,
                    hosts: 2,
                    segments: 1,
                    solo_secs: None,
                    concurrent_secs: None,
                },
                Some(tiny_job(hosts.to_vec(), 2)),
            )
        };
        let entries = vec![placed(&hosts[..2]), placed(&hosts[2..]), unplaced()];
        let mut session = WorkloadSession::multi_job(entries, CommConfig::hpn_default());
        let first = session.run_iteration(&mut cs);
        let second = session.run_iteration(&mut cs);
        assert!(matches!(first.outcome, IterationOutcome::Completed { .. }));
        assert!(matches!(second.outcome, IterationOutcome::Completed { .. }));
        assert!(second.start >= first.end);
        let stats = session.job_stats().expect("multi-job stats");
        for s in &stats[..2] {
            assert!(s.placed());
            assert!(s.solo_secs.unwrap() > 0.0);
            assert!(s.concurrent_secs.unwrap() > 0.0);
            let slow = s.slowdown().unwrap();
            assert!(slow.is_finite() && slow > 0.0);
        }
        assert!(!stats[2].placed());
        assert_eq!(stats[2].slowdown(), None);
    }

    #[test]
    fn multi_job_with_nothing_placed_records_zero_windows() {
        let mut cs = sim();
        let mut session = WorkloadSession::multi_job(vec![unplaced()], CommConfig::hpn_default());
        for _ in 0..2 {
            let rec = session.run_iteration(&mut cs);
            assert_eq!(
                rec.outcome,
                IterationOutcome::Completed {
                    duration: SimDuration::ZERO
                }
            );
            assert_eq!(rec.samples_per_sec, 0.0);
        }
    }
}
