//! Executes op graphs over the cluster runtime.
//!
//! A [`Runner`] holds any number of jobs (graph + communicator) and plays
//! them concurrently: ops whose dependencies are satisfied are issued as
//! messages/copies/timers; completions unlock dependents. Per-job start
//! and finish times give the collective latencies the experiments report.

use hpn_sim::{SimDuration, SimTime};
use hpn_transport::{ClusterApp, ClusterSim, GroupId, MessageDone};

use crate::comm::Communicator;
use crate::graph::{OpGraph, OpKind};

/// Reserved timer tag for the periodic sampler. Like every foreign
/// `u64::MAX` word it decodes to job `u32::MAX`, which never exists.
const SAMPLER_TAG: u64 = u64::MAX;

/// The [`OpTables::group`] entry of an op that is not a sprayed Send.
const NO_GROUP: GroupId = GroupId(u32::MAX);

/// The `user` word of every message and compute timer the runner issues:
/// it names the op the completion counts towards.
fn op_key(job: u32, op: u32) -> u64 {
    ((job as u64) << 32) | op as u64
}

/// One job: a graph bound to a communicator.
struct Job {
    comm: usize,
    /// The graph and its progress tables; dropped when the job finishes.
    ops: Option<OpTables>,
    outstanding: usize,
    started: Option<SimTime>,
    finished: Option<SimTime>,
}

/// A live job's graph and per-op progress.
struct OpTables {
    graph: OpGraph,
    /// What each op still waits for: its unsatisfied dependencies until it
    /// is issued, then its unfinished messages (1 for a local send, copy or
    /// compute; `spray × window` for a sprayed Send). An op is done when
    /// this reaches 0 after issue; a second completion panics.
    remaining: Vec<u32>,
    /// The group each sprayed Send was issued over (`NO_GROUP` for every
    /// other op). A pair's group never changes, so each chunk completion
    /// reads it here instead of looking the pair up again.
    group: Vec<GroupId>,
    /// Reverse edges: op -> ops that depend on it.
    dependents: Vec<Vec<u32>>,
}

/// Multi-job executor. Implements [`ClusterApp`]; drive it with
/// [`Runner::run`].
///
/// The runner owns the `user` words delivered to it: each message and
/// compute timer it issues carries its op's key, `(job << 32) | op`, and
/// that key is the only link from a completion back to its op. Foreign
/// senders on the same [`ClusterSim`] (storage traffic beside a training
/// job, say) pass `u64::MAX`, which names no job and is ignored.
///
/// Network sends are sprayed over the pair's connection group in a
/// bounded window: NCCL pipelines chunks across QPs, which is how a bonded
/// NIC reaches 2×200G and where Algorithm 2's least-WQE selection earns
/// its keep, as each chunk posted after the window fills goes to whichever
/// connection drained.
#[allow(clippy::type_complexity)] // the sampler slot is one closure field
pub struct Runner {
    comms: Vec<Communicator>,
    jobs: Vec<Job>,
    sampler: Option<(SimDuration, Box<dyn FnMut(&mut ClusterSim) + Send>)>,
    sampler_armed: bool,
    spray: u32,
}

/// Default chunks per connection of the group (total = spray × conns;
/// window = conns). 1 disables pipelining; 4 keeps event counts modest
/// while letting the policy react to drain rates. Large-fleet experiments
/// lower it via [`Runner::with_spray`] to trade adaptivity for speed.
const DEFAULT_SPRAY_FACTOR: u32 = 4;

impl Default for Runner {
    fn default() -> Self {
        Self::new()
    }
}

impl Runner {
    /// An empty runner.
    pub fn new() -> Self {
        Runner {
            comms: Vec::new(),
            jobs: Vec::new(),
            sampler: None,
            sampler_armed: false,
            spray: DEFAULT_SPRAY_FACTOR,
        }
    }

    /// Override the chunk spray factor (see `DEFAULT_SPRAY_FACTOR`'s
    /// docs). Must be ≥ 1, and its product with every communicator's
    /// `conns_per_pair` must fit in `u32`.
    pub fn with_spray(mut self, spray: u32) -> Self {
        assert!(spray >= 1, "spray factor must be positive");
        for comm in &self.comms {
            assert_spray_fits(spray, comm.config.conns_per_pair);
        }
        self.spray = spray;
        self
    }

    /// Install a periodic sampler (e.g. record queue lengths every 100ms).
    /// The sampler starts when [`Runner::run`] is first called.
    pub fn with_sampler(
        mut self,
        period: SimDuration,
        f: impl FnMut(&mut ClusterSim) + Send + 'static,
    ) -> Self {
        assert!(period > SimDuration::ZERO, "zero sample period");
        self.sampler = Some((period, Box::new(f)));
        self
    }

    /// Register a communicator for jobs to share; returns its index.
    /// Sharing keeps connections (and their WQE history) alive across the
    /// iterations of a training run instead of re-establishing every time.
    ///
    /// Panics if the spray factor times the communicator's
    /// `conns_per_pair` overflows `u32`: a sprayed Send counts its chunks
    /// in a `u32`.
    pub fn add_comm(&mut self, comm: Communicator) -> usize {
        assert_spray_fits(self.spray, comm.config.conns_per_pair);
        self.comms.push(comm);
        self.comms.len() - 1
    }

    /// Add a job over a registered communicator; returns the job index.
    /// Launch it with [`Runner::launch_job`] or let [`Runner::run`] launch
    /// everything pending.
    pub fn add_job(&mut self, graph: OpGraph, comm: usize) -> usize {
        assert!(comm < self.comms.len(), "unknown communicator {comm}");
        let n = graph.len();
        let mut remaining = vec![0u32; n];
        let mut dependents = vec![Vec::new(); n];
        for (i, op) in graph.ops().iter().enumerate() {
            remaining[i] = op.deps.len() as u32;
            for &d in &op.deps {
                dependents[d as usize].push(i as u32);
            }
        }
        self.jobs.push(Job {
            comm,
            ops: Some(OpTables {
                graph,
                remaining,
                group: vec![NO_GROUP; n],
                dependents,
            }),
            outstanding: n,
            started: None,
            finished: None,
        });
        self.jobs.len() - 1
    }

    /// Launch a job's ready frontier now.
    pub fn launch_job(&mut self, cs: &mut ClusterSim, job: usize) {
        assert!(
            self.jobs[job].started.is_none(),
            "job {job} already launched"
        );
        let j = &mut self.jobs[job];
        j.started = Some(cs.now());
        if j.outstanding == 0 {
            j.finished = Some(cs.now());
            j.ops = None;
            return;
        }
        let ready: Vec<u32> = j
            .ops
            .as_ref()
            .expect("unfinished job keeps its ops")
            .remaining
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r == 0)
            .map(|(i, _)| i as u32)
            .collect();
        for op in ready {
            self.issue(cs, job as u32, op);
        }
    }

    /// Launch all unlaunched jobs, start the sampler, and run the cluster
    /// until `deadline` (or keep calling to continue).
    pub fn run(&mut self, cs: &mut ClusterSim, deadline: SimTime) {
        self.launch_pending(cs);
        cs.run(self, deadline);
    }

    fn launch_pending(&mut self, cs: &mut ClusterSim) {
        let pending: Vec<usize> = self
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.started.is_none())
            .map(|(i, _)| i)
            .collect();
        for j in pending {
            self.launch_job(cs, j);
        }
        if !self.sampler_armed {
            if let Some((period, _)) = &self.sampler {
                cs.set_timer(cs.now() + *period, SAMPLER_TAG);
                self.sampler_armed = true;
            }
        }
    }

    /// All jobs finished?
    pub fn all_done(&self) -> bool {
        self.jobs.iter().all(|j| j.finished.is_some())
    }

    /// A job's wall-clock duration, if finished.
    pub fn job_duration(&self, job: usize) -> Option<SimDuration> {
        let j = &self.jobs[job];
        match (j.started, j.finished) {
            (Some(s), Some(f)) => Some(f - s),
            _ => None,
        }
    }

    /// A job's finish instant, if finished.
    pub fn job_finished_at(&self, job: usize) -> Option<SimTime> {
        self.jobs[job].finished
    }

    /// Access a registered communicator (e.g. for the Fig 3 census).
    pub fn comm(&self, idx: usize) -> &Communicator {
        &self.comms[idx]
    }

    /// Run until the given job completes (or `deadline` passes, whichever
    /// is first); launches any unlaunched jobs first. Returns whether the
    /// job finished.
    pub fn run_job(&mut self, cs: &mut ClusterSim, job: usize, deadline: SimTime) -> bool {
        self.launch_pending(cs);
        cs.run_until(self, deadline, |r| r.jobs[job].finished.is_some())
    }

    fn issue(&mut self, cs: &mut ClusterSim, job: u32, op: u32) {
        let ops = self.jobs[job as usize].ops.as_ref();
        let kind = ops.expect("unfinished job keeps its ops").graph.ops()[op as usize].kind;
        let key = op_key(job, op);
        let comm = &mut self.comms[self.jobs[job as usize].comm];
        let mut group = NO_GROUP;
        let waits = match kind {
            OpKind::Send { src, dst, bits } if !comm.same_host(src, dst) => {
                group = comm.group_for(cs, src, dst);
                let (window, per) = spray_plan(cs, group, self.spray, bits);
                for _ in 0..window {
                    cs.send_group(group, per, key);
                }
                self.spray * window
            }
            OpKind::Send { bits, .. } | OpKind::Copy { bits, .. } => {
                cs.send_local(bits, key);
                1
            }
            OpKind::Compute { dur, .. } => {
                cs.set_timer(cs.now() + dur, key);
                1
            }
        };
        let t = self.jobs[job as usize].ops.as_mut();
        let t = t.expect("unfinished job keeps its ops");
        t.remaining[op as usize] = waits;
        t.group[op as usize] = group;
    }

    /// One message or compute timer of `key`'s op finished: count it off,
    /// post a sprayed Send's next chunk while the window still has chunks
    /// behind it, and finish the op at zero. Keys naming no live job are
    /// foreign or stale and ignored.
    fn complete(&mut self, cs: &mut ClusterSim, key: u64) {
        let (job, op) = ((key >> 32) as u32, key as u32);
        let Some(j) = self.jobs.get_mut(job as usize) else {
            return;
        };
        let Some(t) = j.ops.as_mut() else {
            return;
        };
        let left = count_off(&mut t.remaining[op as usize], job, op);
        if left == 0 {
            return self.op_done(cs, job, op);
        }
        if let OpKind::Send { bits, .. } = t.graph.ops()[op as usize].kind {
            // The group's policy consults the WQE counters *now*, so
            // congested connections receive fewer chunks (Algorithm 2).
            let g = t.group[op as usize];
            let (window, per) = spray_plan(cs, g, self.spray, bits);
            if left >= window {
                cs.send_group(g, per, key);
            }
        }
    }

    fn op_done(&mut self, cs: &mut ClusterSim, job: u32, op: u32) {
        let j = &mut self.jobs[job as usize];
        let t = j.ops.as_mut().expect("unfinished job keeps its ops");
        let mut unlocked: Vec<u32> = Vec::new();
        for &d in &t.dependents[op as usize] {
            if count_off(&mut t.remaining[d as usize], job, d) == 0 {
                unlocked.push(d);
            }
        }
        j.outstanding -= 1;
        if j.outstanding == 0 {
            // Every op is done: free the graph and its tables, keeping
            // only the job's timing.
            j.ops = None;
            j.finished = Some(cs.now());
            let dur_ns = j
                .started
                .map(|s| (cs.now() - s).as_nanos())
                .unwrap_or_default();
            cs.telemetry()
                .emit(|| hpn_telemetry::Event::CollectiveStep {
                    t_ns: cs.now().as_nanos(),
                    job,
                    dur_ns,
                });
        }
        for d in unlocked {
            self.issue(cs, job, d);
        }
    }
}

/// A sprayed Send posts `spray × window` chunks and counts them in a
/// `u32`. Its window is at most `conns_per_pair`, since a group holds at
/// most that many connections, so checking `spray × conns_per_pair` once
/// per communicator covers every Send.
fn assert_spray_fits(spray: u32, conns_per_pair: usize) {
    let chunks = u32::try_from(conns_per_pair)
        .ok()
        .and_then(|c| spray.checked_mul(c));
    assert!(
        chunks.is_some(),
        "spray factor {spray} × conns_per_pair {conns_per_pair} overflows u32"
    );
}

/// The window of a Send of `bits` sprayed over group `g` (one chunk in
/// flight per connection) and its chunk size (`spray × window` chunks).
fn spray_plan(cs: &ClusterSim, g: GroupId, spray: u32, bits: f64) -> (u32, f64) {
    let window = cs.group(g).conns.len().max(1) as u32;
    (window, bits / (spray * window) as f64)
}

/// Count one completion off `left`, what `job`'s op `op` still waits for,
/// and return the new count. A count already at zero means a completion
/// arrived for an op that needed no more: panic in every build, since a
/// wrapped counter would leave the op unfinished and its job running to
/// its deadline.
fn count_off(left: &mut u32, job: u32, op: u32) -> u32 {
    *left = left
        .checked_sub(1)
        .unwrap_or_else(|| panic!("job {job} op {op} got a completion it does not wait for"));
    *left
}

impl ClusterApp for Runner {
    fn on_message_complete(&mut self, cs: &mut ClusterSim, done: MessageDone) {
        self.complete(cs, done.user);
    }

    fn on_timer(&mut self, cs: &mut ClusterSim, tag: u64) {
        if tag == SAMPLER_TAG {
            if let Some((period, f)) = &mut self.sampler {
                f(cs);
                let next = cs.now() + *period;
                cs.set_timer(next, SAMPLER_TAG);
            }
            return;
        }
        self.complete(cs, tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommConfig;
    use crate::graph;
    use hpn_routing::HashMode;
    use hpn_topology::HpnConfig;
    use hpn_transport::PathPolicy;

    const GB: f64 = 8e9;

    fn sim() -> ClusterSim {
        ClusterSim::new(HpnConfig::tiny().build(), HashMode::Polarized)
    }

    fn rail0_comm(n: usize, cfg: CommConfig) -> Communicator {
        Communicator::new((0..n as u32).map(|h| (h, 0usize)).collect(), cfg, 49152)
    }

    #[test]
    fn ring_allreduce_completes_with_expected_time() {
        let mut cs = sim();
        let mut runner = Runner::new();
        // 4 hosts, rail 0, 1GB AllReduce, single path.
        let g = graph::ring_allreduce(4, GB, 2);
        let c = runner.add_comm(rail0_comm(4, CommConfig::single_path()));
        let job = runner.add_job(g, c);
        runner.run(&mut cs, SimTime::from_secs(60));
        assert!(runner.all_done());
        let dur = runner.job_duration(job).unwrap().as_secs_f64();
        // Each rank pushes 1.5GB = 12Gbit through its own 200G port,
        // sequentially over 2 rounds: 0.06s.
        assert!((dur - 0.06).abs() < 0.005, "duration {dur}");
    }

    #[test]
    fn granularity_does_not_change_symmetric_ring_time() {
        let mut times = Vec::new();
        for rounds in [1usize, 2, 8] {
            let mut cs = sim();
            let mut runner = Runner::new();
            let g = graph::ring_allreduce(4, GB, rounds);
            let c = runner.add_comm(rail0_comm(4, CommConfig::single_path()));
            let job = runner.add_job(g, c);
            runner.run(&mut cs, SimTime::from_secs(60));
            times.push(runner.job_duration(job).unwrap().as_secs_f64());
        }
        for w in times.windows(2) {
            assert!(
                (w[0] - w[1]).abs() / w[0] < 0.02,
                "granularity changed timing: {times:?}"
            );
        }
    }

    #[test]
    fn empty_graph_finishes_instantly() {
        let mut cs = sim();
        let mut runner = Runner::new();
        let c = runner.add_comm(rail0_comm(2, CommConfig::single_path()));
        let job = runner.add_job(OpGraph::new(), c);
        runner.run(&mut cs, SimTime::from_secs(1));
        assert_eq!(
            runner.job_duration(job),
            Some(SimDuration::ZERO),
            "no ops, no time"
        );
    }

    #[test]
    fn finished_jobs_drop_their_op_tables() {
        // Sessions add one job per iteration; a finished job must keep
        // only its timing, or memory grows with every iteration.
        let mut cs = sim();
        let mut runner = Runner::new();
        let c = runner.add_comm(rail0_comm(4, CommConfig::single_path()));
        for _ in 0..3 {
            let job = runner.add_job(graph::ring_allreduce(4, GB, 2), c);
            let deadline = cs.now() + SimDuration::from_secs(60);
            assert!(runner.run_job(&mut cs, job, deadline));
        }
        let empty = runner.add_job(OpGraph::new(), c);
        let now = cs.now();
        runner.run(&mut cs, now);
        assert!(runner.jobs.iter().all(|j| j.ops.is_none()));
        for job in 0..3 {
            assert!(runner.job_duration(job).unwrap() > SimDuration::ZERO);
        }
        assert_eq!(runner.job_duration(empty), Some(SimDuration::ZERO));
    }

    #[test]
    fn foreign_messages_and_stale_keys_pass_the_runner_by() {
        let run = |foreign: bool| {
            let mut cs = sim();
            let mut runner = Runner::new();
            let c = runner.add_comm(rail0_comm(4, CommConfig::single_path()));
            let job = runner.add_job(graph::ring_allreduce(4, GB, 2), c);
            runner.launch_job(&mut cs, job);
            if foreign {
                // Storage-style traffic on a group the runner never saw.
                let g = cs.establish_group((0, 1), (1, 1), 2, PathPolicy::LeastWqe, 1000);
                for _ in 0..3 {
                    cs.send_group(g, GB, u64::MAX);
                }
            }
            assert!(runner.run_job(&mut cs, job, SimTime::from_secs(60)));
            let deadline = cs.now() + SimDuration::from_secs(1);
            runner.run(&mut cs, deadline);
            (cs, runner, job)
        };
        let (solo, _, _) = run(false);
        let (mut cs, mut runner, job) = run(true);
        assert_eq!(cs.stats().completed, solo.stats().completed + 3);
        // Keys naming a finished job or no job at all are ignored.
        let dur = runner.job_duration(job);
        cs.send_local(GB, op_key(job as u32, 0));
        cs.send_local(GB, op_key(7, 0));
        cs.set_timer(cs.now(), op_key(job as u32, 1));
        let deadline = cs.now() + SimDuration::from_secs(1);
        runner.run(&mut cs, deadline);
        assert_eq!(cs.stats().completed, solo.stats().completed + 5);
        assert_eq!(runner.job_duration(job), dur);
    }

    #[test]
    #[should_panic(expected = "spray factor 2147483648 × conns_per_pair 2 overflows u32")]
    fn a_communicator_whose_spray_overflows_u32_is_refused() {
        let cfg = CommConfig {
            conns_per_pair: 2,
            ..CommConfig::hpn_default()
        };
        let mut runner = Runner::new().with_spray(1 << 31);
        runner.add_comm(rail0_comm(2, cfg));
    }

    #[test]
    #[should_panic(expected = "spray factor 1073741824 × conns_per_pair 4 overflows u32")]
    fn a_spray_set_after_add_comm_is_checked_too() {
        let mut runner = Runner::new();
        runner.add_comm(rail0_comm(2, CommConfig::hpn_default()));
        let _ = runner.with_spray(1 << 30);
    }

    #[test]
    fn a_sprayed_send_keeps_one_chunk_per_connection_in_flight() {
        use std::sync::{Arc, Mutex};
        let peak = Arc::new(Mutex::new(0usize));
        let p2 = peak.clone();
        let mut cs = sim();
        let sample = move |cs: &mut ClusterSim| {
            let mut p = p2.lock().unwrap();
            *p = (*p).max(cs.inflight());
        };
        let mut runner = Runner::new()
            .with_spray(3)
            .with_sampler(SimDuration::from_micros(50), sample);
        let comm = Communicator::new(vec![(0, 0), (1, 0)], CommConfig::hpn_default(), 49152);
        let c = runner.add_comm(comm);
        let mut g = OpGraph::new();
        g.add(
            OpKind::Send {
                src: 0,
                dst: 1,
                bits: GB,
            },
            vec![],
        );
        let job = runner.add_job(g, c);
        assert!(runner.run_job(&mut cs, job, SimTime::from_secs(10)));
        let w = runner.comm(c).established_connections(&cs);
        assert_eq!(w, 2, "same ToR pair: one connection per plane");
        assert_eq!(cs.stats().completed, 3 * w as u64, "spray × window chunks");
        assert_eq!(cs.inflight(), 0, "no chunk outlives its op");
        assert_eq!(*peak.lock().unwrap(), w, "the window never overfills");
    }

    #[test]
    #[should_panic(expected = "job 0 op 0 got a completion it does not wait for")]
    fn a_second_completion_of_an_op_panics() {
        let mut cs = sim();
        let mut g = OpGraph::new();
        let dur = SimDuration::from_millis(10);
        let a = g.add(OpKind::Compute { rank: 0, dur }, vec![]);
        // A dependent keeps the job live after `a` finishes.
        g.add(OpKind::Compute { rank: 0, dur }, vec![a]);
        let mut runner = Runner::new();
        let c = runner.add_comm(rail0_comm(2, CommConfig::single_path()));
        let job = runner.add_job(g, c) as u32;
        runner.launch_job(&mut cs, job as usize);
        runner.on_timer(&mut cs, op_key(job, a));
        runner.on_timer(&mut cs, op_key(job, a));
    }

    #[test]
    fn compute_ops_take_their_duration() {
        let mut cs = sim();
        let mut g = OpGraph::new();
        let a = g.add(
            OpKind::Compute {
                rank: 0,
                dur: SimDuration::from_millis(30),
            },
            vec![],
        );
        g.add(
            OpKind::Compute {
                rank: 0,
                dur: SimDuration::from_millis(20),
            },
            vec![a],
        );
        let mut runner = Runner::new();
        let c = runner.add_comm(rail0_comm(2, CommConfig::single_path()));
        let job = runner.add_job(g, c);
        runner.run(&mut cs, SimTime::from_secs(1));
        let dur = runner.job_duration(job).unwrap().as_secs_f64();
        assert!((dur - 0.05).abs() < 1e-9, "dur {dur}");
    }

    #[test]
    fn hierarchical_allreduce_runs_end_to_end() {
        let mut cs = sim();
        // tiny fabric: 2 rails. 4 hosts × 2 rails = 8 ranks host-major.
        let ranks: Vec<(u32, usize)> = (0..4u32)
            .flat_map(|h| (0..2usize).map(move |r| (h, r)))
            .collect();
        let comm = Communicator::new(ranks, CommConfig::hpn_default(), 49152);
        let g = graph::hierarchical_allreduce(4, 2, GB, true, 2);
        let mut runner = Runner::new();
        let c = runner.add_comm(comm);
        let job = runner.add_job(g, c);
        runner.run(&mut cs, SimTime::from_secs(60));
        assert!(runner.all_done());
        assert!(runner.job_duration(job).unwrap() > SimDuration::ZERO);
    }

    #[test]
    fn concurrent_jobs_contend_for_bandwidth() {
        // Two identical jobs on the same rank set should take roughly twice
        // as long as one (they share every port).
        let solo = {
            let mut cs = sim();
            let mut runner = Runner::new();
            let c = runner.add_comm(rail0_comm(4, CommConfig::single_path()));
            let job = runner.add_job(graph::ring_allreduce(4, GB, 1), c);
            runner.run(&mut cs, SimTime::from_secs(60));
            runner.job_duration(job).unwrap().as_secs_f64()
        };
        let duo = {
            let mut cs = sim();
            let mut runner = Runner::new();
            let ca = runner.add_comm(rail0_comm(4, CommConfig::single_path()));
            let cb = runner.add_comm(rail0_comm(4, CommConfig::single_path()));
            let a = runner.add_job(graph::ring_allreduce(4, GB, 1), ca);
            let b = runner.add_job(graph::ring_allreduce(4, GB, 1), cb);
            runner.run(&mut cs, SimTime::from_secs(60));
            runner
                .job_duration(a)
                .unwrap()
                .as_secs_f64()
                .max(runner.job_duration(b).unwrap().as_secs_f64())
        };
        assert!(
            duo > solo * 1.7,
            "two jobs on shared ports should slow down: solo {solo}, duo {duo}"
        );
    }

    #[test]
    fn multipath_beats_single_path_under_self_contention() {
        // 2 concurrent AllReduce jobs over the same hosts crossing
        // segments: LeastWqe over disjoint paths should not be slower than
        // single-path.
        let run_with = |cfg: CommConfig| {
            let mut cs = ClusterSim::new(HpnConfig::medium().build(), HashMode::Polarized);
            let mut runner = Runner::new();
            // Hosts 0 and 16 are in different segments of medium config.
            let ranks = vec![(0u32, 0usize), (16, 0), (1, 0), (17, 0)];
            let mut jobs = Vec::new();
            for j in 0..2 {
                let comm = Communicator::new(ranks.clone(), cfg, 40000 + j * 997);
                let c = runner.add_comm(comm);
                jobs.push(runner.add_job(graph::ring_allreduce(4, GB, 1), c));
            }
            runner.run(&mut cs, SimTime::from_secs(120));
            jobs.iter()
                .map(|&j| runner.job_duration(j).unwrap().as_secs_f64())
                .fold(0.0, f64::max)
        };
        let single = run_with(CommConfig::single_path());
        let multi = run_with(CommConfig::hpn_default());
        assert!(
            multi <= single * 1.05,
            "multipath {multi} should not lose to single {single}"
        );
    }

    #[test]
    fn least_wqe_outruns_round_robin_on_asymmetric_paths() {
        // Degrade one plane's trunks; the pipelined spray (Algorithm 2)
        // should shift chunks onto the healthy plane, while round-robin
        // keeps feeding the slow one.
        let run_with = |policy: PathPolicy| {
            let mut cs = ClusterSim::new(HpnConfig::medium().build(), HashMode::Polarized);
            // Halve... no: quarter the capacity of every plane-0 trunk.
            for &t in &cs.fabric.tors.clone() {
                let plane0 = matches!(
                    cs.fabric.net.kind(t),
                    hpn_topology::NodeKind::Tor { plane: 0, .. }
                );
                if plane0 {
                    for l in cs.fabric.tor_uplinks(t) {
                        cs.net.set_link_capacity(l.flow_link(), 50e9);
                    }
                }
            }
            let mut runner = Runner::new();
            // Cross-segment pair so the trunks are on the path.
            let dst = cs.fabric.segment_hosts(1)[0].id;
            let comm = Communicator::new(
                vec![(0, 0), (dst, 0)],
                CommConfig {
                    conns_per_pair: 4,
                    policy,
                },
                49152,
            );
            let c = runner.add_comm(comm);
            let mut g = OpGraph::new();
            g.add(
                OpKind::Send {
                    src: 0,
                    dst: 1,
                    bits: 32.0 * GB,
                },
                vec![],
            );
            let job = runner.add_job(g, c);
            assert!(runner.run_job(&mut cs, job, SimTime::from_secs(600)));
            runner.job_duration(job).unwrap().as_secs_f64()
        };
        let rr = run_with(PathPolicy::RoundRobin);
        let lw = run_with(PathPolicy::LeastWqe);
        assert!(
            lw < rr * 0.8,
            "least-WQE ({lw}s) should clearly beat round-robin ({rr}s) with a degraded plane"
        );
    }

    #[test]
    fn sampler_fires_periodically() {
        use std::sync::{Arc, Mutex};
        let count = Arc::new(Mutex::new(0u32));
        let c2 = count.clone();
        let mut cs = sim();
        let mut runner = Runner::new().with_sampler(SimDuration::from_millis(100), move |_| {
            *c2.lock().unwrap() += 1;
        });
        let c = runner.add_comm(rail0_comm(4, CommConfig::single_path()));
        let _ = runner.add_job(graph::ring_allreduce(4, 10.0 * GB, 1), c);
        runner.run(&mut cs, SimTime::from_secs(1));
        // ~10 samples in one second.
        let n = *count.lock().unwrap();
        assert!((9..=11).contains(&n), "sampled {n} times");
    }
}
