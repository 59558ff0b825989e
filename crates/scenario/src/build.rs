//! Scenario → simulator wiring with cross-layer validation.
//!
//! [`Scenario::build`] is the single choke point between the declarative
//! spec and the runtime: it builds the fabric, checks the workload against
//! the fabric's actual inventory (not just against itself), resolves fault
//! targets to concrete cables, and hands back a [`Session`] ready to run.
//! Everything that used to be a scattered `unwrap`/`assert` in experiment
//! code surfaces here as a [`ScenarioError`] naming the offending field.

use std::sync::Arc;

use hpn_collectives::graph::OpGraph;
use hpn_collectives::CommConfig;
use hpn_core::{placement, JobStats, ServingLoad, WorkloadSession};
use hpn_faults::{FaultEvent, FaultKind, FaultRates};
use hpn_routing::router::Router;
use hpn_sim::{SimDuration, SimTime, Xoshiro256};
use hpn_telemetry::SimCtx;
use hpn_topology::{try_build_rail_only, try_fat_tree, Fabric};
use hpn_transport::ClusterSim;
use hpn_workload::{inference, jobs, schedule, trace, ModelSpec, ParallelismPlan, TrainingJob};

use crate::error::ScenarioError;
use crate::spec::{
    FaultsSpec, ModelId, PlacementSpec, Scenario, TopologySpec, WorkloadKind, WorkloadSpec,
};

/// Repair delay standing in for "never repaired" (~31 simulated years —
/// far past any experiment horizon).
const NEVER: f64 = 1e9;

/// Kind-specific artifacts a built workload carries.
#[derive(Clone, Debug)]
enum BuiltKind {
    /// Plain training (optionally with MoE all-to-all layers).
    Training {
        moe: Option<hpn_workload::MoeConfig>,
    },
    /// A compiled application trace plus its rank→(host, rail) map.
    Trace {
        graph: OpGraph,
        ranks: Vec<(u32, usize)>,
    },
    /// Serving load and the frontend-first serving host list.
    Inference {
        load: ServingLoad,
        serving: Vec<u32>,
        superimpose: bool,
    },
    /// Per-sampled-job stats and host assignments (empty = skipped).
    MultiJob { entries: Vec<(JobStats, Vec<u32>)> },
}

/// A validated, placed workload, ready to instantiate sessions.
#[derive(Clone, Debug)]
pub struct BuiltWorkload {
    /// Model with any `gpu_secs_per_sample` override applied.
    pub model: ModelSpec,
    /// TP×PP×DP plan (TP = the fabric's rails; placeholder for kinds
    /// without a single training job).
    pub plan: ParallelismPlan,
    /// Host placement, validated against the fabric (for `multi-job`, the
    /// union of all placed jobs' hosts).
    pub hosts: Vec<u32>,
    /// Global batch size (for `multi-job`, batch per host of each job).
    pub global_batch: usize,
    /// Iterations a `scenario run` executes (plus one warm-up).
    pub iterations: usize,
    kind: BuiltKind,
    spray: Option<u32>,
    min_timeout_secs: Option<f64>,
    timeout_factor: Option<f64>,
}

impl BuiltWorkload {
    /// The workload kind's `[workload] kind` name.
    pub fn kind_name(&self) -> &'static str {
        match &self.kind {
            BuiltKind::Training { moe: None } => "training",
            BuiltKind::Training { moe: Some(_) } => "moe",
            BuiltKind::Trace { .. } => "trace",
            BuiltKind::Inference { .. } => "inference",
            BuiltKind::MultiJob { .. } => "multi-job",
        }
    }

    /// One-line workload description for run reports. The plain-training
    /// form is byte-stable — golden manifests pin it.
    pub fn describe(&self) -> String {
        let training = format!(
            "{} — tp{}×pp{}×dp{}, batch {}, {} host(s), {} iteration(s)",
            self.model.name,
            self.plan.tp,
            self.plan.pp,
            self.plan.dp,
            self.global_batch,
            self.hosts.len(),
            self.iterations
        );
        match &self.kind {
            BuiltKind::Training { moe: None } => training,
            BuiltKind::Training { moe: Some(m) } => format!(
                "{training}, MoE all-to-all: {} layer(s) × {} expert(s), {:.0} B/expert",
                m.layers, m.experts, m.expert_bytes
            ),
            BuiltKind::Trace { graph, ranks } => format!(
                "trace replay — {} op(s) over {} rank(s), {} host(s), {} iteration(s)",
                graph.len(),
                ranks.len(),
                self.hosts.len(),
                self.iterations
            ),
            BuiltKind::Inference {
                load,
                serving,
                superimpose,
            } => {
                let base = format!(
                    "{} serving — {:.0} req/s over {} replica(s), {:.0} ms window",
                    self.model.name,
                    load.requests_per_sec,
                    serving.len().saturating_sub(1),
                    load.window.as_secs_f64() * 1e3
                );
                if *superimpose {
                    format!(
                        "{base}, superimposed on training (pp{}×dp{}, batch {})",
                        self.plan.pp, self.plan.dp, self.global_batch
                    )
                } else {
                    base
                }
            }
            BuiltKind::MultiJob { entries } => {
                let placed = entries.iter().filter(|(_, h)| !h.is_empty()).count();
                format!(
                    "multi-job — {placed}/{} sampled job(s) placed, {} host(s), {} iteration(s)",
                    entries.len(),
                    self.hosts.len(),
                    self.iterations
                )
            }
        }
    }

    /// Instantiate a fresh [`WorkloadSession`] for this workload with the
    /// scenario's overrides applied. Sessions hold per-run communicator
    /// state, so each run gets its own.
    pub fn session(&self) -> WorkloadSession {
        let mut session = match &self.kind {
            BuiltKind::Training { moe } => {
                let mut job = TrainingJob::new(
                    self.model.clone(),
                    self.plan,
                    self.hosts.clone(),
                    self.plan.tp,
                    self.global_batch,
                );
                if let Some(m) = moe {
                    job = job.with_moe(*m);
                }
                WorkloadSession::training(job, CommConfig::hpn_default())
            }
            BuiltKind::Trace { graph, ranks } => {
                WorkloadSession::replay(graph.clone(), ranks.clone(), CommConfig::hpn_default())
            }
            BuiltKind::Inference {
                load,
                serving,
                superimpose,
            } => {
                let training = superimpose.then(|| {
                    TrainingJob::new(
                        self.model.clone(),
                        self.plan,
                        self.hosts.clone(),
                        self.plan.tp,
                        self.global_batch,
                    )
                });
                WorkloadSession::serving(
                    serving.clone(),
                    *load,
                    training,
                    CommConfig::hpn_default(),
                )
            }
            BuiltKind::MultiJob { entries } => {
                let entries = entries
                    .iter()
                    .map(|(stat, hosts)| {
                        let job = if hosts.is_empty() {
                            None
                        } else {
                            let plan = ParallelismPlan::new(self.plan.tp, 1, hosts.len());
                            Some(TrainingJob::new(
                                self.model.clone(),
                                plan,
                                hosts.clone(),
                                self.plan.tp,
                                self.global_batch * hosts.len(),
                            ))
                        };
                        (*stat, job)
                    })
                    .collect();
                WorkloadSession::multi_job(entries, CommConfig::hpn_default())
            }
        };
        if let Some(s) = self.spray {
            session = session.with_spray(s);
        }
        if let Some(m) = self.min_timeout_secs {
            session.min_timeout = SimDuration::from_secs_f64(m);
        }
        if let Some(f) = self.timeout_factor {
            session.timeout_factor = f;
        }
        session
    }
}

/// A built scenario: cluster runtime plus validated workload and faults.
pub struct Session {
    /// The cluster simulator (fabric + routing already wired).
    pub cluster: ClusterSim,
    /// The training workload, when the scenario declares one.
    pub workload: Option<BuiltWorkload>,
    /// The fault schedule (explicit injections merged with any sampled
    /// Poisson schedule), sorted by time; arm it with
    /// [`hpn_faults::schedule`] before driving the cluster.
    pub faults: Vec<FaultEvent>,
}

impl TopologySpec {
    /// Build just the fabric this spec describes (no routing, workload or
    /// fault wiring) — what fault-planning and inventory experiments need.
    pub fn try_build(&self) -> Result<Fabric, ScenarioError> {
        match self {
            TopologySpec::Hpn(cfg) => Ok(cfg.try_build()?),
            TopologySpec::DcnPlus(cfg) => Ok(cfg.try_build()?),
            TopologySpec::RailOnly(cfg) => Ok(try_build_rail_only(cfg)?),
            TopologySpec::FatTree {
                k,
                link_bps,
                buffer_bits,
            } => Ok(try_fat_tree(*k, *link_bps, *buffer_bits)?),
        }
    }
}

/// The §8 serving profile behind a catalog model.
fn serving_profile(model: ModelId) -> inference::ServingProfile {
    let name = match model {
        ModelId::Llama7b => "LLaMa-7B",
        ModelId::Llama13b => "LLaMa-13B",
        ModelId::Gpt3_175b => "GPT-3 175B",
    };
    inference::ServingProfile::catalog()
        .into_iter()
        .find(|p| p.name == name)
        .expect("catalog covers every ModelId")
}

/// Training-shaped placement: pp×dp hosts laid out per the policy.
fn place_training(
    fabric: &Fabric,
    w: &WorkloadSpec,
    plan: &ParallelismPlan,
) -> Result<Vec<u32>, ScenarioError> {
    let want = w.pp * w.dp;
    let have = fabric.hosts.iter().filter(|h| !h.backup).count();
    if want > have {
        return Err(ScenarioError::field(
            "workload",
            format!(
                "pp×dp = {}×{} needs {want} hosts, fabric has {have} active",
                w.pp, w.dp
            ),
        ));
    }
    Ok(match w.placement {
        PlacementSpec::SegmentFirst => placement::place_segment_first(fabric, want)?,
        PlacementSpec::InterleaveSegments => placement::place_interleaved_segments(fabric, plan)?,
        PlacementSpec::CrossPodPp => placement::place_cross_pod_pp(fabric, plan)?,
        PlacementSpec::AlternatePods => placement::place_alternating_pods(fabric, plan)?,
    })
}

fn build_workload(fabric: &Fabric, w: &WorkloadSpec) -> Result<BuiltWorkload, ScenarioError> {
    let rails = fabric.host_params.rails;
    let plan = ParallelismPlan::new(rails, w.pp, w.dp);
    let have = fabric.hosts.iter().filter(|h| !h.backup).count();
    let (kind, hosts) = match &w.kind {
        WorkloadKind::Training => (
            BuiltKind::Training { moe: None },
            place_training(fabric, w, &plan)?,
        ),
        WorkloadKind::Moe(m) => (
            BuiltKind::Training {
                moe: Some(hpn_workload::MoeConfig {
                    layers: m.layers,
                    experts: m.experts,
                    expert_bytes: m.expert_bytes,
                }),
            },
            place_training(fabric, w, &plan)?,
        ),
        WorkloadKind::Trace(tr) => {
            let trace = trace::parse(&tr.ops.join("\n")).map_err(|e| {
                ScenarioError::field("workload.ops", format!("trace line {}: {}", e.line, e.msg))
            })?;
            let want = trace::hosts_needed(&trace, rails);
            if want > have {
                return Err(ScenarioError::field(
                    "workload.ops",
                    format!(
                        "trace has {} ranks = {want} hosts at {rails} rails, \
                         fabric has {have} active",
                        trace.ranks
                    ),
                ));
            }
            let hosts = placement::place_segment_first(fabric, want)?;
            let ranks = (0..trace.ranks as usize)
                .map(|r| (hosts[r / rails], r % rails))
                .collect();
            let graph = trace::compile(&trace);
            (BuiltKind::Trace { graph, ranks }, hosts)
        }
        WorkloadKind::Inference(inf) => {
            let profile = serving_profile(w.model);
            let load = ServingLoad {
                requests_per_sec: inf.requests_per_sec.unwrap_or(profile.requests_per_sec),
                request_bytes: profile.request_bytes,
                response_bytes: profile.response_bytes,
                window: SimDuration::from_secs_f64(inf.duration_secs),
            };
            if inf.superimpose {
                let hosts = place_training(fabric, w, &plan)?;
                if hosts.len() < inf.serving_hosts + 1 {
                    return Err(ScenarioError::field(
                        "workload.serving_hosts",
                        format!(
                            "superimposed serving needs serving_hosts+1 = {} of the training \
                             job's pp×dp = {} hosts",
                            inf.serving_hosts + 1,
                            hosts.len()
                        ),
                    ));
                }
                let serving = hosts[..=inf.serving_hosts].to_vec();
                (
                    BuiltKind::Inference {
                        load,
                        serving,
                        superimpose: true,
                    },
                    hosts,
                )
            } else {
                let want = inf.serving_hosts + 1;
                if want > have {
                    return Err(ScenarioError::field(
                        "workload.serving_hosts",
                        format!(
                            "serving needs {want} hosts (frontend + {}), \
                             fabric has {have} active",
                            inf.serving_hosts
                        ),
                    ));
                }
                let hosts = placement::place_segment_first(fabric, want)?;
                (
                    BuiltKind::Inference {
                        load,
                        serving: hosts.clone(),
                        superimpose: false,
                    },
                    hosts,
                )
            }
        }
        WorkloadKind::MultiJob(mj) => {
            let mut rng = Xoshiro256::seed_from_u64(mj.seed);
            let sizes: Vec<u32> = (0..mj.jobs).map(|_| jobs::sample(&mut rng)).collect();
            // A sampled job's GPUs map to whole hosts of this fabric.
            let wants: Vec<usize> = sizes
                .iter()
                .map(|&g| (g as usize).div_ceil(rails.max(1)).max(1))
                .collect();
            let placements = schedule::first_fit_by_segment(fabric, &wants);
            let mut entries = Vec::with_capacity(sizes.len());
            let mut all_hosts = Vec::new();
            for (i, p) in placements.into_iter().enumerate() {
                let hosts = p.hosts.unwrap_or_default();
                entries.push((
                    JobStats {
                        gpus: sizes[i],
                        hosts: hosts.len(),
                        segments: p.segments,
                        solo_secs: None,
                        concurrent_secs: None,
                    },
                    hosts.clone(),
                ));
                all_hosts.extend(hosts);
            }
            (BuiltKind::MultiJob { entries }, all_hosts)
        }
    };
    let mut model = w.model.to_spec();
    if let Some(g) = w.gpu_secs_per_sample {
        if !(g > 0.0 && g.is_finite()) {
            return Err(ScenarioError::field(
                "workload.gpu_secs_per_sample",
                format!("must be a positive number, got {g}"),
            ));
        }
        model.gpu_secs_per_sample = g;
    }
    if let Some(f) = w.timeout_factor {
        if !(f > 0.0 && f.is_finite()) {
            return Err(ScenarioError::field(
                "workload.timeout_factor",
                format!("must be a positive number, got {f}"),
            ));
        }
    }
    if let Some(m) = w.min_timeout_secs {
        if !(m >= 0.0 && m.is_finite()) {
            return Err(ScenarioError::field(
                "workload.min_timeout_secs",
                format!("must be a non-negative number, got {m}"),
            ));
        }
    }
    if let Some(s) = w.spray {
        if s == 0 {
            return Err(ScenarioError::field("workload.spray", "must be at least 1"));
        }
        // A Send is cut into spray × group-size chunks, counted in u32.
        let conns = CommConfig::hpn_default().conns_per_pair as u32;
        if s.checked_mul(conns).is_none() {
            return Err(ScenarioError::field(
                "workload.spray",
                format!("must be at most {}, got {s}", u32::MAX / conns),
            ));
        }
    }
    if w.iterations == 0 {
        return Err(ScenarioError::field(
            "workload.iterations",
            "must be at least 1",
        ));
    }
    Ok(BuiltWorkload {
        model,
        plan,
        hosts,
        global_batch: w.global_batch,
        iterations: w.iterations,
        kind,
        spray: w.spray,
        min_timeout_secs: w.min_timeout_secs,
        timeout_factor: w.timeout_factor,
    })
}

fn build_faults(fabric: &Fabric, f: &FaultsSpec) -> Result<Vec<FaultEvent>, ScenarioError> {
    let mut events: Vec<FaultEvent> = Vec::new();
    if let Some((horizon, seed)) = f.poisson {
        if !(horizon > 0.0 && horizon.is_finite()) {
            return Err(ScenarioError::field(
                "faults.horizon_secs",
                format!("must be a positive number, got {horizon}"),
            ));
        }
        events = hpn_faults::plan(
            fabric,
            &FaultRates::paper(),
            SimDuration::from_secs_f64(horizon),
            seed,
        );
    }
    for (i, inj) in f.injections.iter().enumerate() {
        let field = |k: &str| format!("faults.inject[{i}].{k}");
        let host = fabric.hosts.get(inj.host as usize).ok_or_else(|| {
            ScenarioError::field(
                field("host"),
                format!(
                    "host {} does not exist (fabric has {} hosts)",
                    inj.host,
                    fabric.hosts.len()
                ),
            )
        })?;
        if inj.rail >= host.nic_up.len() {
            return Err(ScenarioError::field(
                field("rail"),
                format!(
                    "rail {} does not exist (host has {} NICs)",
                    inj.rail,
                    host.nic_up.len()
                ),
            ));
        }
        if inj.port >= 2 {
            return Err(ScenarioError::field(
                field("port"),
                format!("port {} does not exist (NICs have ports 0 and 1)", inj.port),
            ));
        }
        let link = host.nic_up[inj.rail][inj.port].ok_or_else(|| {
            ScenarioError::field(
                field("port"),
                format!(
                    "host {} rail {} has no cable on port {} in this fabric",
                    inj.host, inj.rail, inj.port
                ),
            )
        })?;
        if !(inj.at_secs >= 0.0 && inj.at_secs.is_finite()) {
            return Err(ScenarioError::field(
                field("at_secs"),
                format!("must be a non-negative number, got {}", inj.at_secs),
            ));
        }
        let repair_after = match inj.repair_secs {
            None => NEVER,
            Some(r) if r > 0.0 && r.is_finite() => r,
            Some(r) => {
                return Err(ScenarioError::field(
                    field("repair_secs"),
                    format!("must be a positive number, got {r}"),
                ));
            }
        };
        events.push(FaultEvent {
            at: SimTime::from_secs_f64(inj.at_secs),
            kind: FaultKind::LinkFailure {
                link,
                repair_after: SimDuration::from_secs_f64(repair_after),
            },
        });
    }
    // Poisson output is already sorted; a stable sort keeps injections in
    // declaration order at equal times.
    events.sort_by_key(|e| e.at);
    Ok(events)
}

impl Scenario {
    /// Build the scenario into a runnable [`Session`], or explain exactly
    /// which field makes it unbuildable. Uses the inert default context
    /// (no telemetry, incremental allocator); runs that record events
    /// or pin an allocator use [`Scenario::build_with`].
    pub fn build(&self) -> Result<Session, ScenarioError> {
        self.build_with(&SimCtx::default())
    }

    /// Build the scenario into a runnable [`Session`] under an explicit
    /// session context: the cluster runtime records into the context's
    /// recorder and runs its rate allocator. The resulting session is
    /// `Send`, so the experiment runner builds one per sweep cell and
    /// ships it to a worker thread.
    ///
    /// Composed from the three cacheable phases —
    /// [`build_topology`](Scenario::build_topology) →
    /// [`build_routing`](Scenario::build_routing) →
    /// [`attach_workload`](Scenario::attach_workload) — so a cold build
    /// and a cache-warm [`build_cached`](Scenario::build_cached) run the
    /// exact same construction code.
    pub fn build_with(&self, ctx: &SimCtx) -> Result<Session, ScenarioError> {
        let fabric = self.build_topology()?;
        let router = self.build_routing(&fabric);
        self.attach_workload(fabric, router, ctx)
    }

    /// Phase 1 of the build: the fabric wiring this scenario's
    /// `[topology]` section describes, `Arc`-shared so an artifact cache
    /// can hand the same built fabric to many sessions. Deterministic in
    /// the section alone — two scenarios with byte-equal canonical
    /// `[topology]` sections build interchangeable fabrics.
    pub fn build_topology(&self) -> Result<Arc<Fabric>, ScenarioError> {
        Ok(Arc::new(self.topology.try_build()?))
    }

    /// Phase 2 of the build: routing tables over a built fabric, plus the
    /// `[routing]` section's hash-mode selection. Pure in (fabric,
    /// section), so it is cacheable under the two sections combined.
    pub fn build_routing(&self, fabric: &Fabric) -> Arc<Router> {
        Arc::new(Router::new(fabric, self.routing.hash))
    }

    /// Phase 3 of the build: validate the `[workload]` and `[faults]`
    /// sections against the (possibly cache-shared) fabric, then wire the
    /// cluster runtime around the pre-built parts. Validation runs
    /// *before* the runtime is constructed, so an unbuildable scenario
    /// errors without emitting a `SimStart` marker — exactly as the
    /// monolithic `build_with` always behaved.
    pub fn attach_workload(
        &self,
        fabric: Arc<Fabric>,
        router: Arc<Router>,
        ctx: &SimCtx,
    ) -> Result<Session, ScenarioError> {
        let workload = match &self.workload {
            None => None,
            Some(w) => Some(build_workload(&fabric, w)?),
        };
        let faults = match &self.faults {
            None => Vec::new(),
            Some(f) => build_faults(&fabric, f)?,
        };
        let cluster = ClusterSim::from_parts(fabric, router, ctx);
        Ok(Session {
            cluster,
            workload,
            faults,
        })
    }

    /// Validate without running: parse-level checks have passed if `self`
    /// exists; this performs the build-level (cross-layer) ones.
    pub fn check(&self) -> Result<(), ScenarioError> {
        self.build().map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Injection, ModelId, WorkloadSpec};
    use hpn_topology::HpnConfig;

    fn tiny() -> Scenario {
        Scenario::new("t", TopologySpec::Hpn(HpnConfig::tiny()))
    }

    #[test]
    fn builds_a_runnable_training_session() {
        let s = tiny().with_workload(WorkloadSpec::new(ModelId::Llama7b, 2, 2, 64).gpu_secs(0.1));
        let mut built = s.build().expect("valid scenario");
        let w = built.workload.take().expect("has workload");
        assert_eq!(w.hosts.len(), 4);
        let mut session = w.session();
        session.run_iterations(&mut built.cluster, 1);
        assert!(session.mean_throughput(0) > 0.0);
    }

    #[test]
    fn builds_and_runs_every_workload_kind() {
        use crate::spec::{InferenceSpec, MoeSpec, WorkloadKind};
        let trace_ops = vec![
            "ranks 2".to_string(),
            "compute c0 0 50".to_string(),
            "send s0 0 1 4096 after c0".to_string(),
            "recv r0 1 s0".to_string(),
        ];
        let kinds = [
            WorkloadSpec::new(ModelId::Llama7b, 2, 2, 64)
                .gpu_secs(0.01)
                .with_moe(MoeSpec::default()),
            WorkloadSpec::trace(trace_ops),
            WorkloadSpec::inference(ModelId::Llama7b, 1, 0.01),
            WorkloadSpec {
                kind: WorkloadKind::Inference(InferenceSpec {
                    serving_hosts: 1,
                    duration_secs: 0.01,
                    requests_per_sec: Some(200.0),
                    superimpose: true,
                }),
                ..WorkloadSpec::new(ModelId::Llama7b, 2, 2, 64).gpu_secs(0.001)
            },
            WorkloadSpec::multi_job(ModelId::Llama7b, 2, 1, 8).gpu_secs(0.001),
        ];
        for w in kinds {
            let kind_name = w.kind.name();
            let s = tiny().with_workload(w);
            let mut built = s.build().unwrap_or_else(|e| panic!("{kind_name}: {e}"));
            let bw = built.workload.take().expect("has workload");
            assert_ne!(bw.kind_name(), "training", "{kind_name}");
            let mut session = bw.session();
            let rec = session.run_iteration(&mut built.cluster);
            assert!(
                matches!(rec.outcome, hpn_core::IterationOutcome::Completed { .. }),
                "{kind_name} iteration completes"
            );
            assert!(rec.samples_per_sec.is_finite() && rec.samples_per_sec >= 0.0);
        }
    }

    #[test]
    fn multi_job_reports_placement_and_interference() {
        let s = tiny()
            .with_workload(WorkloadSpec::multi_job(ModelId::Llama7b, 3, 2, 8).gpu_secs(0.001));
        let mut built = s.build().expect("valid");
        let bw = built.workload.take().unwrap();
        let mut session = bw.session();
        session.run_iteration(&mut built.cluster);
        session.run_iteration(&mut built.cluster);
        let stats = session.job_stats().expect("multi-job session");
        assert_eq!(stats.len(), 3, "every sampled job gets stats");
        for st in stats {
            assert!(st.gpus >= 8);
            if st.placed() {
                assert!(st.segments >= 1);
                assert!(st.solo_secs.unwrap() > 0.0);
                assert!(st.concurrent_secs.unwrap() > 0.0);
            }
        }
        assert!(
            stats.iter().any(|s| s.placed()),
            "the tiny fabric places at least one sampled job"
        );
    }

    #[test]
    fn oversized_trace_names_the_rank_inventory() {
        let mut ops = vec!["ranks 64".to_string()];
        ops.push("compute c0 63 10".to_string());
        let s = tiny().with_workload(WorkloadSpec::trace(ops));
        let err = s.build().map(|_| ()).unwrap_err();
        assert_eq!(err.field, "workload.ops");
        assert!(err.msg.contains("fabric has 8 active"), "{err}");
    }

    #[test]
    fn oversized_workload_names_the_inventory() {
        let s = tiny().with_workload(WorkloadSpec::new(ModelId::Llama7b, 4, 100, 64));
        let err = s.build().map(|_| ()).unwrap_err();
        assert_eq!(err.field, "workload");
        assert!(err.msg.contains("fabric has 8 active"), "{err}");
    }

    #[test]
    fn bad_topology_field_surfaces_through_build() {
        let mut cfg = HpnConfig::tiny();
        cfg.cores_per_plane = 0;
        let err = Scenario::new("t", TopologySpec::Hpn(cfg))
            .check()
            .unwrap_err();
        assert_eq!(err.field, "topology.cores_per_plane");
    }

    #[test]
    fn fault_targets_are_checked_against_the_fabric() {
        let inj = |host, rail, port| Injection {
            host,
            rail,
            port,
            at_secs: 1.0,
            repair_secs: None,
        };
        let with = |injection| {
            tiny().with_faults(FaultsSpec {
                poisson: None,
                injections: vec![injection],
            })
        };
        assert_eq!(
            with(inj(99, 0, 0)).check().unwrap_err().field,
            "faults.inject[0].host"
        );
        assert_eq!(
            with(inj(0, 64, 0)).check().unwrap_err().field,
            "faults.inject[0].rail"
        );
        assert_eq!(
            with(inj(0, 0, 5)).check().unwrap_err().field,
            "faults.inject[0].port"
        );
        let ok = with(inj(0, 0, 1)).build().expect("dual-ToR port 1 exists");
        assert_eq!(ok.faults.len(), 1);
    }

    #[test]
    fn session_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Session>();
    }

    #[test]
    fn build_with_threads_the_context_into_the_cluster() {
        use hpn_telemetry::{EventLog, SharedRecorder};
        let log = EventLog::new();
        let ctx = SimCtx::new()
            .with_recorder(SharedRecorder::new(Box::new(log.clone())))
            .with_allocator(hpn_sim::AllocatorKind::Dense);
        let session = tiny().build_with(&ctx).expect("valid scenario");
        assert_eq!(
            session.cluster.net.allocator_kind(),
            hpn_sim::AllocatorKind::Dense
        );
        assert_eq!(log.len(), 1, "SimStart marker through the ctx recorder");
        // The whole built session migrates to a worker thread.
        let links = std::thread::spawn(move || session.cluster.net.link_count())
            .join()
            .expect("worker");
        assert!(links > 0);
    }

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let s = |seed| {
            tiny()
                .with_faults(FaultsSpec {
                    poisson: Some((30.0 * 24.0 * 3600.0, seed)),
                    injections: vec![],
                })
                .build()
                .expect("valid")
                .faults
        };
        let a = s(7);
        let b = s(7);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.at == y.at));
        assert!(!a.is_empty(), "a month of paper rates faults something");
    }
}
