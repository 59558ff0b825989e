//! The invariant oracle battery.
//!
//! A scenario is checked at two levels:
//!
//! * **Churn level** — the fabric's links are mirrored into a pair of
//!   fluid networks (the `DenseMaxMin` reference vs the production
//!   `IncrementalMaxMin`) and driven in lockstep through a deterministic
//!   churn script of flow starts, kills, time advances and link
//!   fail/repair toggles derived from the fuzz seed. After every
//!   operation each network is audited for per-link capacity
//!   conservation and the max-min bottleneck condition, and the two
//!   traces must agree *bitwise*. Two metamorphic replays follow: scaling
//!   every capacity, demand and size by 2 must scale every rate by
//!   exactly 2, and appending idle links no flow touches must change
//!   nothing.
//! * **Session level** — the scenario is built into a full
//!   [`hpn_scenario::Session`] under an explicit [`SimCtx`] carrying a
//!   capturing telemetry recorder, its fault schedule replayed through
//!   cable events, its workload iterated.
//!   Iteration records must be time-monotonic with finite throughput, the
//!   telemetry stream must be sim-time monotonic per segment, flow
//!   add/remove events must balance against the surviving flow count, and
//!   the fluid net must end capacity-conserving.
//!
//! Every violation is reported as a [`Failure`] whose `invariant` name is
//! stable — the shrinker uses it to preserve the bug class while
//! minimizing.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use hpn_routing::{LinkHealth, RouteRequest, Router};
use hpn_scenario::{Scenario, Session};
use hpn_sim::{
    label_hash, split_seed, AllocatorKind, FlowHandle, FlowNet, FlowSpec,
    LinkDecompositionEstimator, LinkId, PathId, QuantileSketch, SimDuration, SimTime, StreamSeed,
    Xoshiro256,
};
use hpn_telemetry::{replay, Event, EventLog, Registry, SharedRecorder, SimCtx};
use hpn_topology::{Fabric, LinkIdx};
use hpn_transport::{ClusterApp, ClusterSim, MessageDone};

use crate::mutate::{MutantAlloc, Mutation};

/// A violated invariant: which oracle fired and what it saw.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Stable oracle name (shrinking preserves it).
    pub invariant: &'static str,
    /// Human-readable description of the violation.
    pub detail: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant `{}` violated: {}",
            self.invariant, self.detail
        )
    }
}

fn fail(invariant: &'static str, detail: String) -> Failure {
    Failure { invariant, detail }
}

/// Deterministic per-seed statistics of a passing check, for the fuzz
/// summary line.
#[derive(Clone, Copy, Debug)]
pub struct CheckStats {
    /// Active hosts in the fabric.
    pub hosts: usize,
    /// Fluid links in the fabric.
    pub links: usize,
    /// Routes the churn script drove flows over.
    pub routes: usize,
    /// Operations in the churn script.
    pub ops: usize,
    /// Flow starts in the churn script.
    pub flows: usize,
    /// Training iterations the session level ran.
    pub iters: usize,
    /// Telemetry events the session emitted.
    pub events: usize,
}

impl fmt::Display for CheckStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hosts={} links={} routes={} ops={} flows={} iters={} events={}",
            self.hosts, self.links, self.routes, self.ops, self.flows, self.iters, self.events
        )
    }
}

/// Run the full oracle battery on one scenario under one fuzz seed.
///
/// `mutation` wires a deliberate bug into the incremental allocator of the
/// churn-level twin networks — production callers pass
/// [`Mutation::None`].
pub fn check_scenario(sc: &Scenario, seed: u64, mutation: Mutation) -> Result<CheckStats, Failure> {
    let fabric = sc
        .topology
        .try_build()
        .map_err(|e| fail("scenario_build", e.to_string()))?;
    let ss = StreamSeed::new(split_seed(seed, label_hash("check")));

    let mut route_rng = ss.stream_named("routes");
    let routes = derive_routes(&fabric, sc.routing.hash, &mut route_rng);

    let mut ops = 0;
    let mut flows = 0;
    if !routes.is_empty() {
        let caps: Vec<(f64, f64)> = (0..fabric.net.link_count())
            .map(|i| {
                let l = fabric.net.link(LinkIdx(i as u32));
                (l.cap_bps, l.buffer_bits)
            })
            .collect();
        let mut used_links: Vec<LinkId> = Vec::new();
        let mut seen: BTreeSet<u32> = BTreeSet::new();
        for r in &routes {
            for &l in r {
                if seen.insert(l.0) {
                    used_links.push(l);
                }
            }
        }

        let mut script_rng = ss.stream_named("ops");
        let script = gen_script(&mut script_rng, routes.len(), used_links.len());
        ops = script.len();
        flows = script
            .iter()
            .filter(|o| matches!(o, Op::Start { .. }))
            .count();

        let dense = run_script(&caps, &routes, &used_links, &script, Alloc::Dense, 1.0, 0)?;
        let incr = run_script(
            &caps,
            &routes,
            &used_links,
            &script,
            Alloc::Incremental(mutation),
            1.0,
            0,
        )?;
        compare_bitwise(
            &dense,
            &incr,
            "allocator_equivalence",
            "dense",
            "incremental",
        )?;

        let scaled = run_script(
            &caps,
            &routes,
            &used_links,
            &script,
            Alloc::Incremental(mutation),
            2.0,
            0,
        )?;
        compare_scaled(&incr, &scaled, 2.0)?;

        let idle = run_script(
            &caps,
            &routes,
            &used_links,
            &script,
            Alloc::Incremental(mutation),
            1.0,
            4,
        )?;
        compare_bitwise(&incr, &idle, "metamorphic_idle", "base", "idle-extended")?;
    }

    let (iters, events) = check_session(sc)?;
    Ok(CheckStats {
        hosts: fabric.active_hosts().count(),
        links: fabric.net.link_count(),
        routes: routes.len(),
        ops,
        flows,
        iters,
        events,
    })
}

// ---------------------------------------------------------------- churn --

/// One churn-script operation. Scripts are plain data so every replay
/// (dense, incremental, scaled, idle-extended) executes the identical
/// sequence.
#[derive(Clone, Copy, Debug)]
enum Op {
    Start {
        route: usize,
        size: f64,
        demand: f64,
    },
    Advance {
        dt: f64,
    },
    Kill {
        nth: u64,
    },
    Toggle {
        link: usize,
    },
}

/// Which allocator drives a replay.
#[derive(Clone, Copy)]
enum Alloc {
    Dense,
    Incremental(Mutation),
}

impl Alloc {
    fn label(self) -> &'static str {
        match self {
            Alloc::Dense => "dense",
            Alloc::Incremental(_) => "incremental",
        }
    }

    fn build_net(self) -> FlowNet {
        match self {
            Alloc::Dense => FlowNet::with_allocator(AllocatorKind::Dense),
            Alloc::Incremental(Mutation::None) => {
                FlowNet::with_allocator(AllocatorKind::Incremental)
            }
            Alloc::Incremental(m) => FlowNet::with_allocator_box(Box::new(MutantAlloc::new(
                AllocatorKind::Incremental.build(),
                m,
            ))),
        }
    }
}

/// Per-op observations of one replay: live `(handle, rate)` pairs after
/// the op, and the handles completed by the op.
struct Trace {
    rates: Vec<Vec<(u64, f64)>>,
    completions: Vec<Vec<u64>>,
}

/// Derive a set of concrete routes between random active hosts over the
/// all-healthy fabric — the flow paths the churn script exercises.
fn derive_routes(
    fabric: &Fabric,
    hash: hpn_routing::HashMode,
    rng: &mut Xoshiro256,
) -> Vec<Vec<LinkId>> {
    let hosts: Vec<u32> = fabric.active_hosts().map(|h| h.id).collect();
    if hosts.len() < 2 {
        return Vec::new();
    }
    let router = Router::new(fabric, hash);
    let health = LinkHealth::new(fabric.net.link_count());
    let rails = fabric.host_params.rails as u64;
    let mut routes = Vec::new();
    let mut tries = 0;
    while routes.len() < 12 && tries < 48 {
        tries += 1;
        let src = hosts[rng.next_below(hosts.len() as u64) as usize];
        let dst = hosts[rng.next_below(hosts.len() as u64) as usize];
        if src == dst {
            continue;
        }
        let req = RouteRequest {
            src_host: src,
            src_rail: rng.next_below(rails) as usize,
            dst_host: dst,
            dst_rail: rng.next_below(rails) as usize,
            sport: 1024 + (rng.next_u64() & 0x3FFF) as u16,
            port: None,
        };
        if let Ok(route) = router.route(fabric, &health, &req) {
            routes.push(route.flow_links());
        }
    }
    routes
}

/// Generate the churn script. Always opens with a flow start (so even the
/// shortest script exercises allocation) and closes with two advances (so
/// completions and queue drain get observed).
fn gen_script(rng: &mut Xoshiro256, n_routes: usize, n_links: usize) -> Vec<Op> {
    let n_ops = 36 + rng.next_below(25) as usize;
    let mut ops = Vec::with_capacity(n_ops + 3);
    ops.push(Op::Start {
        route: rng.next_below(n_routes as u64) as usize,
        size: rng.uniform(1e6, 5e8),
        demand: rng.uniform(1e9, 50e9),
    });
    for _ in 0..n_ops {
        let op = match rng.next_below(10) {
            0..=4 => Op::Start {
                route: rng.next_below(n_routes as u64) as usize,
                size: rng.uniform(1e6, 5e8),
                demand: rng.uniform(1e9, 50e9),
            },
            5..=6 => Op::Advance {
                dt: rng.exponential(0.005).min(0.05),
            },
            7 => Op::Kill {
                nth: rng.next_u64(),
            },
            _ => Op::Toggle {
                link: rng.next_below(n_links as u64) as usize,
            },
        };
        ops.push(op);
    }
    ops.push(Op::Advance { dt: 0.02 });
    ops.push(Op::Advance { dt: 0.05 });
    ops
}

/// Execute the script on one fresh network, auditing capacity conservation
/// and the max-min bottleneck condition after every operation.
///
/// `scale` multiplies capacities, buffers, demands and sizes — the
/// homothety the scaling metamorphic property relies on. `extra_links`
/// appends idle links after the real ones (same ids for everything a path
/// touches), for the idle-extension property.
fn run_script(
    caps: &[(f64, f64)],
    routes: &[Vec<LinkId>],
    used_links: &[LinkId],
    script: &[Op],
    alloc: Alloc,
    scale: f64,
    extra_links: usize,
) -> Result<Trace, Failure> {
    let label = alloc.label();
    let mut net = alloc.build_net();
    for &(cap, buf) in caps {
        net.add_link(cap * scale, buf * scale);
    }
    for _ in 0..extra_links {
        net.add_link(400e9 * scale, 400e3 * 8.0 * scale);
    }
    let path_ids: Vec<PathId> = routes.iter().map(|r| net.intern_path(r)).collect();

    let mut now = SimTime::ZERO;
    // (handle, route index, scaled demand) of every live flow.
    let mut live: Vec<(FlowHandle, usize, f64)> = Vec::new();
    let mut trace = Trace {
        rates: Vec::with_capacity(script.len()),
        completions: Vec::with_capacity(script.len()),
    };

    for (i, op) in script.iter().enumerate() {
        let mut completed = Vec::new();
        match *op {
            Op::Start {
                route,
                size,
                demand,
            } => {
                let h = net.start_flow(
                    now,
                    FlowSpec {
                        path: path_ids[route],
                        size_bits: size * scale,
                        demand_bps: demand * scale,
                        tag: route as u64,
                    },
                );
                live.push((h, route, demand * scale));
            }
            Op::Advance { dt } => {
                now += SimDuration::from_secs_f64(dt);
                for c in net.advance(now) {
                    completed.push(c.handle.0);
                }
                live.retain(|(h, _, _)| !completed.contains(&h.0));
            }
            Op::Kill { nth } => {
                if !live.is_empty() {
                    let idx = (nth % live.len() as u64) as usize;
                    let (h, _, _) = live.remove(idx);
                    net.kill_flow(now, h);
                }
            }
            Op::Toggle { link } => {
                let l = used_links[link];
                let up = net.link(l).up;
                net.set_link_up(l, !up);
            }
        }
        audit_net(&mut net, routes, &live, scale, label, i)?;
        let rates: Vec<(u64, f64)> = live
            .iter()
            .map(|&(h, _, _)| (h.0, net.flow_rate(h).unwrap_or(f64::NAN)))
            .collect();
        trace.rates.push(rates);
        trace.completions.push(completed);
    }
    Ok(trace)
}

/// The per-op battery: capacity conservation plus the max-min bottleneck
/// condition (every flow is either at its demand or constrained by a
/// saturated link on which it has a maximal rate).
fn audit_net(
    net: &mut FlowNet,
    routes: &[Vec<LinkId>],
    live: &[(FlowHandle, usize, f64)],
    scale: f64,
    label: &str,
    op: usize,
) -> Result<(), Failure> {
    let mut sum: BTreeMap<u32, f64> = BTreeMap::new();
    let mut maxr: BTreeMap<u32, f64> = BTreeMap::new();
    let mut flows: Vec<(u64, f64, f64, usize)> = Vec::new(); // handle, rate, demand, route
    for &(h, route, demand) in live {
        let rate = net.flow_rate(h).unwrap_or(0.0);
        flows.push((h.0, rate, demand, route));
        for &l in &routes[route] {
            *sum.entry(l.0).or_insert(0.0) += rate;
            let m = maxr.entry(l.0).or_insert(0.0);
            if rate > *m {
                *m = rate;
            }
        }
    }

    // Capacity conservation: allocated rates through a link never exceed
    // its (possibly zero, when down) capacity.
    for (&l, &s) in &sum {
        let cap = net.link(LinkId(l)).capacity_bps();
        if s > cap + cap * 1e-9 + 1e-3 {
            return Err(fail(
                "capacity_conservation",
                format!(
                    "[{label}] op {op}: link {l} carries {s:.3} bps over capacity {cap:.3} bps"
                ),
            ));
        }
    }

    // Max-min bottleneck condition.
    for &(h, rate, demand, route) in &flows {
        if rate + (demand * 1e-6).max(1e-3) >= demand {
            continue; // demand-limited: satisfied
        }
        let bottlenecked = routes[route].iter().any(|&l| {
            let cap = net.link(l).capacity_bps();
            let s = sum.get(&l.0).copied().unwrap_or(0.0);
            let m = maxr.get(&l.0).copied().unwrap_or(0.0);
            s + (cap * 1e-6).max(1.0) >= cap && rate + (m * 1e-6).max(1e-3) >= m
        });
        if !bottlenecked {
            let path_state: Vec<String> = routes[route]
                .iter()
                .map(|&l| {
                    format!(
                        "link {}: cap={:.0} sum={:.0} max={:.0}",
                        l.0,
                        net.link(l).capacity_bps(),
                        sum.get(&l.0).copied().unwrap_or(0.0),
                        maxr.get(&l.0).copied().unwrap_or(0.0)
                    )
                })
                .collect();
            return Err(fail(
                "maxmin_bottleneck",
                format!(
                    "[{label}] op {op}: flow {h} runs at {rate:.3} bps below demand \
                     {demand:.3} bps with no saturated bottleneck on its path \
                     (scale {scale}; path: {})",
                    path_state.join("; ")
                ),
            ));
        }
    }
    Ok(())
}

/// Two traces must agree bitwise: same live handles, same completions,
/// bit-identical rates after every op.
fn compare_bitwise(
    a: &Trace,
    b: &Trace,
    invariant: &'static str,
    la: &str,
    lb: &str,
) -> Result<(), Failure> {
    for (op, (ca, cb)) in a.completions.iter().zip(&b.completions).enumerate() {
        if ca != cb {
            return Err(fail(
                invariant,
                format!("op {op}: {la} completed {ca:?} but {lb} completed {cb:?}"),
            ));
        }
    }
    for (op, (ra, rb)) in a.rates.iter().zip(&b.rates).enumerate() {
        if ra.len() != rb.len() {
            return Err(fail(
                invariant,
                format!(
                    "op {op}: {la} has {} live flows but {lb} has {}",
                    ra.len(),
                    rb.len()
                ),
            ));
        }
        for (&(ha, va), &(hb, vb)) in ra.iter().zip(rb) {
            if ha != hb {
                return Err(fail(
                    invariant,
                    format!("op {op}: live sets diverge ({la} flow {ha} vs {lb} flow {hb})"),
                ));
            }
            if va.to_bits() != vb.to_bits() {
                return Err(fail(
                    invariant,
                    format!(
                        "op {op}: flow {ha} rate {va:.6} bps under {la} but {vb:.6} bps \
                         under {lb} (bitwise diff)"
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// The scaling metamorphic property: multiplying every capacity, buffer,
/// demand and size by `factor` must multiply every rate by `factor`
/// (within 1e-9 relative) and leave the completion pattern unchanged.
fn compare_scaled(base: &Trace, scaled: &Trace, factor: f64) -> Result<(), Failure> {
    for (op, (ca, cb)) in base.completions.iter().zip(&scaled.completions).enumerate() {
        if ca != cb {
            return Err(fail(
                "metamorphic_scale",
                format!("op {op}: completions changed under uniform scaling ({ca:?} vs {cb:?})"),
            ));
        }
    }
    for (op, (ra, rb)) in base.rates.iter().zip(&scaled.rates).enumerate() {
        if ra.len() != rb.len() {
            return Err(fail(
                "metamorphic_scale",
                format!(
                    "op {op}: live flow count changed under scaling ({} vs {})",
                    ra.len(),
                    rb.len()
                ),
            ));
        }
        for (&(ha, va), &(hb, vb)) in ra.iter().zip(rb) {
            if ha != hb {
                return Err(fail(
                    "metamorphic_scale",
                    format!("op {op}: live sets diverge under scaling (flow {ha} vs {hb})"),
                ));
            }
            let want = va * factor;
            if (vb - want).abs() > want.abs() * 1e-9 + 1e-6 {
                return Err(fail(
                    "metamorphic_scale",
                    format!(
                        "op {op}: flow {ha} rate {vb:.6} bps after ×{factor} scaling, \
                         expected {want:.6} bps"
                    ),
                ));
            }
        }
    }
    Ok(())
}

// -------------------------------------------------------------- session --

struct Nop;
impl ClusterApp for Nop {
    fn on_message_complete(&mut self, _: &mut ClusterSim, _: MessageDone) {}
}

/// Mirror of the runner's fault replay: pre-schedule every fault as cable
/// events (fail at `at`, repair after the fault's duration).
fn schedule_faults(cs: &mut ClusterSim, schedule: &[hpn_faults::FaultEvent]) {
    use hpn_faults::FaultKind;
    for ev in schedule {
        match ev.kind {
            FaultKind::LinkFailure { link, repair_after } => {
                cs.schedule_cable_event(ev.at, link, false);
                cs.schedule_cable_event(ev.at + repair_after, link, true);
            }
            FaultKind::LinkFlap { link, duration } => {
                cs.schedule_cable_event(ev.at, link, false);
                cs.schedule_cable_event(ev.at + duration, link, true);
            }
            FaultKind::TorCrash { tor, repair_after } => {
                let links: Vec<LinkIdx> = cs.fabric.net.out_links(tor).collect();
                for l in links {
                    cs.schedule_cable_event(ev.at, l, false);
                    cs.schedule_cable_event(ev.at + repair_after, l, true);
                }
            }
        }
    }
}

/// Latest instant the fault schedule still has scheduled activity, with
/// never-repaired sentinels clamped so the drain deadline stays finite.
fn fault_horizon(schedule: &[hpn_faults::FaultEvent]) -> SimTime {
    use hpn_faults::FaultKind;
    let mut last = SimTime::ZERO;
    for ev in schedule {
        let dur = match ev.kind {
            FaultKind::LinkFailure { repair_after, .. } => repair_after,
            FaultKind::LinkFlap { duration, .. } => duration,
            FaultKind::TorCrash { repair_after, .. } => repair_after,
        };
        let capped = SimDuration::from_secs_f64(dur.as_secs_f64().min(100.0));
        let end = ev.at + capped;
        if end > last {
            last = end;
        }
    }
    last + SimDuration::from_secs_f64(1.0)
}

/// Latency state salvaged from a finished session: the fluid net's
/// measured FCT sketch plus the attached estimator's predictions.
struct LatencyTrace {
    sim_fct: QuantileSketch,
    est_fct: QuantileSketch,
    est_skipped: u64,
}

/// Build and run the scenario's full session under an explicit context
/// with a capturing recorder, then audit iteration records, telemetry
/// monotonicity, flow add/remove balance, final capacity conservation,
/// quantile-sketch mass/merge conservation, and the tail estimator's
/// error bound against the simulated FCT distribution.
fn check_session(sc: &Scenario) -> Result<(usize, usize), Failure> {
    let log = EventLog::new();
    let ctx = SimCtx::new().with_recorder(SharedRecorder::new(Box::new(log.clone())));
    let outcome = build_and_run(sc, &ctx);
    let events = log.take();
    let (iters, final_flows, latency) = outcome?;
    check_telemetry(&events, final_flows)?;
    check_latency_sketches(&events)?;
    check_estimator(&events, &latency)?;
    Ok((iters, events.len()))
}

fn build_and_run(sc: &Scenario, ctx: &SimCtx) -> Result<(usize, usize, LatencyTrace), Failure> {
    let session = sc
        .build_with(ctx)
        .map_err(|e| fail("scenario_build", e.to_string()))?;
    let Session {
        cluster: mut cs,
        workload,
        faults,
    } = session;
    schedule_faults(&mut cs, &faults);
    // Ride the whole session with the tail estimator so every fuzzed
    // scenario cross-validates prediction against simulation for free.
    cs.net
        .set_estimator(Some(Box::new(LinkDecompositionEstimator::new())));

    let mut iters = 0;
    match workload {
        Some(bw) => {
            let mut ts = bw.session();
            let n = bw.iterations.clamp(1, 2);
            let mut prev_end = SimTime::ZERO;
            for i in 0..n {
                let rec = ts.run_iteration(&mut cs);
                if rec.start < prev_end || rec.end < rec.start {
                    return Err(fail(
                        "iteration_monotonic",
                        format!(
                            "iteration {i} runs [{:?}, {:?}] against previous end {prev_end:?}",
                            rec.start, rec.end
                        ),
                    ));
                }
                if !rec.samples_per_sec.is_finite() || rec.samples_per_sec < 0.0 {
                    return Err(fail(
                        "iteration_throughput",
                        format!("iteration {i} reports samples/s = {}", rec.samples_per_sec),
                    ));
                }
                prev_end = rec.end;
                iters += 1;
            }
        }
        None => {
            if !faults.is_empty() {
                let deadline = fault_horizon(&faults);
                cs.run(&mut Nop, deadline);
            }
        }
    }

    // Final capacity conservation over the session's own fluid net.
    cs.net.recompute_if_dirty();
    for i in 0..cs.net.link_count() {
        let l = cs.net.link(LinkId(i as u32));
        let cap = l.capacity_bps();
        if l.allocated_bps > cap + cap * 1e-9 + 1e-3 {
            return Err(fail(
                "capacity_conservation",
                format!(
                    "[session] link {i} ends allocated {:.3} bps over capacity {cap:.3} bps",
                    l.allocated_bps
                ),
            ));
        }
    }
    let est = cs
        .net
        .take_estimator()
        .expect("estimator attached at session start");
    let latency = LatencyTrace {
        sim_fct: cs.net.fct_sketch().clone(),
        est_fct: est.fct_sketch().clone(),
        est_skipped: est.skipped(),
    };
    Ok((iters, cs.net.flow_count(), latency))
}

/// Telemetry-stream invariants: per-segment sim-time monotonicity, and
/// flow add/remove conservation against the flows surviving in the net.
fn check_telemetry(events: &[Event], final_flows: usize) -> Result<(), Failure> {
    let mut prev = 0u64;
    let mut added: BTreeSet<u64> = BTreeSet::new();
    let mut removed: BTreeSet<u64> = BTreeSet::new();
    for (i, ev) in events.iter().enumerate() {
        match ev {
            Event::SimStart { .. } => prev = 0,
            _ => {
                let t = ev.t_ns();
                if t < prev {
                    return Err(fail(
                        "telemetry_monotonic",
                        format!(
                            "event {i} ({}) at t={t}ns after t={prev}ns within one segment",
                            ev.kind()
                        ),
                    ));
                }
                prev = t;
            }
        }
        match ev {
            Event::FlowAdd { flow, .. } => {
                added.insert(*flow);
            }
            Event::FlowRemove { flow, .. } => {
                if !added.contains(flow) {
                    return Err(fail(
                        "flow_conservation",
                        format!("event {i}: flow {flow} removed but never added"),
                    ));
                }
                if !removed.insert(*flow) {
                    return Err(fail(
                        "flow_conservation",
                        format!("event {i}: flow {flow} removed twice"),
                    ));
                }
            }
            _ => {}
        }
    }
    let surviving = added.len() - removed.len();
    if surviving != final_flows {
        return Err(fail(
            "flow_conservation",
            format!(
                "telemetry says {surviving} flows survive ({} added − {} removed) but the \
                 net holds {final_flows}",
                added.len(),
                removed.len()
            ),
        ));
    }
    Ok(())
}

/// Quantile-sketch invariants over the session's telemetry stream:
///
/// * **Mass conservation** — every sample a latency sketch counted is
///   still present as bucket occupancy (no silent drops or double
///   counting through the registry path).
/// * **Merge determinism** — replaying the stream through one registry
///   must produce byte-identical latency summaries to replaying each
///   `SimStart`-delimited segment through its own registry and merging
///   in order: exactly the reduction `--jobs N` performs.
fn check_latency_sketches(events: &[Event]) -> Result<(), Failure> {
    let mut sequential = Registry::new();
    replay(events, &mut sequential);

    let mut merged = Registry::new();
    let mut segment: Vec<Event> = Vec::new();
    let flush = |segment: &mut Vec<Event>, merged: &mut Registry| {
        if !segment.is_empty() {
            let mut worker = Registry::new();
            replay(segment, &mut worker);
            merged.merge(&worker);
            segment.clear();
        }
    };
    for ev in events {
        if matches!(ev, Event::SimStart { .. }) {
            flush(&mut segment, &mut merged);
        }
        segment.push(ev.clone());
    }
    flush(&mut segment, &mut merged);

    let lat = sequential.latency();
    for (name, s) in [("fct", &lat.fct), ("queue_delay", &lat.queue_delay)] {
        if s.bucket_mass() != s.count() {
            return Err(fail(
                "sketch_mass_conservation",
                format!(
                    "{name} sketch holds {} bucket mass for {} recorded samples",
                    s.bucket_mass(),
                    s.count()
                ),
            ));
        }
    }
    let (a, b) = (
        sequential.latency_summary_json(),
        merged.latency_summary_json(),
    );
    if a != b {
        return Err(fail(
            "sketch_merge_determinism",
            format!("sequential latency summary {a} != segment-merged {b}"),
        ));
    }
    Ok(())
}

/// Factor by which the estimator's p99 FCT may deviate from simulation
/// before the fuzz oracle fires. The link-decomposition model is an
/// approximation — EXPERIMENTS.md documents its accuracy on the shipped
/// scenarios — so the fuzz bound is deliberately loose: it catches
/// wiring and unit bugs (seconds vs nanoseconds, inverted shares,
/// zero-capacity paths), not model error on adversarial random fabrics.
const EST_P99_FACTOR_BOUND: f64 = 16.0;

/// Minimum samples on both sides before the p99 comparison means much.
const EST_MIN_SAMPLES: u64 = 16;

/// The estimator oracles: every started flow is either predicted or
/// explicitly skipped, and when both distributions are populated the
/// estimated p99 FCT stays within [`EST_P99_FACTOR_BOUND`]× of the
/// simulated one.
fn check_estimator(events: &[Event], lat: &LatencyTrace) -> Result<(), Failure> {
    let started = events
        .iter()
        .filter(|e| matches!(e, Event::FlowAdd { .. }))
        .count() as u64;
    let covered = lat.est_fct.count() + lat.est_skipped;
    if covered != started {
        return Err(fail(
            "estimator_coverage",
            format!(
                "{started} flows started but the estimator saw {covered} \
                 ({} predicted + {} skipped)",
                lat.est_fct.count(),
                lat.est_skipped
            ),
        ));
    }
    if lat.sim_fct.count() >= EST_MIN_SAMPLES && lat.est_fct.count() >= EST_MIN_SAMPLES {
        let sim = lat.sim_fct.quantile(0.99).unwrap_or(0.0);
        let est = lat.est_fct.quantile(0.99).unwrap_or(0.0);
        if sim > 0.0 && est > 0.0 {
            let factor = (est / sim).max(sim / est);
            if !factor.is_finite() || factor > EST_P99_FACTOR_BOUND {
                return Err(fail(
                    "estimator_error_bound",
                    format!(
                        "estimated p99 FCT {est:.6}s vs simulated {sim:.6}s — \
                         off by ×{factor:.1} (bound ×{EST_P99_FACTOR_BOUND})"
                    ),
                ));
            }
        }
    }
    Ok(())
}
