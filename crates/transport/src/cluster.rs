//! The cluster simulation runtime.
//!
//! [`ClusterSim`] owns the physical fluid network, the router and the
//! converged routing view, and exposes a message API to applications
//! (collectives, workloads, fault injectors). The control flow is
//! inversion-of-control: the application implements [`ClusterApp`] and the
//! runtime calls back on message completions and timers. Events are popped
//! before callbacks run, so callbacks receive `&mut ClusterSim` and can
//! freely send more messages — the same pattern the engine crate uses.
//!
//! ## Failure semantics (§4.2 + §9.3)
//!
//! `fail_link` flips the physical link immediately: flows crossing it stall
//! (rate 0) because the fluid model assigns them no bandwidth. The *routing
//! view* ([`hpn_routing::LinkHealth`]) follows after the BGP convergence
//! delay, at which point every in-flight message whose path crosses the
//! link is transparently re-issued over a surviving path (dual-ToR) or
//! left stalled (single-ToR, nothing to fail over to). Repair is the
//! mirror image. This reproduces Fig 18's contrast: a dual-ToR job loses
//! one port's bandwidth; a single-ToR job halts.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

use hpn_routing::bgp::DEFAULT_CONVERGENCE;
use hpn_routing::repac;
use hpn_routing::router::{RouteRequest, Router};
use hpn_routing::{HashMode, LinkHealth};
use hpn_sim::{FlowNet, FlowSpec, SimDuration, SimTime};
use hpn_telemetry::{Event, SharedRecorder, SimCtx};
use hpn_topology::{Fabric, LinkIdx};

use crate::conn::{ConnGroup, Connection, ConnectionId, GroupId, PathPolicy};

/// Completion notice delivered to the application.
#[derive(Clone, Copy, Debug)]
pub struct MessageDone {
    /// The runtime's message id.
    pub msg_id: u64,
    /// Connection the message used (`None` for same-GPU copies).
    pub conn: Option<ConnectionId>,
    /// The opaque value passed to `send*`.
    pub user: u64,
    /// Message size in bits.
    pub size_bits: f64,
}

/// Application hooks.
pub trait ClusterApp {
    /// A message finished delivering.
    fn on_message_complete(&mut self, cs: &mut ClusterSim, done: MessageDone);
    /// An application timer set via [`ClusterSim::set_timer`] fired.
    fn on_timer(&mut self, _cs: &mut ClusterSim, _tag: u64) {}
}

#[derive(Clone, Copy, Debug)]
enum Timer {
    App(u64),
    Converge { link: LinkIdx, up: bool },
    CableEvent { link: LinkIdx, up: bool },
    LocalCopyDone(u64),
}

#[derive(Clone, Debug)]
struct Msg {
    conn: Option<ConnectionId>,
    user: u64,
    flow: Option<hpn_sim::FlowHandle>,
    size_bits: f64,
    /// Fixed latency charged after the last bit leaves the wire.
    latency: SimDuration,
    /// Bits not yet delivered; kept current whenever the flow is torn down
    /// so progress survives stall/reroute cycles.
    remaining_bits: f64,
    /// True when no healthy route exists; retried on repair convergence.
    stalled: bool,
}

/// Fixed delays that rate-based fluid flows cannot express: per-hop
/// propagation/forwarding latency and per-message software overhead (QP
/// doorbell, NCCL proxy, completion handling). These floor small-message
/// collective time, giving busbw-vs-size curves their characteristic rise
/// (Fig 17/19) — without them a fluid model finishes a 1MB AllReduce
/// implausibly instantly.
#[derive(Clone, Copy, Debug)]
pub struct LatencyModel {
    /// Propagation + switching delay per path hop.
    pub per_hop: SimDuration,
    /// Software/NIC overhead per message.
    pub per_message: SimDuration,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            per_hop: SimDuration::from_micros(1),
            per_message: SimDuration::from_micros(20),
        }
    }
}

/// Counters the experiments report.
#[derive(Clone, Copy, Debug, Default)]
pub struct TransportStats {
    /// Messages transparently re-issued after failover.
    pub reroutes: u64,
    /// Messages that found no healthy path and had to wait for repair.
    pub stalls: u64,
    /// Messages completed.
    pub completed: u64,
}

/// The cluster runtime. Public fields invite read-only inspection by
/// experiments (link rates, queue lengths); mutation goes through methods.
///
/// The fabric and router are `Arc`-shared: both are immutable after
/// construction (the router's policy knobs use copy-on-write via
/// [`ClusterSim::router_mut`]), so a cross-request artifact cache can hand
/// one built fabric/router to many concurrent sessions. Field reads
/// (`cs.fabric.hosts`, `cs.router.route(...)`) deref-coerce unchanged.
pub struct ClusterSim {
    /// The fabric wiring (shared, immutable after build).
    pub fabric: Arc<Fabric>,
    /// The router (pure; copy-on-write for policy knobs).
    pub router: Arc<Router>,
    /// Converged routing view.
    pub health: LinkHealth,
    /// The physical fluid network.
    pub net: FlowNet,
    /// BGP convergence delay applied between physical and routed state.
    pub convergence: SimDuration,
    /// Fixed per-message/per-hop delays.
    pub latency: LatencyModel,
    now: SimTime,
    conns: Vec<Connection>,
    groups: Vec<ConnGroup>,
    msgs: BTreeMap<u64, Msg>,
    next_msg: u64,
    timers: BinaryHeap<Reverse<(SimTime, u64, u8)>>,
    timer_payload: BTreeMap<u64, Timer>,
    timer_seq: u64,
    stats: TransportStats,
    telemetry: SharedRecorder,
}

impl ClusterSim {
    /// Build a runtime over a fabric with the inert default context: no
    /// telemetry, allocator from `HPN_ALLOCATOR`. Shorthand for
    /// [`ClusterSim::with_ctx`] with `&SimCtx::default()` — sessions that
    /// record telemetry or pin an allocator build one explicitly.
    pub fn new(fabric: Fabric, mode: HashMode) -> Self {
        Self::with_ctx(fabric, mode, &SimCtx::default())
    }

    /// Build a runtime over a fabric from an explicit session context.
    ///
    /// The context picks the fluid net's rate allocator and supplies the
    /// telemetry recorder: when it is enabled, a [`Event::SimStart`]
    /// segment marker is emitted and the fluid net gets a probe so
    /// flow/rate/link events land in the same sink. With a disabled
    /// recorder nothing is attached and the runtime pays no observation
    /// cost. The runtime holds only `Send` parts, so a session built here
    /// can migrate to a worker thread.
    pub fn with_ctx(fabric: Fabric, mode: HashMode, ctx: &SimCtx) -> Self {
        let router = Router::new(&fabric, mode);
        Self::from_parts(Arc::new(fabric), Arc::new(router), ctx)
    }

    /// Build a runtime from pre-built, `Arc`-shared parts — the cache-warm
    /// path. `router` must have been built over `fabric` (the batch path,
    /// [`ClusterSim::with_ctx`], guarantees this by construction; an
    /// artifact cache guarantees it by keying the router on the topology
    /// section). Behaves byte-identically to `with_ctx`: the same
    /// `SimStart` marker is emitted and the same probe attached, so warm
    /// and cold construction are indistinguishable in telemetry.
    pub fn from_parts(fabric: Arc<Fabric>, router: Arc<Router>, ctx: &SimCtx) -> Self {
        let health = LinkHealth::new(fabric.net.link_count());
        let mut net = fabric.to_flownet_with(ctx.allocator());
        let telemetry = ctx.recorder().clone();
        if telemetry.enabled() {
            telemetry.record(&Event::SimStart {
                label: format!(
                    "cluster kind={:?} hosts={} links={}",
                    fabric.kind,
                    fabric.hosts.len(),
                    fabric.net.link_count()
                ),
            });
            net.set_probe(Some(telemetry.net_probe()));
        }
        ClusterSim {
            fabric,
            router,
            health,
            net,
            convergence: DEFAULT_CONVERGENCE,
            latency: LatencyModel::default(),
            now: SimTime::ZERO,
            conns: Vec::new(),
            groups: Vec::new(),
            msgs: BTreeMap::new(),
            next_msg: 0,
            timers: BinaryHeap::new(),
            timer_payload: BTreeMap::new(),
            timer_seq: 0,
            stats: TransportStats::default(),
            telemetry,
        }
    }

    /// The telemetry recorder this runtime records into (the context's
    /// recorder captured at construction). Applications layered on the
    /// runtime (collectives, fault injectors) emit through this handle so
    /// the whole run lands in one ordered stream.
    pub fn telemetry(&self) -> &SharedRecorder {
        &self.telemetry
    }

    /// Mutable access to the router's policy knobs (e.g.
    /// [`Router::relay_cross_rail`]). Copy-on-write: when the router is
    /// shared with an artifact cache or another session, the first
    /// mutation clones the tables so the shared copy stays pristine.
    pub fn router_mut(&mut self) -> &mut Router {
        Arc::make_mut(&mut self.router)
    }

    /// Emit a [`Event::LinkSample`] for a fluid-net link (utilization and
    /// queue occupancy at the current instant). No-op when telemetry is
    /// disabled; experiment samplers call this on their watched links.
    pub fn sample_link_telemetry(&mut self, link: hpn_sim::LinkId) {
        if self.telemetry.enabled() {
            self.net.recompute_if_dirty();
            let l = self.net.link(link);
            let ev = Event::LinkSample {
                t_ns: self.now.as_nanos(),
                link: link.0,
                utilization: l.utilization(),
                queue_bits: l.queue_bits,
                capacity_bps: l.capacity_bps(),
            };
            self.telemetry.record(&ev);
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Transport statistics so far.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// Rate-allocator recompute-scope counters of the underlying fluid net
    /// (see [`hpn_sim::RecomputeScope`]): experiments snapshot and diff
    /// these to report how local rate recomputes stayed under churn.
    pub fn alloc_scope(&self) -> hpn_sim::RecomputeScope {
        self.net.alloc_scope()
    }

    /// Messages currently in flight (including stalled ones).
    pub fn inflight(&self) -> usize {
        self.msgs.len()
    }

    /// Read a connection.
    pub fn conn(&self, id: ConnectionId) -> &Connection {
        &self.conns[id.0 as usize]
    }

    /// Read a group.
    pub fn group(&self, id: GroupId) -> &ConnGroup {
        &self.groups[id.0 as usize]
    }

    // ------------------------------------------------------------------
    // Connection establishment
    // ------------------------------------------------------------------

    /// `EstablishConns` (Appendix B Algorithm 1): create up to `n`
    /// connections over pairwise-disjoint paths between two GPUs and bundle
    /// them into a group with the given policy. `sport_base` seeds the
    /// RePaC source-port scan; vary it per group so concurrent groups don't
    /// all pick identical tuples.
    pub fn establish_group(
        &mut self,
        src: (u32, usize),
        dst: (u32, usize),
        n: usize,
        policy: PathPolicy,
        sport_base: u16,
    ) -> GroupId {
        assert!(src != dst, "group to self");
        let found = repac::find_paths(
            &self.router,
            &self.fabric,
            &self.health,
            src.0,
            src.1,
            dst.0,
            dst.1,
            n,
            sport_base,
        );
        found.record(self.now, &self.telemetry);
        assert!(
            !found.paths.is_empty(),
            "no path between {src:?} and {dst:?}"
        );
        let mut conns = Vec::with_capacity(found.paths.len());
        for p in found.paths {
            let id = ConnectionId(self.conns.len() as u32);
            let (path, path_demand_bps) = self.intern_route(&p.route);
            self.conns.push(Connection {
                id,
                src,
                dst,
                sport: p.sport,
                route: p.route,
                path,
                path_demand_bps,
                wqe_bytes: 0.0,
                inflight: 0,
            });
            conns.push(id);
        }
        let gid = GroupId(self.groups.len() as u32);
        self.groups.push(ConnGroup {
            id: gid,
            conns,
            policy,
            rr_next: 0,
        });
        gid
    }

    // ------------------------------------------------------------------
    // Messaging
    // ------------------------------------------------------------------

    /// Send over a group; the group's policy picks the connection.
    pub fn send_group(&mut self, group: GroupId, size_bits: f64, user: u64) -> u64 {
        let conns_snapshot: Vec<(ConnectionId, f64)> = self.groups[group.0 as usize]
            .conns
            .iter()
            .map(|&c| (c, self.conns[c.0 as usize].wqe_bytes))
            .collect();
        let pick = self.groups[group.0 as usize].pick(|c| {
            conns_snapshot
                .iter()
                .find(|&&(id, _)| id == c)
                .map(|&(_, w)| w)
                .expect("member of own group")
        });
        self.send_on(pick, size_bits, user)
    }

    /// Send over a specific connection.
    pub fn send_on(&mut self, conn_id: ConnectionId, size_bits: f64, user: u64) -> u64 {
        assert!(size_bits > 0.0, "empty message");
        let msg_id = self.next_msg;
        self.next_msg += 1;
        self.conns[conn_id.0 as usize].wqe_bytes += size_bits / 8.0;
        self.conns[conn_id.0 as usize].inflight += 1;

        // Revalidate the route lazily: health may have changed since the
        // connection was last used.
        if self.conns[conn_id.0 as usize]
            .route
            .links
            .iter()
            .any(|&l| !self.health.is_up(l))
        {
            self.refresh_conn_route(conn_id);
        }

        let hops = self.conns[conn_id.0 as usize].route.links.len() as u64;
        let mut msg = Msg {
            conn: Some(conn_id),
            user,
            flow: None,
            size_bits,
            remaining_bits: size_bits,
            latency: self.latency.per_message + self.latency.per_hop.saturating_mul(hops),
            stalled: false,
        };
        if self.conns[conn_id.0 as usize]
            .route
            .links
            .iter()
            .all(|&l| self.health.is_up(l))
        {
            msg.flow = Some(self.start_flow(conn_id, size_bits, msg_id));
        } else {
            msg.stalled = true;
            self.stats.stalls += 1;
        }
        self.msgs.insert(msg_id, msg);
        msg_id
    }

    /// A same-GPU "send" (memory copy at NVLink speed) — collectives use
    /// this for rank-local reductions so their code stays uniform.
    pub fn send_local(&mut self, size_bits: f64, user: u64) -> u64 {
        assert!(size_bits > 0.0, "empty message");
        let msg_id = self.next_msg;
        self.next_msg += 1;
        self.msgs.insert(
            msg_id,
            Msg {
                conn: None,
                user,
                flow: None,
                size_bits,
                remaining_bits: size_bits,
                latency: SimDuration::ZERO,
                stalled: false,
            },
        );
        let dur = SimDuration::from_secs_f64(size_bits / self.fabric.host_params.nvlink_bps)
            + self.latency.per_message;
        self.push_timer(self.now + dur, Timer::LocalCopyDone(msg_id));
        msg_id
    }

    /// Intern a route's flow path and compute its demand cap (the min
    /// nominal capacity along the route — static fabric data, so caching it
    /// per connection is exact). Called on establish and route refresh, not
    /// per send: messages reuse the connection's [`hpn_sim::PathId`].
    fn intern_route(&mut self, route: &hpn_routing::router::Route) -> (hpn_sim::PathId, f64) {
        let demand = route
            .links
            .iter()
            .map(|&l| self.fabric.net.link(l).cap_bps)
            .fold(f64::INFINITY, f64::min);
        (self.net.intern_path(&route.flow_links()), demand)
    }

    fn start_flow(
        &mut self,
        conn_id: ConnectionId,
        size_bits: f64,
        msg_id: u64,
    ) -> hpn_sim::FlowHandle {
        let conn = &self.conns[conn_id.0 as usize];
        self.net.start_flow(
            self.now,
            FlowSpec {
                path: conn.path,
                size_bits,
                demand_bps: conn.path_demand_bps,
                tag: msg_id,
            },
        )
    }

    /// Recompute a connection's route under current health, preserving the
    /// sport (the QP survives; only the bond port/plane may change).
    fn refresh_conn_route(&mut self, conn_id: ConnectionId) -> bool {
        let conn = &self.conns[conn_id.0 as usize];
        if conn.src.0 == conn.dst.0 {
            return true; // NVLink routes have no network failure mode here
        }
        let mut req = RouteRequest {
            src_host: conn.src.0,
            src_rail: conn.src.1,
            dst_host: conn.dst.0,
            dst_rail: conn.dst.1,
            sport: conn.sport,
            port: None, // let the bond pick among healthy ports
        };
        // The bond hash only knows local port health; if the chosen plane
        // cannot reach the destination (e.g. the peer's downlink in that
        // plane died), retry each port explicitly — this mirrors the
        // connection re-establishment the collective library performs when
        // it observes a stalled queue pair.
        for (attempt, port) in [None, Some(0), Some(1)].into_iter().enumerate() {
            req.port = port;
            if let Ok(route) = self.router.route(&self.fabric, &self.health, &req) {
                let (path, path_demand_bps) = self.intern_route(&route);
                let conn = &mut self.conns[conn_id.0 as usize];
                conn.route = route;
                conn.path = path;
                conn.path_demand_bps = path_demand_bps;
                self.telemetry.emit(|| Event::PathSearch {
                    t_ns: self.now.as_nanos(),
                    candidates: attempt as u64 + 1,
                    found: 1,
                });
                return true;
            }
        }
        self.telemetry.emit(|| Event::PathSearch {
            t_ns: self.now.as_nanos(),
            candidates: 3,
            found: 0,
        });
        false
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Schedule an application timer; `tag` comes back via
    /// [`ClusterApp::on_timer`].
    pub fn set_timer(&mut self, at: SimTime, tag: u64) {
        assert!(at >= self.now, "timer in the past");
        self.push_timer(at, Timer::App(tag));
    }

    fn push_timer(&mut self, at: SimTime, t: Timer) {
        let seq = self.timer_seq;
        self.timer_seq += 1;
        self.timer_payload.insert(seq, t);
        self.timers.push(Reverse((at, seq, 0)));
    }

    fn peek_timer(&self) -> Option<SimTime> {
        self.timers.peek().map(|Reverse((at, _, _))| *at)
    }

    // ------------------------------------------------------------------
    // Failure injection
    // ------------------------------------------------------------------

    /// Physically fail a directed link now; routing converges after the
    /// configured delay. Most callers fail both directions of a cable via
    /// [`ClusterSim::fail_cable`].
    pub fn fail_link(&mut self, link: LinkIdx) {
        self.net.set_link_up(link.flow_link(), false);
        self.push_timer(
            self.now + self.convergence,
            Timer::Converge { link, up: false },
        );
    }

    /// Physically repair a directed link now; routing converges after the
    /// delay.
    pub fn repair_link(&mut self, link: LinkIdx) {
        self.net.set_link_up(link.flow_link(), true);
        self.push_timer(
            self.now + self.convergence,
            Timer::Converge { link, up: true },
        );
    }

    /// Schedule a cable failure/repair at an absolute future time — lets
    /// experiments pre-plan fault scenarios (Fig 18's "link failure at
    /// t=10s") before starting the run loop.
    pub fn schedule_cable_event(&mut self, at: SimTime, link: LinkIdx, up: bool) {
        assert!(at >= self.now, "cable event in the past");
        self.push_timer(at, Timer::CableEvent { link, up });
    }

    /// Fail both directions between the endpoints of `link`.
    pub fn fail_cable(&mut self, link: LinkIdx) {
        let l = self.fabric.net.link(link);
        self.fail_link(link);
        if let Some(rev) = self.fabric.net.link_between(l.dst, l.src) {
            self.fail_link(rev);
        }
    }

    /// Repair both directions between the endpoints of `link`.
    pub fn repair_cable(&mut self, link: LinkIdx) {
        let l = self.fabric.net.link(link);
        self.repair_link(link);
        if let Some(rev) = self.fabric.net.link_between(l.dst, l.src) {
            self.repair_link(rev);
        }
    }

    fn on_converge(&mut self, link: LinkIdx, up: bool) {
        self.health
            .set_recorded(link, up, self.now, &self.telemetry);
        if !up {
            // Re-issue every in-flight message whose path crosses the link.
            let affected: Vec<u64> = self
                .msgs
                .iter()
                .filter(|(_, m)| {
                    m.conn
                        .is_some_and(|c| self.conns[c.0 as usize].route.links.contains(&link))
                        && !m.stalled
                })
                .map(|(&id, _)| id)
                .collect();
            for msg_id in affected {
                self.reroute_msg(msg_id);
            }
        } else {
            // Retry stalled messages.
            let stalled: Vec<u64> = self
                .msgs
                .iter()
                .filter(|(_, m)| m.stalled)
                .map(|(&id, _)| id)
                .collect();
            for msg_id in stalled {
                self.reroute_msg(msg_id);
            }
        }
    }

    fn reroute_msg(&mut self, msg_id: u64) {
        let Some(m) = self.msgs.get(&msg_id) else {
            return;
        };
        let Some(conn_id) = m.conn else { return };
        // Salvage what was already delivered.
        let remaining = m
            .flow
            .and_then(|h| self.net.flow_remaining(h))
            .unwrap_or(m.remaining_bits);
        if remaining <= 0.0 {
            // Already off the wire; its completion timer is pending.
            return;
        }
        if let Some(h) = m.flow {
            self.net.kill_flow(self.now, h);
        }
        self.msgs.get_mut(&msg_id).expect("present").remaining_bits = remaining;
        let routed = self.refresh_conn_route(conn_id);
        let m = self.msgs.get_mut(&msg_id).expect("checked above");
        let rerouted = routed && remaining > 0.0;
        if rerouted {
            m.stalled = false;
            m.flow = None;
            self.stats.reroutes += 1;
            let h = self.start_flow(conn_id, remaining, msg_id);
            self.msgs.get_mut(&msg_id).expect("still present").flow = Some(h);
        } else {
            m.stalled = true;
            m.flow = None;
            self.stats.stalls += 1;
        }
        self.telemetry.emit(|| Event::PathSwitch {
            t_ns: self.now.as_nanos(),
            conn: conn_id.0,
            rerouted,
        });
    }

    // ------------------------------------------------------------------
    // The run loop
    // ------------------------------------------------------------------

    /// The instant of the next pending event (flow completion or timer).
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        let t_flow = self.net.next_completion();
        let t_timer = self.peek_timer();
        match (t_flow, t_timer) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Advance to `target`, delivering everything due there.
    fn process_at<A: ClusterApp>(&mut self, app: &mut A, target: SimTime) {
        let dones = self.net.advance(target);
        self.now = target;
        for d in dones {
            self.flow_done(app, d.tag);
        }
        // Fire all timers due at or before `target`.
        while let Some(&Reverse((at, seq, _))) = self.timers.peek() {
            if at > self.now {
                break;
            }
            self.timers.pop();
            let timer = self
                .timer_payload
                .remove(&seq)
                .expect("timer payload present");
            match timer {
                Timer::App(tag) => app.on_timer(self, tag),
                Timer::Converge { link, up } => self.on_converge(link, up),
                Timer::CableEvent { link, up } => {
                    if up {
                        self.repair_cable(link);
                    } else {
                        self.fail_cable(link);
                    }
                }
                Timer::LocalCopyDone(msg_id) => self.complete_msg(app, msg_id),
            }
        }
    }

    /// Process the next pending event, if any. Lets callers interleave
    /// their own stop conditions (e.g. "run until this job finishes").
    pub fn step<A: ClusterApp>(&mut self, app: &mut A) -> bool {
        match self.next_event_time() {
            Some(t) => {
                self.process_at(app, t);
                true
            }
            None => false,
        }
    }

    /// Run until `deadline`, delivering completions and timers to `app`.
    /// Returns at the deadline with time advanced exactly there.
    pub fn run<A: ClusterApp>(&mut self, app: &mut A, deadline: SimTime) {
        assert!(deadline >= self.now, "deadline in the past");
        while let Some(t) = self.next_event_time() {
            if t > deadline {
                break;
            }
            self.process_at(app, t);
        }
        // Nothing left before the deadline.
        let dones = self.net.advance(deadline);
        self.now = deadline;
        for d in dones {
            self.flow_done(app, d.tag);
        }
    }

    /// A message's flow finished on the wire; charge the fixed latency
    /// before declaring the message complete.
    fn flow_done<A: ClusterApp>(&mut self, app: &mut A, msg_id: u64) {
        let Some(m) = self.msgs.get_mut(&msg_id) else {
            return;
        };
        m.flow = None;
        m.remaining_bits = 0.0;
        if m.latency == SimDuration::ZERO {
            self.complete_msg(app, msg_id);
        } else {
            let at = self.now + m.latency;
            self.push_timer(at, Timer::LocalCopyDone(msg_id));
        }
    }

    fn complete_msg<A: ClusterApp>(&mut self, app: &mut A, msg_id: u64) {
        let Some(m) = self.msgs.remove(&msg_id) else {
            return; // already completed via another path (e.g. rerouted twice)
        };
        if let Some(c) = m.conn {
            let conn = &mut self.conns[c.0 as usize];
            conn.wqe_bytes = (conn.wqe_bytes - m.size_bits / 8.0).max(0.0);
            conn.inflight = conn.inflight.saturating_sub(1);
        }
        self.stats.completed += 1;
        app.on_message_complete(
            self,
            MessageDone {
                msg_id,
                conn: m.conn,
                user: m.user,
                size_bits: m.size_bits,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpn_topology::HpnConfig;

    /// Collects completions; optionally records times.
    #[derive(Default)]
    struct Recorder {
        done: Vec<(u64, f64)>, // (user, seconds)
        timers: Vec<(u64, f64)>,
    }

    impl ClusterApp for Recorder {
        fn on_message_complete(&mut self, cs: &mut ClusterSim, d: MessageDone) {
            self.done.push((d.user, cs.now().as_secs_f64()));
        }
        fn on_timer(&mut self, cs: &mut ClusterSim, tag: u64) {
            self.timers.push((tag, cs.now().as_secs_f64()));
        }
    }

    fn sim() -> ClusterSim {
        ClusterSim::new(HpnConfig::tiny().build(), HashMode::Polarized)
    }

    #[test]
    fn cluster_sim_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ClusterSim>();
    }

    #[test]
    fn with_ctx_picks_allocator_and_recorder() {
        use hpn_telemetry::{EventLog, SharedRecorder};
        let log = EventLog::new();
        let ctx = SimCtx::new()
            .with_recorder(SharedRecorder::new(Box::new(log.clone())))
            .with_allocator(hpn_sim::AllocatorKind::Dense);
        let cs = ClusterSim::with_ctx(HpnConfig::tiny().build(), HashMode::Polarized, &ctx);
        assert_eq!(cs.net.allocator_kind(), hpn_sim::AllocatorKind::Dense);
        assert_eq!(log.len(), 1, "SimStart segment marker emitted");
        // The runtime itself can migrate to a worker thread.
        let moved = std::thread::spawn(move || cs.now()).join().expect("worker");
        assert_eq!(moved, SimTime::ZERO);
    }

    const GB: f64 = 8e9; // 1 gigabyte in bits

    #[test]
    fn single_message_completes_at_port_speed() {
        let mut cs = sim();
        let mut app = Recorder::default();
        let g = cs.establish_group((0, 0), (1, 0), 1, PathPolicy::Single, 49152);
        // 10GB over a 200Gbps port ⇒ 0.4 s, plus ~24µs of fixed latency
        // (20µs message overhead + 4 hops).
        cs.send_group(g, 10.0 * GB, 7);
        cs.run(&mut app, SimTime::from_secs(5));
        assert_eq!(app.done.len(), 1);
        let (user, t) = app.done[0];
        assert_eq!(user, 7);
        assert!((t - 0.400024).abs() < 1e-6, "completed at {t}s");
    }

    #[test]
    fn wqe_counter_rises_and_falls() {
        let mut cs = sim();
        let mut app = Recorder::default();
        let g = cs.establish_group((0, 0), (1, 0), 1, PathPolicy::Single, 49152);
        let cid = cs.group(g).conns[0];
        cs.send_group(g, GB, 0);
        assert!(
            (cs.conn(cid).wqe_bytes - 1e9).abs() < 1.0,
            "1GB outstanding"
        );
        assert_eq!(cs.conn(cid).inflight, 1);
        cs.run(&mut app, SimTime::from_secs(5));
        assert_eq!(cs.conn(cid).wqe_bytes, 0.0);
        assert_eq!(cs.conn(cid).inflight, 0);
    }

    #[test]
    fn least_wqe_spreads_over_disjoint_paths() {
        let mut cs = sim();
        let g = cs.establish_group((0, 0), (1, 0), 2, PathPolicy::LeastWqe, 49152);
        assert_eq!(cs.group(g).conns.len(), 2, "two planes");
        let a = cs.send_group(g, GB, 0);
        let b = cs.send_group(g, GB, 1);
        let (ca, cb) = (cs.msgs[&a].conn.unwrap(), cs.msgs[&b].conn.unwrap());
        assert_ne!(ca, cb, "second message avoids the loaded connection");
    }

    #[test]
    fn local_copy_uses_nvlink_speed() {
        let mut cs = sim();
        let mut app = Recorder::default();
        // 16Gbit / 1600Gbps = 10ms, plus the 20µs per-message overhead.
        cs.send_local(16e9, 1);
        cs.run(&mut app, SimTime::from_secs(1));
        assert_eq!(app.done.len(), 1);
        assert!((app.done[0].1 - 0.01002).abs() < 1e-9);
    }

    #[test]
    fn dual_tor_failover_completes_message() {
        let mut cs = sim();
        let mut app = Recorder::default();
        let g = cs.establish_group((0, 0), (1, 0), 1, PathPolicy::Single, 49152);
        let cid = cs.group(g).conns[0];
        let port = cs.conn(cid).route.port.unwrap();
        let access = cs.fabric.hosts[0].nic_up[0][port].unwrap();
        // 20GB at 200G = 0.8s unperturbed.
        cs.send_group(g, 20.0 * GB, 0);
        // Fail the access link at 0.2s.
        cs.run(&mut app, SimTime::from_millis(200));
        cs.fail_cable(access);
        cs.run(&mut app, SimTime::from_secs(10));
        assert_eq!(app.done.len(), 1, "message survived the failure");
        let t = app.done[0].1;
        // Stalled for the 0.5s convergence window, then finished on the
        // other port: total ≈ 0.8 + 0.5 = 1.3s.
        assert!((t - 1.3).abs() < 0.01, "completed at {t}s");
        assert_eq!(cs.stats().reroutes, 1);
        // And the connection's port flipped.
        assert_eq!(cs.conn(cid).route.port, Some(1 - port));
    }

    #[test]
    fn single_tor_stalls_until_repair() {
        let mut cfg = HpnConfig::tiny();
        cfg.dual_tor = false;
        let mut cs = ClusterSim::new(cfg.build(), HashMode::Polarized);
        let mut app = Recorder::default();
        let g = cs.establish_group((0, 0), (1, 0), 1, PathPolicy::Single, 49152);
        let access = cs.fabric.hosts[0].nic_up[0][0].unwrap();
        // 40GB at 400G (bonded single cable) = 0.8s unperturbed.
        cs.send_group(g, 40.0 * GB, 0);
        cs.run(&mut app, SimTime::from_millis(200));
        cs.fail_cable(access);
        // Two seconds of outage: nothing completes.
        cs.run(&mut app, SimTime::from_millis(2200));
        assert!(app.done.is_empty(), "single-ToR halts");
        cs.repair_cable(access);
        cs.run(&mut app, SimTime::from_secs(10));
        assert_eq!(app.done.len(), 1);
        let t = app.done[0].1;
        // 0.2s sent + 2.0s outage + 0.5s convergence + 0.6s remaining.
        assert!((t - 3.3).abs() < 0.02, "completed at {t}s");
    }

    #[test]
    fn sends_after_failure_use_surviving_port() {
        let mut cs = sim();
        let mut app = Recorder::default();
        let g = cs.establish_group((0, 0), (1, 0), 1, PathPolicy::Single, 49152);
        let cid = cs.group(g).conns[0];
        let port = cs.conn(cid).route.port.unwrap();
        let access = cs.fabric.hosts[0].nic_up[0][port].unwrap();
        cs.fail_cable(access);
        // Let BGP converge with no traffic in flight.
        cs.run(&mut app, SimTime::from_secs(1));
        cs.send_group(g, GB, 5);
        cs.run(&mut app, SimTime::from_secs(5));
        assert_eq!(app.done.len(), 1);
        assert_eq!(cs.stats().stalls, 0, "route refreshed before sending");
        assert_eq!(cs.conn(cid).route.port, Some(1 - port));
    }

    #[test]
    fn timers_fire_in_order() {
        let mut cs = sim();
        let mut app = Recorder::default();
        cs.set_timer(SimTime::from_millis(30), 3);
        cs.set_timer(SimTime::from_millis(10), 1);
        cs.set_timer(SimTime::from_millis(20), 2);
        cs.run(&mut app, SimTime::from_secs(1));
        let tags: Vec<u64> = app.timers.iter().map(|&(t, _)| t).collect();
        assert_eq!(tags, vec![1, 2, 3]);
        assert_eq!(cs.now(), SimTime::from_secs(1), "clock lands on deadline");
    }

    #[test]
    fn concurrent_messages_share_bottleneck_fairly() {
        let mut cs = sim();
        let mut app = Recorder::default();
        // Two messages from different source hosts to the SAME destination
        // NIC port share its 200G downlink.
        let g1 = cs.establish_group((0, 0), (2, 0), 1, PathPolicy::Single, 49152);
        let g2 = cs.establish_group((1, 0), (2, 0), 1, PathPolicy::Single, 49152);
        let p1 = cs.conn(cs.group(g1).conns[0]).route.port;
        // Force both onto the same destination plane by construction: if
        // they landed on different planes this test is vacuous, so check.
        let p2 = cs.conn(cs.group(g2).conns[0]).route.port;
        cs.send_group(g1, 10.0 * GB, 1);
        cs.send_group(g2, 10.0 * GB, 2);
        cs.run(&mut app, SimTime::from_secs(10));
        assert_eq!(app.done.len(), 2);
        if p1 == p2 {
            // Shared 200G downlink: both take ~0.8s instead of 0.4s.
            assert!(app.done.iter().all(|&(_, t)| (t - 0.8).abs() < 1e-3));
        }
    }

    #[test]
    fn run_respects_deadline() {
        let mut cs = sim();
        let mut app = Recorder::default();
        let g = cs.establish_group((0, 0), (1, 0), 1, PathPolicy::Single, 49152);
        cs.send_group(g, 100.0 * GB, 0); // 4s of traffic
        cs.run(&mut app, SimTime::from_secs(1));
        assert!(app.done.is_empty());
        assert_eq!(cs.now(), SimTime::from_secs(1));
        assert_eq!(cs.inflight(), 1);
    }
}
