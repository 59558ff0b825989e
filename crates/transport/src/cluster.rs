//! The cluster simulation runtime.
//!
//! [`ClusterSim`] owns the physical fluid network, the router and the
//! converged routing view, and exposes a message API to applications
//! (collectives, workloads, fault injectors). The control flow is
//! inversion-of-control: the application implements [`ClusterApp`] and the
//! runtime calls back on message completions and timers. Events are popped
//! before callbacks run, so callbacks receive `&mut ClusterSim` and can
//! freely send more messages.
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
use std::collections::{BinaryHeap, VecDeque};
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
    /// The value passed to `send*`: the app's handle on the message.
    pub user: u64,
    /// Message size in bits.
    pub size_bits: f64,
}

/// Application hooks. The runtime does not interpret a message's `user`
/// word or a timer's tag: they are the app's handles, returned verbatim.
pub trait ClusterApp {
    /// A message finished delivering.
    fn on_message_complete(&mut self, cs: &mut ClusterSim, done: MessageDone);
    /// An application timer set via [`ClusterSim::set_timer`] fired.
    fn on_timer(&mut self, _cs: &mut ClusterSim, _tag: u64) {}
}

/// A timer's payload. It rides in the heap entry; the entry's unique
/// sequence number decides ties, so this order is never consulted.
/// `MsgDone(slot)` delivers the message in `slot`: a local copy finished,
/// or a network message's fixed latency ran out after its last bit. Only
/// local copies' `MsgDone`s enter the heap; network messages' ride a
/// [`Lane`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Timer {
    App(u64),
    Converge { link: LinkIdx, up: bool },
    CableEvent { link: LinkIdx, up: bool },
    MsgDone(usize),
}

/// The pending `MsgDone`s of network messages with one fixed latency, as
/// `(at, seq, slot)` in push order.
///
/// A network message's `MsgDone` is due `delay` after its last bit, and
/// `delay` (`per_message + per_hop × hops`) takes a few values: one per
/// hop count under one [`LatencyModel`]. Entries of one lane are pushed
/// at nondecreasing `now`, so with `at = now + delay` and `seq` increasing
/// the lane is already in `(at, seq)` order, and its front is its least
/// entry. Merging the lane fronts with the heap top by `(at, seq)` fires
/// every timer in the order one heap would, without a heap push and pop
/// per message.
#[derive(Debug)]
struct Lane {
    delay: SimDuration,
    due: VecDeque<(SimTime, u64, usize)>,
}

/// Every timer pushed, and every timer fired with whether a lane held it,
/// as `(at, seq)`: what the lane-order test compares against one heap.
#[cfg(test)]
#[derive(Debug, Default)]
struct TimerLog {
    pushed: Vec<(SimTime, u64)>,
    fired: Vec<(SimTime, u64, bool)>,
}

/// A message in flight. It lives in one slot of [`ClusterSim`]'s message
/// table from send to completion. The slot is its handle inside the
/// runtime: its flow's [`FlowSpec::tag`] and its `MsgDone` timer carry it.
/// `id` is the send-order number that `send*` returns.
#[derive(Clone, Debug)]
struct Msg {
    /// Unique and increasing in send order; never reused, unlike slots.
    id: u64,
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
/// In-flight messages sit in a slot table: a completed message frees its
/// slot and the next send takes the most recently freed one, so the table
/// never holds more slots than the peak number of live messages, and
/// flows and timers reach their message by a plain index. Slot order is
/// therefore not send order. The only walks that need send order are
/// convergence's reroutes, whose `PathSwitch` events and new flow ids
/// follow it; they sort the messages they touch by id first.
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
    /// In-flight messages by slot; `None` marks a free slot. Not indexed
    /// by `id - base`: such a table would grow behind one stalled message.
    msgs: Vec<Option<Msg>>,
    /// The free slots of `msgs`, reused last-freed first.
    free_slots: Vec<usize>,
    /// The id the next message gets.
    next_msg: u64,
    /// Pending timers other than network messages' `MsgDone`s. These and
    /// the lanes' entries fire together in `(at, seq)` order.
    timers: BinaryHeap<Reverse<(SimTime, u64, Timer)>>,
    /// Network messages' pending `MsgDone`s, one lane per delay.
    lanes: Vec<Lane>,
    /// The next timer's sequence number, shared by the heap and the lanes.
    timer_seq: u64,
    #[cfg(test)]
    timer_log: TimerLog,
    stats: TransportStats,
    telemetry: SharedRecorder,
}

impl ClusterSim {
    /// Build a runtime over a fabric with the inert default context: no
    /// telemetry, the default (incremental) allocator. Shorthand for
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
        let mut net = fabric.net.to_flownet(ctx.allocator());
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
            msgs: Vec::new(),
            free_slots: Vec::new(),
            next_msg: 0,
            timers: BinaryHeap::new(),
            lanes: Vec::new(),
            timer_seq: 0,
            #[cfg(test)]
            timer_log: Default::default(),
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
        self.msgs.len() - self.free_slots.len()
    }

    /// Check that messages are conserved: every message sent has completed
    /// or is in flight, and every message in flight is stalled (a repair
    /// retries it), has a live flow, or has its `MsgDone` pending on the
    /// heap or a lane. A message that breaks the second rule would never
    /// complete, and its job would stall silently until its deadline.
    /// Returns a description of the first violation, in send order.
    pub fn audit_messages(&self) -> Result<(), String> {
        let (sent, completed) = (self.next_msg, self.stats.completed);
        let inflight = self.inflight() as u64;
        if sent != completed + inflight {
            return Err(format!(
                "{sent} messages sent, but {completed} completed and {inflight} in flight"
            ));
        }
        let mut pending = vec![false; self.msgs.len()];
        let lane_slots = self.lanes.iter().flat_map(|l| l.due.iter().map(|e| e.2));
        let heap_slots = self.timers.iter().filter_map(|Reverse((_, _, t))| match t {
            Timer::MsgDone(slot) => Some(*slot),
            _ => None,
        });
        for slot in lane_slots.chain(heap_slots) {
            pending[slot] = true;
        }
        let lost = self
            .msgs
            .iter()
            .zip(&pending)
            .filter_map(|(m, &pending)| {
                let m = m.as_ref()?;
                let flowing = m.flow.is_some_and(|h| self.net.flow_remaining(h).is_some());
                (!(m.stalled || flowing || pending)).then_some(m.id)
            })
            .min();
        match lost {
            Some(id) => Err(format!(
                "message {id} is in flight with no live flow, no pending delivery and no stall"
            )),
            None => Ok(()),
        }
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
        let conns = &self.conns;
        let pick = self.groups[group.0 as usize].pick(|c| conns[c.0 as usize].wqe_bytes);
        self.send_on(pick, size_bits, user)
    }

    /// Send over a specific connection.
    pub fn send_on(&mut self, conn_id: ConnectionId, size_bits: f64, user: u64) -> u64 {
        assert!(size_bits > 0.0, "empty message");
        let (id, slot) = self.claim();
        let conn = &mut self.conns[conn_id.0 as usize];
        conn.wqe_bytes += size_bits / 8.0;
        conn.inflight += 1;

        // Revalidate the route lazily: health may have changed since the
        // connection was last used.
        let route_up = |cs: &Self| {
            let links = &cs.conns[conn_id.0 as usize].route.links;
            links.iter().all(|&l| cs.health.is_up(l))
        };
        let up = route_up(self) || (self.refresh_conn_route(conn_id) && route_up(self));
        let flow = if up {
            Some(self.start_flow(conn_id, size_bits, slot))
        } else {
            self.stats.stalls += 1;
            None
        };
        let hops = self.conns[conn_id.0 as usize].route.links.len() as u64;
        let latency = self.latency.per_message + self.latency.per_hop.saturating_mul(hops);
        self.msgs[slot] = Some(Msg {
            id,
            conn: Some(conn_id),
            user,
            flow,
            size_bits,
            remaining_bits: size_bits,
            latency,
            stalled: !up,
        });
        id
    }

    /// A same-GPU "send" (memory copy at NVLink speed) — collectives use
    /// this for rank-local reductions so their code stays uniform.
    pub fn send_local(&mut self, size_bits: f64, user: u64) -> u64 {
        assert!(size_bits > 0.0, "empty message");
        let (id, slot) = self.claim();
        let dur = SimDuration::from_secs_f64(size_bits / self.fabric.host_params.nvlink_bps)
            + self.latency.per_message;
        self.push_timer(self.now + dur, Timer::MsgDone(slot));
        self.msgs[slot] = Some(Msg {
            id,
            conn: None,
            user,
            flow: None,
            size_bits,
            remaining_bits: size_bits,
            latency: SimDuration::ZERO,
            stalled: false,
        });
        id
    }

    /// The id and slot of a new message. The slot is the most recently
    /// freed one, or a new one at the end when none is free; the caller
    /// fills it.
    fn claim(&mut self) -> (u64, usize) {
        let id = self.next_msg;
        self.next_msg += 1;
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.msgs.push(None);
            self.msgs.len() - 1
        });
        (id, slot)
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

    /// Start the flow of the message in `slot` on a connection's path.
    fn start_flow(
        &mut self,
        conn_id: ConnectionId,
        size_bits: f64,
        slot: usize,
    ) -> hpn_sim::FlowHandle {
        let conn = &self.conns[conn_id.0 as usize];
        self.net.start_flow(
            self.now,
            FlowSpec {
                path: conn.path,
                size_bits,
                demand_bps: conn.path_demand_bps,
                tag: slot as u64,
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
        let seq = self.next_seq();
        #[cfg(test)]
        self.timer_log.pushed.push((at, seq));
        self.timers.push(Reverse((at, seq, t)));
    }

    /// Schedule the `MsgDone` of the network message in `slot`, `delay`
    /// from now, on the lane of that delay.
    fn push_lane(&mut self, delay: SimDuration, slot: usize) {
        let entry = (self.now + delay, self.next_seq(), slot);
        #[cfg(test)]
        self.timer_log.pushed.push((entry.0, entry.1));
        match self.lanes.iter_mut().find(|l| l.delay == delay) {
            Some(lane) => lane.due.push_back(entry),
            None => self.lanes.push(Lane {
                delay,
                due: VecDeque::from([entry]),
            }),
        }
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.timer_seq;
        self.timer_seq += 1;
        seq
    }

    /// The least pending timer by `(at, seq)` among the heap top and the
    /// lane fronts: its instant and sequence number, and `None` if it is
    /// the heap's or the index of its lane.
    fn earliest_timer(&self) -> Option<(SimTime, u64, Option<usize>)> {
        let mut best = self
            .timers
            .peek()
            .map(|&Reverse((at, seq, _))| (at, seq, None));
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(&(at, seq, _)) = lane.due.front() {
                if best.is_none_or(|(b_at, b_seq, _)| (at, seq) < (b_at, b_seq)) {
                    best = Some((at, seq, Some(i)));
                }
            }
        }
        best
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
    /// t=10s") before starting the run loop. `hpn_faults::schedule` replays
    /// a whole fault plan this way.
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
        // Down: re-issue every in-flight message whose path crosses the
        // link. Up: retry every stalled message. Either way in send order,
        // which slot order is not.
        let conns = &self.conns;
        let mut hit: Vec<(u64, usize)> = self
            .msgs
            .iter()
            .enumerate()
            .filter_map(|(slot, m)| {
                let m = m.as_ref()?;
                let affected = if up {
                    m.stalled
                } else {
                    !m.stalled
                        && m.conn
                            .is_some_and(|c| conns[c.0 as usize].route.links.contains(&link))
                };
                affected.then_some((m.id, slot))
            })
            .collect();
        hit.sort_unstable();
        for (_, slot) in hit {
            self.reroute_msg(slot);
        }
    }

    fn reroute_msg(&mut self, slot: usize) {
        let m = self.msgs[slot]
            .as_ref()
            .expect("a rerouted message is live");
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
        let rerouted = self.refresh_conn_route(conn_id);
        let flow = if rerouted {
            self.stats.reroutes += 1;
            Some(self.start_flow(conn_id, remaining, slot))
        } else {
            self.stats.stalls += 1;
            None
        };
        let m = self.msgs[slot]
            .as_mut()
            .expect("a rerouted message is live");
        m.remaining_bits = remaining;
        m.flow = flow;
        m.stalled = !rerouted;
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
    fn next_event_time(&mut self) -> Option<SimTime> {
        let t_flow = self.net.next_completion();
        let t_timer = self.earliest_timer().map(|(at, ..)| at);
        match (t_flow, t_timer) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Advance to `target`, delivering everything due there.
    fn process_at<A: ClusterApp>(&mut self, app: &mut A, target: SimTime) {
        self.advance_to(app, target);
        // Fire all timers due at or before `target`.
        while let Some((at, _seq, src)) = self.earliest_timer() {
            if at > self.now {
                break;
            }
            #[cfg(test)]
            self.timer_log.fired.push((at, _seq, src.is_some()));
            let timer = match src {
                None => self.timers.pop().map(|Reverse((_, _, t))| t),
                Some(i) => self.lanes[i]
                    .due
                    .pop_front()
                    .map(|(_, _, slot)| Timer::MsgDone(slot)),
            }
            .expect("the earliest timer is pending");
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
                Timer::MsgDone(slot) => self.complete_msg(app, slot),
            }
        }
    }

    /// Integrate the fluid net to `target` and deliver the flows that
    /// finished on the way.
    fn advance_to<A: ClusterApp>(&mut self, app: &mut A, target: SimTime) {
        let dones = self.net.advance(target);
        self.now = target;
        for d in dones {
            self.flow_done(app, d.tag as usize);
        }
    }

    /// The run loop: deliver completions and timers to `app`, one instant
    /// at a time, until `done(app)` holds or nothing is left before
    /// `deadline`. `done` is checked before each instant, so on `true` the
    /// clock stays at the instant that satisfied it. On `false` the clock
    /// has advanced exactly to `deadline`.
    pub fn run_until<A: ClusterApp>(
        &mut self,
        app: &mut A,
        deadline: SimTime,
        mut done: impl FnMut(&A) -> bool,
    ) -> bool {
        assert!(deadline >= self.now, "deadline in the past");
        while !done(app) {
            match self.next_event_time() {
                Some(t) if t <= deadline => self.process_at(app, t),
                _ => {
                    self.advance_to(app, deadline);
                    return false;
                }
            }
        }
        true
    }

    /// Run until `deadline`, delivering completions and timers to `app`.
    /// Returns at the deadline with time advanced exactly there.
    pub fn run<A: ClusterApp>(&mut self, app: &mut A, deadline: SimTime) {
        self.run_until(app, deadline, |_| false);
    }

    /// A message's flow finished on the wire; charge the fixed latency
    /// before declaring the message complete.
    fn flow_done<A: ClusterApp>(&mut self, app: &mut A, slot: usize) {
        let m = self.msgs[slot].as_mut().expect("a flow's message is live");
        m.flow = None;
        m.remaining_bits = 0.0;
        if m.latency == SimDuration::ZERO {
            self.complete_msg(app, slot);
        } else {
            let delay = m.latency;
            self.push_lane(delay, slot);
        }
    }

    /// Deliver the message in `slot` and free the slot.
    fn complete_msg<A: ClusterApp>(&mut self, app: &mut A, slot: usize) {
        let m = self.msgs[slot].take().expect("a delivered message is live");
        self.free_slots.push(slot);
        if let Some(c) = m.conn {
            let conn = &mut self.conns[c.0 as usize];
            conn.wqe_bytes = (conn.wqe_bytes - m.size_bits / 8.0).max(0.0);
            conn.inflight = conn.inflight.saturating_sub(1);
        }
        self.stats.completed += 1;
        app.on_message_complete(
            self,
            MessageDone {
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

    /// The live message with send-order id `id`.
    fn msg(cs: &ClusterSim, id: u64) -> &Msg {
        let m = cs.msgs.iter().flatten().find(|m| m.id == id);
        m.expect("a live message")
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
        let (ca, cb) = (msg(&cs, a).conn.unwrap(), msg(&cs, b).conn.unwrap());
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
    fn reroutes_follow_send_order_when_slots_are_reused() {
        let mut cs = sim();
        let mut app = Recorder::default();
        let g = cs.establish_group((0, 0), (1, 0), 1, PathPolicy::Single, 49152);
        let cid = cs.group(g).conns[0];
        let port = cs.conn(cid).route.port.unwrap();
        let access = cs.fabric.hosts[0].nic_up[0][port].unwrap();
        // A short message finishes first and frees slot 0; the next send
        // takes it, so slot order (3, 1, 2) is not send order.
        cs.send_group(g, 1e6, 0);
        let mut ids = vec![
            cs.send_group(g, 20.0 * GB, 1),
            cs.send_group(g, 20.0 * GB, 2),
        ];
        cs.run(&mut app, SimTime::from_millis(100));
        assert_eq!(app.done.len(), 1);
        ids.push(cs.send_group(g, 20.0 * GB, 3));
        let by_slot: Vec<u64> = cs.msgs.iter().flatten().map(|m| m.id).collect();
        assert_eq!(by_slot, [3, 1, 2]);
        // The cut converges at 0.6 s; every live message crosses it.
        cs.fail_cable(access);
        cs.run(&mut app, SimTime::from_millis(700));
        assert_eq!(cs.stats().reroutes, 3);
        let flows: Vec<hpn_sim::FlowHandle> = ids
            .iter()
            .map(|&id| msg(&cs, id).flow.expect("rerouted onto the other port"))
            .collect();
        assert!(
            flows.windows(2).all(|w| w[0] < w[1]),
            "reroutes restart flows in send order: {flows:?}"
        );
        assert_eq!(cs.inflight(), 3);
        assert_eq!(cs.inflight(), cs.msgs.iter().flatten().count());
    }

    #[test]
    fn message_slots_stay_within_peak_live_messages() {
        const MAX_LIVE: usize = 8;
        const SENDS: u64 = 500;
        let mut cs = sim();
        let mut app = Recorder::default();
        let g = cs.establish_group((0, 0), (1, 0), 2, PathPolicy::LeastWqe, 49152);
        let mut peak = 0;
        for i in 0..SENDS {
            // Sizes vary, so messages finish out of send order and free
            // their slots in scattered order.
            let bits = ((i * 7) % 5 + 1) as f64 * 1e6;
            if i % 2 == 0 {
                cs.send_group(g, bits, i);
            } else {
                cs.send_local(bits, i);
            }
            peak = peak.max(cs.inflight());
            if cs.inflight() == MAX_LIVE {
                let done = app.done.len();
                let deadline = cs.now() + SimDuration::from_secs(1);
                assert!(cs.run_until(&mut app, deadline, |a| a.done.len() > done));
            }
        }
        cs.run(&mut app, cs.now() + SimDuration::from_secs(1));
        assert_eq!(app.done.len(), SENDS as usize);
        assert_eq!(cs.inflight(), 0);
        assert_eq!(peak, MAX_LIVE);
        assert_eq!(cs.msgs.len(), peak, "freed slots are reused");
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

    /// Drives a seeded mix through one runtime: from every callback it
    /// sends network messages over groups of several hop counts and local
    /// copies, and sets app timers now, at the next flow completion, and
    /// one message delay after either. So heap timers and lane `MsgDone`s
    /// fall due at the same instants with their sequence numbers in both
    /// orders. Now and then it changes the latency model.
    struct Mix {
        rng: hpn_sim::Xoshiro256,
        groups: Vec<GroupId>,
        /// The groups' route lengths.
        hops: Vec<u64>,
        budget: u32,
        latency_changes: u32,
    }

    impl Mix {
        fn act(&mut self, cs: &mut ClusterSim) {
            for _ in 0..1 + self.rng.next_below(3) {
                if self.budget == 0 {
                    return;
                }
                self.budget -= 1;
                let h = self.hops[self.rng.next_below(self.hops.len() as u64) as usize];
                let delay = cs.latency.per_message + cs.latency.per_hop.saturating_mul(h);
                let bits = (1 + self.rng.next_below(40)) as f64 * 1e5;
                match self.rng.next_below(9) {
                    0..=2 => {
                        let g = self.groups[self.rng.next_below(self.groups.len() as u64) as usize];
                        cs.send_group(g, bits, 0);
                    }
                    3 => {
                        cs.send_local(bits, 0);
                    }
                    4 => cs.set_timer(cs.now(), 0),
                    5 => cs.set_timer(cs.now() + delay, 0),
                    6 | 7 => {
                        if let Some(t) = cs.net.next_completion() {
                            cs.set_timer(t, 0);
                            cs.set_timer(t + delay, 0);
                        }
                    }
                    _ => {
                        if self.rng.chance(0.2) {
                            self.latency_changes += 1;
                            let us = 1 + self.rng.next_below(3);
                            cs.latency = LatencyModel {
                                per_hop: SimDuration::from_micros(us),
                                per_message: SimDuration::from_micros(10 * us),
                            };
                        }
                    }
                }
            }
        }
    }

    impl ClusterApp for Mix {
        fn on_message_complete(&mut self, cs: &mut ClusterSim, _: MessageDone) {
            self.act(cs);
        }
        fn on_timer(&mut self, cs: &mut ClusterSim, _: u64) {
            self.act(cs);
        }
    }

    /// Heap timers and lane `MsgDone`s fire in the order one heap ordered
    /// by `(at, seq)` would fire them: every timer pushed by the end,
    /// sorted. The mix makes heap and lane entries (and entries of two
    /// lanes) fall due at one instant in both sequence orders, so a merge
    /// that broke ties any other way would reorder some pair.
    #[test]
    fn lanes_and_heap_fire_in_single_heap_order() {
        let mut cs = sim();
        // Pairs under one ToR, across segments, across rails and within
        // a host: routes of several lengths.
        let pairs = [
            ((0, 0), (1, 0)),
            ((0, 0), (5, 0)),
            ((2, 1), (6, 1)),
            ((1, 0), (3, 1)),
            ((0, 0), (0, 1)),
        ];
        let mut groups = Vec::new();
        let mut hops: Vec<u64> = Vec::new();
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            let g = cs.establish_group(src, dst, 1, PathPolicy::Single, 49152 + i as u16);
            hops.push(cs.conn(cs.group(g).conns[0]).route.links.len() as u64);
            groups.push(g);
        }
        hops.sort_unstable();
        hops.dedup();
        assert!(hops.len() >= 3, "routes of too few lengths: {hops:?}");
        let mut app = Mix {
            rng: hpn_sim::Xoshiro256::seed_from_u64(0x1a7e),
            groups,
            hops: hops.clone(),
            budget: 4000,
            latency_changes: 0,
        };
        for _ in 0..8 {
            app.act(&mut cs);
        }
        let mut deadline = SimTime::ZERO;
        while app.budget > 0 || cs.inflight() > 0 {
            deadline += SimDuration::from_millis(1);
            cs.run(&mut app, deadline);
            assert!(deadline < SimTime::from_secs(10), "the mix never drains");
        }
        let TimerLog { pushed, fired } = &cs.timer_log;
        let mut reference: Vec<(SimTime, u64)> = pushed
            .iter()
            .copied()
            .filter(|&(at, _)| at <= cs.now())
            .collect();
        reference.sort_unstable();
        let order: Vec<(SimTime, u64)> = fired.iter().map(|&(at, seq, _)| (at, seq)).collect();
        assert_eq!(order, reference, "firing order");
        // The ties the merge must break: same instant, heap and lane (and
        // lane and lane) next to each other, lower sequence number first.
        let (mut lane_heap, mut heap_lane) = (0, 0);
        for w in fired.windows(2) {
            if w[0].0 == w[1].0 {
                match (w[0].2, w[1].2) {
                    (true, false) => lane_heap += 1,
                    (false, true) => heap_lane += 1,
                    _ => {}
                }
            }
        }
        assert!(
            lane_heap >= 10 && heap_lane >= 10,
            "too few ties: lane then heap {lane_heap}, heap then lane {heap_lane}"
        );
        assert!(app.latency_changes > 3, "latency never changed");
        assert!(cs.lanes.len() > hops.len(), "lanes: {}", cs.lanes.len());
        assert!(
            cs.lanes.iter().all(|l| l.due.is_empty()) && cs.timers.is_empty(),
            "timers left pending"
        );
        cs.audit_messages().expect("messages are conserved");
    }

    /// The audit passes while every message in flight has a way to
    /// complete, and names the message that lost its flow or its pending
    /// delivery.
    #[test]
    fn audit_flags_a_message_nothing_will_deliver() {
        let mut cs = sim();
        let mut app = Recorder::default();
        let g = cs.establish_group((0, 0), (1, 0), 1, PathPolicy::Single, 49152);
        let long = cs.send_group(g, 10.0 * GB, 0);
        let short = cs.send_group(g, 1e6, 1);
        cs.send_local(1e6, 2);
        assert_eq!(cs.audit_messages(), Ok(()));
        // The short message leaves the wire; its delivery waits on a lane.
        let t = cs.net.next_completion().expect("flows progress");
        cs.run(&mut app, t);
        assert!(msg(&cs, short).flow.is_none() && app.done.is_empty());
        assert_eq!(cs.audit_messages(), Ok(()));
        // A lane that loses the entry strands the message.
        let lanes = std::mem::take(&mut cs.lanes);
        let err = cs.audit_messages().expect_err("no flow, no timer");
        assert!(err.contains(&format!("message {short} ")), "{err}");
        cs.lanes = lanes;
        // So does a flow killed behind the runtime's back.
        let h = msg(&cs, long)
            .flow
            .expect("the long message is on the wire");
        assert!(cs.net.kill_flow(cs.now(), h));
        let err = cs.audit_messages().expect_err("no flow, no timer");
        assert!(err.contains(&format!("message {long} ")), "{err}");
        // And a completion counted twice breaks sent = completed + in flight.
        let mut cs = sim();
        cs.send_local(1e6, 0);
        cs.stats.completed += 1;
        let err = cs.audit_messages().expect_err("counts disagree");
        assert!(
            err.contains("1 messages sent, but 1 completed and 1 in flight"),
            "{err}"
        );
    }

    #[test]
    fn run_until_stops_at_the_instant_done_holds() {
        let mut cs = sim();
        let mut app = Recorder::default();
        cs.set_timer(SimTime::from_millis(10), 1);
        cs.set_timer(SimTime::from_millis(20), 2);
        let deadline = SimTime::from_secs(1);
        assert!(cs.run_until(&mut app, deadline, |a| !a.timers.is_empty()));
        assert_eq!(cs.now(), SimTime::from_millis(10), "clock stays put");
        assert!(!cs.run_until(&mut app, deadline, |a| a.timers.len() > 2));
        assert_eq!(app.timers.len(), 2);
        assert_eq!(cs.now(), deadline, "clock lands on deadline");
    }
}
