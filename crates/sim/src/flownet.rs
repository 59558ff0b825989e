//! Fluid (rate-based) network model with max-min fair bandwidth sharing.
//!
//! A [`FlowNet`] holds directed links with finite capacity and a set of
//! active flows, each following a fixed path of links. Paths are interned
//! ([`crate::path`]): a flow spec carries a 4-byte [`PathId`] rather than a
//! link vector, and the deduplicated link sequences live in the net's
//! [`crate::path::PathInterner`].
//!
//! Rates are assigned by **progressive filling**: all flows ramp up together
//! until a link saturates or a flow reaches its source demand; saturated
//! flows freeze and the rest keep filling. This yields the classic max-min
//! fair allocation, which is the standard fluid approximation for
//! congestion-controlled traffic (RDMA with DCQCN in the paper's clusters).
//! The solver lives behind the [`crate::alloc::RateAllocator`] trait; by
//! default an incremental implementation recomputes only the connected
//! component of flows around each perturbation (see [`crate::alloc`]).
//!
//! **One solve per simulated instant.** Mutations (flow starts, kills and
//! completions, link up/down and capacity changes) only mark the allocator
//! dirty; rates are solved when something reads them: a positive-step
//! integration, [`FlowNet::next_completion`], [`FlowNet::flow_rate`],
//! [`FlowNet::aggregate_rate`], an attached tail estimator, or an explicit
//! [`FlowNet::recompute_if_dirty`]. A collective step that starts or ends
//! hundreds of flows at one instant therefore costs one solve, not one per
//! flow. This is exact: a component's rates and link aggregates are a pure
//! function of its live flows, so solving the same final state once gives
//! the bits that solving after every change would.
//!
//! Two measurement facilities drive the paper's figures:
//!
//! * **Carried bits per link** — integrated rate, for the Aggregation-switch
//!   traffic statistics of Fig 15b.
//! * **Queue model per link** — the *offered* load on a link is the sum of
//!   its flows' source demands; while offered load exceeds capacity the
//!   queue integrates the excess (clamped to the buffer, with overflow
//!   counted as drops), and drains otherwise. This captures the persistent
//!   queue build-up on hash-imbalanced ToR downlinks that Fig 13/14 report,
//!   without simulating individual packets.

use crate::alloc::{AllocCtx, AllocatorKind, HotSet, RateAllocator};
use crate::arena::Flow;
use crate::path::{PathId, PathInterner};
use crate::probe::NetProbe;
use crate::sketch::QuantileSketch;
use crate::stats::RecomputeScope;
use crate::tail::{LinkView, TailEstimator};
use crate::time::SimTime;

/// Index of a link within a [`FlowNet`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub u32);

/// Handle to a flow: its slot in the net's flow table and its id.
///
/// Valid until the flow completes or is killed. The slot is then reused,
/// but the id is not, so a stale handle finds no flow rather than the
/// slot's next one. Handles order by id, i.e. by start order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowHandle {
    id: u64,
    slot: u32,
}

impl FlowHandle {
    /// The flow's id: the counter telemetry prints, unique over the net's
    /// lifetime and increasing in start order.
    pub fn id(self) -> u64 {
        self.id
    }
}

/// Description of a flow to inject into the network.
#[derive(Clone, Copy, Debug)]
pub struct FlowSpec {
    /// Interned path, from [`FlowNet::intern_path`] on the same net.
    pub path: PathId,
    /// Flow size in bits. Must be positive and finite.
    pub size_bits: f64,
    /// Maximum sending rate in bits/s (e.g. the 400Gbps NIC limit).
    /// `f64::INFINITY` means "only network-limited".
    pub demand_bps: f64,
    /// Opaque tag returned on completion; carries application context.
    pub tag: u64,
}

/// Per-link state and accumulated statistics.
#[derive(Clone, Debug)]
pub struct LinkState {
    /// Nominal capacity in bits/s.
    pub nominal_bps: f64,
    /// Whether the link is administratively/physically up.
    pub up: bool,
    /// Queue buffer size in bits (excess beyond this is dropped).
    pub buffer_bits: f64,
    /// Current queue occupancy in bits.
    pub queue_bits: f64,
    /// Total bits carried (integrated allocated rate).
    pub carried_bits: f64,
    /// Total bits dropped at this link's queue.
    pub dropped_bits: f64,
    /// Peak queue occupancy observed.
    pub peak_queue_bits: f64,
    /// Current number of flows crossing this link (updated on recompute).
    pub active_flows: usize,
    /// Sum of allocated flow rates (bits/s), updated on recompute.
    pub allocated_bps: f64,
    /// Sum of flow demands (bits/s), updated on recompute; the queue model's
    /// offered load.
    pub offered_bps: f64,
}

impl LinkState {
    /// Effective capacity: nominal when up, zero when down.
    pub fn capacity_bps(&self) -> f64 {
        if self.up {
            self.nominal_bps
        } else {
            0.0
        }
    }

    /// Utilization of nominal capacity in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.nominal_bps > 0.0 {
            self.allocated_bps / self.nominal_bps
        } else {
            0.0
        }
    }
}

/// Completion record returned by [`FlowNet::advance`].
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// Handle of the completed flow.
    pub handle: FlowHandle,
    /// The application tag from the flow's spec.
    pub tag: u64,
    /// When the flow was injected.
    pub started: SimTime,
    /// Completion time (the `advance` target).
    pub finished: SimTime,
    /// Flow size in bits.
    pub size_bits: f64,
}

/// Tolerance (bits) under which a flow counts as finished; absorbs the
/// floating-point residue of advancing exactly to a computed finish time.
const DONE_EPS_BITS: f64 = 1e-3;
/// Tolerance (bits/s) for link saturation in progressive filling.
pub(crate) const RATE_EPS: f64 = 1e-6;
/// Standing-queue relaxation time constant when a link is not over-offered
/// (models congestion-control backoff draining the queue).
const QUEUE_RELAX_TAU_S: f64 = 0.05;

/// The fluid network: links, flows, and fair-share rate allocation.
///
/// ```
/// use hpn_sim::{FlowNet, FlowSpec, SimTime};
///
/// let mut net = FlowNet::new();
/// let link = net.add_link(100e9, f64::INFINITY); // 100Gbps
/// let path = net.intern_path(&[link]);
/// net.start_flow(SimTime::ZERO, FlowSpec {
///     path,
///     size_bits: 100e9, // 100 Gbit
///     demand_bps: f64::INFINITY,
///     tag: 7,
/// });
/// let done_at = net.next_completion().unwrap();
/// assert_eq!(done_at.as_nanos(), 1_000_000_000, "exactly one second");
/// assert_eq!(net.advance(done_at)[0].tag, 7);
/// ```
pub struct FlowNet {
    links: Vec<LinkState>,
    /// The flow table (see [`crate::arena`]): `None` marks a free slot.
    flows: Vec<Option<Flow>>,
    /// Per slot of `flows`: the allocated rate in bits/s (0 at a free slot)
    /// and the bits not yet delivered.
    rate: Vec<f64>,
    remaining: Vec<f64>,
    /// The free slots of `flows`, reused last-freed first.
    free: Vec<u32>,
    /// Flows seen at or below [`DONE_EPS_BITS`] since the last `advance`,
    /// which removes them: integration pushes each flow it brings there,
    /// and `start_flow` a flow that starts there. Entries may repeat or
    /// name a flow killed since; `advance` drops those.
    finished: Vec<FlowHandle>,
    paths: PathInterner,
    next_flow: u64,
    /// Time up to which all flow progress and queue integrals are applied.
    clock: SimTime,
    rates_dirty: bool,
    /// Links that currently carry flows or hold a non-empty queue; the only
    /// links `integrate_to` must touch. Unordered: each link integrates
    /// from its own fields only, so visit order never shows in results.
    hot_links: HotSet,
    allocator: Box<dyn RateAllocator>,
    scope: RecomputeScope,
    probe: Option<Box<dyn NetProbe + Send>>,
    estimator: Option<Box<dyn TailEstimator>>,
    /// Streaming sketch of completed-flow FCTs (seconds). Always on — one
    /// log-bucket update per completion — so figures and oracles can read
    /// tail quantiles without pre-arranging instrumentation.
    fct: QuantileSketch,
}

impl Default for FlowNet {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowNet {
    /// An empty network at time zero, using the default allocator
    /// ([`AllocatorKind::Incremental`]); [`FlowNet::with_allocator`] picks
    /// another one.
    pub fn new() -> Self {
        Self::with_allocator(AllocatorKind::default())
    }

    /// An empty network using the given rate allocator.
    pub fn with_allocator(kind: AllocatorKind) -> Self {
        Self::with_allocator_box(kind.build())
    }

    /// An empty network using a caller-supplied allocator instance.
    ///
    /// This is the injection point the correctness harness (`hpn-check`)
    /// uses to wrap a stock allocator in a deliberately buggy mutant and
    /// prove the invariant oracles catch it; production code should go
    /// through [`FlowNet::with_allocator`].
    pub fn with_allocator_box(allocator: Box<dyn RateAllocator>) -> Self {
        FlowNet {
            links: Vec::new(),
            flows: Vec::new(),
            rate: Vec::new(),
            remaining: Vec::new(),
            free: Vec::new(),
            finished: Vec::new(),
            paths: PathInterner::new(),
            next_flow: 0,
            clock: SimTime::ZERO,
            rates_dirty: false,
            hot_links: HotSet::default(),
            allocator,
            scope: RecomputeScope::default(),
            probe: None,
            estimator: None,
            fct: QuantileSketch::default(),
        }
    }

    /// Attach an observation probe (see [`crate::probe`]). Pass `None` to
    /// detach. A net without a probe pays no observation cost. The probe
    /// must be `Send` so a `FlowNet` (and every session built on one) can
    /// move between threads — e.g. experiment cells on the worker pool.
    pub fn set_probe(&mut self, probe: Option<Box<dyn NetProbe + Send>>) {
        self.probe = probe;
    }

    /// Whether a probe is attached.
    pub fn has_probe(&self) -> bool {
        self.probe.is_some()
    }

    /// Detach and return the probe, if any — lets callers recover state a
    /// probe accumulated (e.g. a counting probe's totals).
    pub fn take_probe(&mut self) -> Option<Box<dyn NetProbe + Send>> {
        self.probe.take()
    }

    /// Attach a tail-latency estimator (see [`crate::tail`]). Pass `None`
    /// to detach. Each subsequent [`FlowNet::start_flow`] feeds the
    /// estimator a [`LinkView`] snapshot of the flow's path, taken after
    /// the rate allocator has accounted for the new flow — which costs one
    /// extra (otherwise lazy) rate recompute per injection, so a net
    /// without an estimator pays nothing.
    pub fn set_estimator(&mut self, estimator: Option<Box<dyn TailEstimator>>) {
        self.estimator = estimator;
    }

    /// Whether a tail estimator is attached.
    pub fn has_estimator(&self) -> bool {
        self.estimator.is_some()
    }

    /// Read-only view of the attached estimator, if any.
    pub fn estimator(&self) -> Option<&dyn TailEstimator> {
        self.estimator.as_deref()
    }

    /// Detach and return the estimator, if any — callers recover its
    /// accumulated prediction sketch.
    pub fn take_estimator(&mut self) -> Option<Box<dyn TailEstimator>> {
        self.estimator.take()
    }

    /// Streaming sketch of the FCTs (seconds) of every *completed* flow —
    /// killed flows are excluded. See [`crate::sketch`].
    pub fn fct_sketch(&self) -> &QuantileSketch {
        &self.fct
    }

    /// Which rate allocator this net runs.
    pub fn allocator_kind(&self) -> AllocatorKind {
        self.allocator.kind()
    }

    /// Recompute-scope counters accumulated by the allocator: how many
    /// flows/links each rate recompute touched. Snapshot and diff with
    /// [`RecomputeScope::since`] to attribute work to a window.
    pub fn alloc_scope(&self) -> RecomputeScope {
        self.scope
    }

    /// Internal clock: everything is integrated up to this instant.
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Make room for `additional` more links, so a net built link by link
    /// allocates its link table once instead of regrowing it.
    pub fn reserve_links(&mut self, additional: usize) {
        self.links.reserve_exact(additional);
    }

    /// Add a link with the given capacity (bits/s) and queue buffer (bits).
    pub fn add_link(&mut self, capacity_bps: f64, buffer_bits: f64) -> LinkId {
        assert!(capacity_bps >= 0.0, "negative link capacity");
        let id = LinkId(self.links.len() as u32);
        self.links.push(LinkState {
            nominal_bps: capacity_bps,
            up: true,
            buffer_bits,
            queue_bits: 0.0,
            carried_bits: 0.0,
            dropped_bits: 0.0,
            peak_queue_bits: 0.0,
            active_flows: 0,
            allocated_bps: 0.0,
            offered_bps: 0.0,
        });
        self.allocator.on_link_added(id);
        id
    }

    /// Intern a path (non-empty sequence of known links) for use in flow
    /// specs. Interning the same sequence twice returns the same id.
    ///
    /// # Panics
    /// Panics on an empty path or a link this net does not have.
    pub fn intern_path(&mut self, links: &[LinkId]) -> PathId {
        for l in links {
            assert!(
                (l.0 as usize) < self.links.len(),
                "flow path references unknown link {l:?}"
            );
        }
        self.paths.intern(links)
    }

    /// Resolve an interned path back to its link sequence.
    pub fn path(&self, id: PathId) -> &[LinkId] {
        self.paths.get(id)
    }

    /// Number of distinct interned paths.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// A frozen snapshot of every interned path (insertion order,
    /// `Arc`-shared) — the cacheable route-set artifact of this net. See
    /// [`FlowNet::seed_paths`].
    pub fn path_snapshot(&self) -> crate::path::PathSet {
        self.paths.snapshot()
    }

    /// Warm a **fresh** net's interner from a snapshot taken off an
    /// identical fabric: every path is re-interned in the donor's
    /// insertion order, so later `intern_path` calls for the same routes
    /// become lookups instead of allocations. `PathId` values never reach
    /// simulation output bytes (events carry path *lengths*; allocator
    /// math is id-independent), so seeding cannot change results — see
    /// DESIGN.md §9 for the full argument.
    ///
    /// # Panics
    /// Panics if this net already interned paths, or if the snapshot
    /// references a link this net does not have.
    pub fn seed_paths(&mut self, set: &crate::path::PathSet) {
        if let Some(max) = set.max_link() {
            assert!(
                (max.0 as usize) < self.links.len(),
                "path snapshot references unknown link {max:?}"
            );
        }
        self.paths.seed(set);
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of active flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len() - self.free.len()
    }

    /// Read-only view of a link's state.
    ///
    /// The rate-derived fields — `active_flows`, `allocated_bps`,
    /// `offered_bps` and so [`LinkState::utilization`] — are current only
    /// after a solve: same-instant mutations leave them stale until the
    /// next reader solves, so call [`FlowNet::recompute_if_dirty`] (or a
    /// solving reader such as [`FlowNet::aggregate_rate`]) first. The
    /// integrated fields (`queue_bits`, `carried_bits`, `dropped_bits`,
    /// `peak_queue_bits`) are current up to [`FlowNet::clock`].
    pub fn link(&self, id: LinkId) -> &LinkState {
        &self.links[id.0 as usize]
    }

    /// Bring a link up or down. Rates are recomputed lazily.
    pub fn set_link_up(&mut self, id: LinkId, up: bool) {
        let l = &mut self.links[id.0 as usize];
        if l.up != up {
            l.up = up;
            self.allocator.on_link_changed(id);
            self.rates_dirty = true;
            if let Some(p) = self.probe.as_mut() {
                p.link_state(self.clock, id.0, up);
            }
        }
    }

    /// Change a link's nominal capacity (bits/s).
    pub fn set_link_capacity(&mut self, id: LinkId, capacity_bps: f64) {
        assert!(capacity_bps >= 0.0, "negative link capacity");
        let l = &mut self.links[id.0 as usize];
        if l.nominal_bps != capacity_bps {
            l.nominal_bps = capacity_bps;
            self.allocator.on_link_changed(id);
            self.rates_dirty = true;
        }
    }

    /// Inject a flow at time `now` (which must be ≥ the net's clock).
    pub fn start_flow(&mut self, now: SimTime, spec: FlowSpec) -> FlowHandle {
        assert!(
            self.paths.contains(spec.path),
            "flow path {:?} was not interned by this net",
            spec.path
        );
        assert!(
            spec.size_bits > 0.0 && spec.size_bits.is_finite(),
            "flow size must be positive and finite, got {}",
            spec.size_bits
        );
        assert!(spec.demand_bps > 0.0, "flow demand must be positive");
        self.integrate_to(now);
        let id = self.next_flow;
        self.next_flow += 1;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.flows.push(None);
            self.rate.push(0.0);
            self.remaining.push(0.0);
            u32::try_from(self.flows.len() - 1).expect("flow slots fit u32")
        });
        self.flows[slot as usize] = Some(Flow {
            id,
            started: now,
            spec,
        });
        self.remaining[slot as usize] = spec.size_bits;
        if spec.size_bits <= DONE_EPS_BITS {
            self.finished.push(FlowHandle { id, slot });
        }
        self.allocator
            .on_flow_added(slot.into(), &spec, self.paths.get(spec.path));
        self.rates_dirty = true;
        if let Some(p) = self.probe.as_mut() {
            let path_links = self.paths.get(spec.path).len() as u32;
            p.flow_added(now, id, path_links, spec.size_bits);
        }
        if self.estimator.is_some() {
            // Snapshot the path after the allocator accounts for the new
            // flow, so `active_flows`/utilization include it.
            self.recompute_if_dirty();
            let views: Vec<LinkView> = self
                .paths
                .get(spec.path)
                .iter()
                .map(|&l| {
                    let s = &self.links[l.0 as usize];
                    LinkView {
                        capacity_bps: s.capacity_bps(),
                        active_flows: s.active_flows,
                        queue_bits: s.queue_bits,
                        utilization: s.utilization(),
                    }
                })
                .collect();
            if let Some(e) = self.estimator.as_mut() {
                e.on_flow_start(spec.size_bits, spec.demand_bps, &views);
            }
        }
        FlowHandle { id, slot }
    }

    /// The live flow `h` names, or `None` once it finished or was killed.
    fn flow(&self, h: FlowHandle) -> Option<&Flow> {
        let f = self.flows.get(h.slot as usize)?.as_ref()?;
        (f.id == h.id).then_some(f)
    }

    /// Forcibly remove a flow (e.g. the job it belonged to crashed).
    /// Returns `true` if the flow was still active.
    pub fn kill_flow(&mut self, now: SimTime, h: FlowHandle) -> bool {
        self.integrate_to(now);
        let Some(path) = self.flow(h).map(|f| f.spec.path) else {
            return false;
        };
        self.allocator
            .on_flow_removed(h.slot.into(), self.paths.get(path));
        self.release(h.slot);
        self.rates_dirty = true;
        if let Some(p) = self.probe.as_mut() {
            p.flow_removed(now, h.id, None);
        }
        true
    }

    /// Free a flow's slot: its entry and its rate go, and the slot is
    /// next in line for reuse.
    fn release(&mut self, slot: u32) -> Option<Flow> {
        self.rate[slot as usize] = 0.0;
        self.free.push(slot);
        self.flows[slot as usize].take()
    }

    /// Current allocated rate of a flow (bits/s), or `None` if finished/killed.
    pub fn flow_rate(&mut self, h: FlowHandle) -> Option<f64> {
        self.recompute_if_dirty();
        self.flow(h).map(|_| self.rate[h.slot as usize])
    }

    /// Remaining bits of a flow, or `None` if finished/killed.
    pub fn flow_remaining(&self, h: FlowHandle) -> Option<f64> {
        self.flow(h).map(|_| self.remaining[h.slot as usize])
    }

    /// Advance the model to `now`, applying flow progress and queue
    /// integrals, and return the flows that completed, in id order.
    /// Completions are *detected* here, so drivers should advance to the
    /// time reported by [`FlowNet::next_completion`]. Integration lists
    /// each flow it brings within a rounding residue of done, so this
    /// removes the listed flows without scanning the table.
    pub fn advance(&mut self, now: SimTime) -> Vec<Completion> {
        self.integrate_to(now);
        let mut finished = std::mem::take(&mut self.finished);
        // Drop flows killed since they were listed, then list each once,
        // in id order: slot order is not id order once slots are reused.
        finished.retain(|&h| self.flow(h).is_some());
        finished.sort_unstable();
        finished.dedup();
        let done: Vec<Completion> = finished
            .into_iter()
            .map(|handle| {
                let f = self.release(handle.slot).expect("a finished flow is live");
                self.allocator
                    .on_flow_removed(handle.slot.into(), self.paths.get(f.spec.path));
                // The one place a flow's completion time is measured: the
                // sketch and the probe (hence telemetry) share this value.
                let fct = now - f.started;
                if let Some(p) = self.probe.as_mut() {
                    p.flow_removed(now, f.id, Some(fct));
                }
                self.fct.record(fct.as_secs_f64());
                Completion {
                    handle,
                    tag: f.spec.tag,
                    started: f.started,
                    finished: now,
                    size_bits: f.spec.size_bits,
                }
            })
            .collect();
        self.rates_dirty |= !done.is_empty();
        done
    }

    /// The earliest instant at which some flow will complete under current
    /// rates, or `None` if no flow is making progress.
    pub fn next_completion(&mut self) -> Option<SimTime> {
        self.recompute_if_dirty();
        let mut best: Option<f64> = None;
        for (&rate, &remaining) in self.rate.iter().zip(&self.remaining) {
            if rate > RATE_EPS {
                let secs = remaining / rate;
                best = Some(match best {
                    Some(b) => b.min(secs),
                    None => secs,
                });
            }
        }
        best.map(|secs| {
            let ns = (secs * 1e9).ceil().max(1.0) as u64;
            SimTime::from_nanos(self.clock.as_nanos().saturating_add(ns))
        })
    }

    /// Sum of allocated rates over a set of links (e.g. all Aggregation
    /// ingress ports), in bits/s.
    pub fn aggregate_rate(&mut self, links: &[LinkId]) -> f64 {
        self.recompute_if_dirty();
        links
            .iter()
            .map(|l| self.links[l.0 as usize].allocated_bps)
            .sum()
    }

    /// Recompute fair-share rates if topology/flow membership changed
    /// since the last solve; every change since then is solved at once.
    pub fn recompute_if_dirty(&mut self) {
        if self.rates_dirty {
            let before = self.scope;
            let live_flows = self.flow_count();
            let FlowNet {
                ref mut links,
                ref flows,
                ref mut rate,
                ref paths,
                ref mut hot_links,
                ref mut allocator,
                ref mut scope,
                ..
            } = *self;
            allocator.recompute(&mut AllocCtx {
                flows,
                rates: rate,
                live_flows,
                links,
                paths,
                hot_links,
                scope,
            });
            self.rates_dirty = false;
            if let Some(p) = self.probe.as_mut() {
                let d = self.scope.since(&before);
                p.rate_recompute(self.clock, d.flows_touched, d.links_touched, d.flows_active);
            }
        }
    }

    /// Only for the frozen `benchmark/` package; drop in its next change.
    pub fn set_surrogate_validate_every(&mut self, every: u32) {
        let _ = every;
    }

    /// Apply progress/queues from `clock` to `now` using current rates.
    ///
    /// Solves pending rate changes only when `now` is past the clock: a
    /// zero step reads no rate, so the starts, kills, completions and link
    /// changes of one instant pile up in the allocator's dirty seeds and
    /// the next reader solves them once.
    fn integrate_to(&mut self, now: SimTime) {
        assert!(
            now >= self.clock,
            "FlowNet time went backwards: {:?} < {:?}",
            now,
            self.clock
        );
        let dt = (now - self.clock).as_secs_f64();
        if dt > 0.0 {
            self.recompute_if_dirty();
            let rates = self.rate.iter().zip(self.remaining.iter_mut());
            for (slot, (&rate, remaining)) in (0u32..).zip(rates) {
                if rate > 0.0 {
                    *remaining = (*remaining - rate * dt).max(0.0);
                    if *remaining <= DONE_EPS_BITS {
                        if let Some(f) = &self.flows[slot as usize] {
                            self.finished.push(FlowHandle { id: f.id, slot });
                        }
                    }
                }
            }
            // Only hot links can change: idle links have zero rate, zero
            // offered load and an empty queue. Drained links leave the
            // set in place.
            let links = &mut self.links;
            self.hot_links.retain(|li| {
                let l = &mut links[li as usize];
                l.carried_bits += l.allocated_bps * dt;
                // Queue model: integrate offered-minus-capacity while the
                // link is over-offered. When offered load is at or below
                // capacity the standing queue relaxes exponentially — RDMA
                // congestion control (DCQCN-style) backs senders off just
                // under line rate, so a queue with no *sustained* overload
                // drains within tens of milliseconds instead of standing
                // forever at the offered == capacity fixed point.
                let net_in = l.offered_bps - l.capacity_bps();
                if net_in > 0.0 {
                    let q = l.queue_bits + net_in * dt;
                    if q > l.buffer_bits {
                        l.dropped_bits += q - l.buffer_bits;
                        l.queue_bits = l.buffer_bits;
                    } else {
                        l.queue_bits = q;
                    }
                } else {
                    let drained = (l.queue_bits + net_in * dt).max(0.0);
                    l.queue_bits = drained * (-dt / QUEUE_RELAX_TAU_S).exp();
                }
                l.peak_queue_bits = l.peak_queue_bits.max(l.queue_bits);
                let keep = l.active_flows > 0 || l.queue_bits > 1.0;
                if !keep {
                    l.queue_bits = 0.0;
                }
                keep
            });
        }
        self.clock = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::CountingProbe;
    use crate::time::SimDuration;
    use std::sync::{Arc, Mutex};

    const GBPS: f64 = 1e9;

    /// Test probe sharing its counters, and the FCTs it was handed, with
    /// the asserting test body. `Arc<Mutex<...>>` (not `Rc<RefCell<...>>`)
    /// so the probe is `Send` like every production probe must be.
    struct SharedCounting(Arc<Mutex<CountingProbe>>, Arc<Mutex<Vec<SimDuration>>>);

    impl NetProbe for SharedCounting {
        fn flow_added(&mut self, t: SimTime, flow: u64, path_links: u32, size_bits: f64) {
            self.0
                .lock()
                .unwrap()
                .flow_added(t, flow, path_links, size_bits);
        }
        fn flow_removed(&mut self, t: SimTime, flow: u64, fct: Option<SimDuration>) {
            self.0.lock().unwrap().flow_removed(t, flow, fct);
            self.1.lock().unwrap().extend(fct);
        }
        fn rate_recompute(&mut self, t: SimTime, f: u64, l: u64, a: u64) {
            self.0.lock().unwrap().rate_recompute(t, f, l, a);
        }
        fn link_state(&mut self, t: SimTime, link: u32, up: bool) {
            self.0.lock().unwrap().link_state(t, link, up);
        }
    }

    #[test]
    fn flownet_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<FlowNet>();
    }

    #[test]
    fn probe_sees_flow_lifecycle_and_recomputes() {
        let counts = Arc::new(Mutex::new(CountingProbe::default()));
        let fcts = Arc::new(Mutex::new(Vec::new()));
        let (mut net, l) = net_with_links(&[100.0 * GBPS]);
        net.set_probe(Some(Box::new(SharedCounting(counts.clone(), fcts.clone()))));
        assert!(net.has_probe());
        let s = spec(&mut net, &l, 100.0 * GBPS, f64::INFINITY, 1);
        let h1 = net.start_flow(SimTime::ZERO, s);
        let s2 = spec(&mut net, &l, 100.0 * GBPS, f64::INFINITY, 2);
        let _h2 = net.start_flow(SimTime::ZERO, s2);
        net.kill_flow(SimTime::ZERO, h1);
        assert_eq!(
            counts.lock().unwrap().recomputes,
            0,
            "mutations only mark dirty"
        );
        let t = net.next_completion().expect("one flow left");
        assert_eq!(
            counts.lock().unwrap().recomputes,
            1,
            "two starts and a kill at one instant share one solve"
        );
        let done = net.advance(t);
        assert_eq!(done.len(), 1);
        net.set_link_up(l[0], false);
        net.set_link_up(l[0], false); // no-op: no state change, no callback
        assert_eq!(
            counts.lock().unwrap().recomputes,
            1,
            "advance solved nothing new"
        );
        net.recompute_if_dirty();
        let c = *counts.lock().unwrap();
        assert_eq!(c.flows_added, 2);
        assert_eq!(c.flows_killed, 1);
        assert_eq!(c.flows_completed, 1);
        assert_eq!(c.link_changes, 1);
        assert_eq!(
            c.recomputes, 2,
            "the completion and the link change share one more"
        );
        assert_eq!(
            *fcts.lock().unwrap(),
            [done[0].finished - done[0].started],
            "the probe carries the completion's FCT; the kill carries none"
        );
    }

    fn net_with_links(caps: &[f64]) -> (FlowNet, Vec<LinkId>) {
        let mut net = FlowNet::new();
        let ids = caps
            .iter()
            .map(|&c| net.add_link(c, f64::INFINITY))
            .collect();
        (net, ids)
    }

    fn spec(net: &mut FlowNet, path: &[LinkId], size: f64, demand: f64, tag: u64) -> FlowSpec {
        FlowSpec {
            path: net.intern_path(path),
            size_bits: size,
            demand_bps: demand,
            tag,
        }
    }

    #[test]
    fn single_flow_gets_bottleneck_rate() {
        let (mut net, l) = net_with_links(&[400.0 * GBPS, 100.0 * GBPS]);
        let s = spec(&mut net, &l, 100.0 * GBPS, f64::INFINITY, 1);
        let h = net.start_flow(SimTime::ZERO, s);
        assert_eq!(net.flow_rate(h), Some(100.0 * GBPS));
        // 100 Gbit over 100 Gbps = 1 second.
        let t = net.next_completion().expect("has completion");
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-6, "{t:?}");
        let done = net.advance(t);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 1);
        assert_eq!(net.flow_count(), 0);
    }

    #[test]
    fn demand_caps_rate() {
        let (mut net, l) = net_with_links(&[400.0 * GBPS]);
        let s = spec(&mut net, &l, GBPS, 50.0 * GBPS, 0);
        let h = net.start_flow(SimTime::ZERO, s);
        assert_eq!(net.flow_rate(h), Some(50.0 * GBPS));
    }

    #[test]
    fn two_flows_share_fairly() {
        let (mut net, l) = net_with_links(&[100.0 * GBPS]);
        let s = spec(&mut net, &l, GBPS, f64::INFINITY, 0);
        let a = net.start_flow(SimTime::ZERO, s);
        let b = net.start_flow(SimTime::ZERO, FlowSpec { tag: 1, ..s });
        assert_eq!(net.flow_rate(a), Some(50.0 * GBPS));
        assert_eq!(net.flow_rate(b), Some(50.0 * GBPS));
    }

    #[test]
    fn max_min_redistributes_demand_slack() {
        // One flow capped at 20G, the other should get the remaining 80G.
        let (mut net, l) = net_with_links(&[100.0 * GBPS]);
        let sa = spec(&mut net, &l, GBPS, 20.0 * GBPS, 0);
        let a = net.start_flow(SimTime::ZERO, sa);
        let b = net.start_flow(
            SimTime::ZERO,
            FlowSpec {
                demand_bps: f64::INFINITY,
                tag: 1,
                ..sa
            },
        );
        assert!((net.flow_rate(a).unwrap() - 20.0 * GBPS).abs() < 1.0);
        assert!((net.flow_rate(b).unwrap() - 80.0 * GBPS).abs() < 1.0);
    }

    #[test]
    fn multi_bottleneck_classic_maxmin() {
        // Classic parking-lot: flow X crosses both links, flows Y and Z one each.
        // cap(L0)=100, cap(L1)=50. Max-min: X gets 25 (bottleneck on L1 with Z),
        // Z gets 25, Y gets 75.
        let (mut net, l) = net_with_links(&[100.0 * GBPS, 50.0 * GBPS]);
        let sx = spec(&mut net, &[l[0], l[1]], GBPS, f64::INFINITY, 0);
        let sy = spec(&mut net, &[l[0]], GBPS, f64::INFINITY, 1);
        let sz = spec(&mut net, &[l[1]], GBPS, f64::INFINITY, 2);
        let x = net.start_flow(SimTime::ZERO, sx);
        let y = net.start_flow(SimTime::ZERO, sy);
        let z = net.start_flow(SimTime::ZERO, sz);
        assert!((net.flow_rate(x).unwrap() - 25.0 * GBPS).abs() < 1e3);
        assert!((net.flow_rate(y).unwrap() - 75.0 * GBPS).abs() < 1e3);
        assert!((net.flow_rate(z).unwrap() - 25.0 * GBPS).abs() < 1e3);
    }

    #[test]
    fn completion_order_and_rate_rebalance() {
        // Two equal flows share a link; after one finishes the other speeds up.
        let (mut net, l) = net_with_links(&[100.0 * GBPS]);
        let sa = spec(&mut net, &l, 50.0 * GBPS, f64::INFINITY, 0);
        let _a = net.start_flow(SimTime::ZERO, sa);
        let b = net.start_flow(
            SimTime::ZERO,
            FlowSpec {
                size_bits: 100.0 * GBPS,
                tag: 1,
                ..sa
            },
        );
        // Both at 50G. Flow a (50Gbit) finishes at t=1s.
        let t1 = net.next_completion().unwrap();
        assert!((t1.as_secs_f64() - 1.0).abs() < 1e-6);
        let done = net.advance(t1);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 0);
        // b has 50Gbit left, now at full 100G: finishes 0.5s later.
        assert!((net.flow_rate(b).unwrap() - 100.0 * GBPS).abs() < 1.0);
        let t2 = net.next_completion().unwrap();
        assert!((t2.as_secs_f64() - 1.5).abs() < 1e-6, "{t2:?}");
    }

    #[test]
    fn link_down_stalls_flows_and_repair_resumes() {
        let (mut net, l) = net_with_links(&[100.0 * GBPS]);
        let s = spec(&mut net, &l, 100.0 * GBPS, f64::INFINITY, 0);
        let h = net.start_flow(SimTime::ZERO, s);
        net.set_link_up(l[0], false);
        assert_eq!(net.flow_rate(h), Some(0.0));
        assert!(
            net.next_completion().is_none(),
            "stalled flow never completes"
        );
        // Advance while down: no progress.
        let done = net.advance(SimTime::from_secs(5));
        assert!(done.is_empty());
        assert_eq!(net.flow_remaining(h), Some(100.0 * GBPS));
        net.set_link_up(l[0], true);
        let t = net.next_completion().unwrap();
        assert!((t.as_secs_f64() - 6.0).abs() < 1e-6, "{t:?}");
    }

    /// Recompute, then assert that the hot set is exactly the links that
    /// carry flows or hold queue, and that its slot table is consistent.
    fn check_hot_set(net: &mut FlowNet, what: &str) {
        net.recompute_if_dirty();
        let scan: Vec<u32> = (0..net.links.len() as u32)
            .filter(|&i| {
                let s = &net.links[i as usize];
                s.active_flows > 0 || s.queue_bits > 0.0
            })
            .collect();
        assert_eq!(net.hot_links.sorted_checked(), scan, "{what}");
    }

    /// After every recompute the hot set is exactly the links that carry
    /// flows or hold queue. The allocators' hot-set update visits only
    /// the links a recompute touched, so it relies on this holding going
    /// in; the script drives every way a link enters or leaves the set.
    #[test]
    fn hot_set_matches_full_scan_through_churn() {
        for kind in [AllocatorKind::Dense, AllocatorKind::Incremental] {
            let mut net = FlowNet::with_allocator(kind);
            let l: Vec<LinkId> = [100.0, 100.0, 100.0, 100.0, 40.0]
                .iter()
                .map(|&c| net.add_link(c * GBPS, 1e12))
                .collect();
            let check = |net: &mut FlowNet, what: &str| {
                check_hot_set(net, &format!("{kind:?}: {what}"));
            };
            // Two 80G senders converge on the 100G link l[2] (queue
            // build-up); a short flow on l[3]→l[4] completes on its own.
            let sa = spec(&mut net, &[l[0], l[2]], 1e13, 80.0 * GBPS, 0);
            let sb = spec(&mut net, &[l[1], l[2]], 1e13, 80.0 * GBPS, 1);
            let sc = spec(&mut net, &[l[3], l[4]], 5.0 * GBPS, f64::INFINITY, 2);
            let mut t = SimTime::ZERO;
            let a = net.start_flow(t, sa);
            check(&mut net, "first sender");
            let b = net.start_flow(t, sb);
            check(&mut net, "second sender");
            net.start_flow(t, sc);
            check(&mut net, "short flow");
            t = SimTime::from_secs(1);
            assert_eq!(net.advance(t).len(), 1, "the short flow completes");
            check(&mut net, "completion");
            assert!(net.link(l[2]).queue_bits > 0.0, "converging senders queue");
            net.set_link_up(l[0], false);
            check(&mut net, "link down");
            t = SimTime::from_millis(1100);
            net.advance(t);
            check(&mut net, "advance while down");
            net.set_link_up(l[0], true);
            check(&mut net, "link up");
            net.kill_flow(t, a);
            net.kill_flow(t, b);
            check(&mut net, "kill both senders");
            let q = net.link(l[2]);
            assert!(
                q.active_flows == 0 && q.queue_bits > 0.0,
                "the queue outlives its flows"
            );
            let mut ms = 1100;
            while !net.hot_links.as_slice().is_empty() {
                ms += 10;
                assert!(ms < 5000, "{kind:?}: queue never drained");
                net.advance(SimTime::from_millis(ms));
                check(&mut net, "drain");
            }
        }
    }

    /// Seeded random churn under both allocators: flow starts and kills,
    /// link down/up, short advances that complete flows and long ones that
    /// drain queues, with the hot set checked against a full scan after
    /// every operation. Flows join and leave links in arbitrary order, so
    /// removals hit members at every position of the set.
    #[test]
    fn hot_set_matches_full_scan_under_random_churn() {
        use crate::rng::Xoshiro256;
        for kind in [AllocatorKind::Dense, AllocatorKind::Incremental] {
            let mut rng = Xoshiro256::seed_from_u64(0x4807);
            let mut net = FlowNet::with_allocator(kind);
            let links: Vec<LinkId> = (0..16)
                .map(|i| net.add_link((40.0 + 10.0 * (i % 7) as f64) * GBPS, 1e11))
                .collect();
            let mut live: Vec<FlowHandle> = Vec::new();
            let mut down: Vec<bool> = vec![false; links.len()];
            let mut t = SimTime::ZERO;
            let mut tag = 0u64;
            let mut queue_only_seen = false;
            for op in 0..400 {
                let what = match rng.next_below(10) {
                    0..=3 => {
                        let hops = 1 + rng.next_below(3) as usize;
                        let mut path: Vec<LinkId> = Vec::new();
                        while path.len() < hops {
                            let l = *rng.choose(&links);
                            if !path.contains(&l) {
                                path.push(l);
                            }
                        }
                        let demand = if rng.chance(0.2) {
                            f64::INFINITY
                        } else {
                            rng.uniform(10.0, 120.0) * GBPS
                        };
                        let size = rng.uniform(0.1, 20.0) * GBPS;
                        tag += 1;
                        let s = spec(&mut net, &path, size, demand, tag);
                        live.push(net.start_flow(t, s));
                        "start"
                    }
                    4 | 5 if !live.is_empty() => {
                        let i = rng.next_below(live.len() as u64) as usize;
                        net.kill_flow(t, live.swap_remove(i));
                        "kill"
                    }
                    6 => {
                        let i = rng.next_below(links.len() as u64) as usize;
                        down[i] = !down[i];
                        net.set_link_up(links[i], !down[i]);
                        "link toggle"
                    }
                    7 => {
                        t += SimDuration::from_millis(500);
                        net.advance(t);
                        "long advance"
                    }
                    _ => {
                        t += SimDuration::from_micros(1 + rng.next_below(20_000));
                        net.advance(t);
                        "short advance"
                    }
                };
                check_hot_set(&mut net, &format!("{kind:?}: op {op} ({what})"));
                queue_only_seen |= net
                    .links
                    .iter()
                    .any(|s| s.active_flows == 0 && s.queue_bits > 0.0);
            }
            assert!(queue_only_seen, "{kind:?}: no link was hot by queue alone");
        }
    }

    /// Assert that two nets driven by the same operations hold bitwise
    /// equal state once each has solved what it has pending (as any reader
    /// of rates would): every listed flow's rate and remaining bits, every
    /// link's rate-derived and integrated fields, and the hot set.
    fn assert_nets_bitwise_equal(
        a: &mut FlowNet,
        b: &mut FlowNet,
        live: &[FlowHandle],
        what: &str,
    ) {
        a.recompute_if_dirty();
        b.recompute_if_dirty();
        for &h in live {
            let (ra, rb) = (a.flow_rate(h), b.flow_rate(h));
            assert_eq!(
                ra.map(f64::to_bits),
                rb.map(f64::to_bits),
                "{what}: rate of {h:?}"
            );
            let (qa, qb) = (a.flow_remaining(h), b.flow_remaining(h));
            assert_eq!(
                qa.map(f64::to_bits),
                qb.map(f64::to_bits),
                "{what}: remaining of {h:?}"
            );
        }
        for i in 0..a.link_count() {
            let (x, y) = (a.link(LinkId(i as u32)), b.link(LinkId(i as u32)));
            let bits = |s: &LinkState| {
                (
                    s.active_flows,
                    s.allocated_bps.to_bits(),
                    s.offered_bps.to_bits(),
                    s.queue_bits.to_bits(),
                    s.carried_bits.to_bits(),
                    s.dropped_bits.to_bits(),
                )
            };
            assert_eq!(bits(x), bits(y), "{what}: link {i}");
        }
        assert_eq!(
            a.hot_links.sorted_checked(),
            b.hot_links.sorted_checked(),
            "{what}: hot set"
        );
    }

    /// The one-solve-per-instant contract. Two nets take the same seeded
    /// operations, including bursts of same-instant starts, kills and link
    /// toggles; the eager one is solved after every change (the schedule
    /// where each mutation forced its own solve), the batched one only when
    /// a reader asks. After every `advance` both hold bitwise equal rates,
    /// remaining bits, completions and link state, and the batched net
    /// never solves more often.
    #[test]
    fn batched_solves_match_the_eager_schedule_bitwise() {
        use crate::rng::Xoshiro256;
        for kind in [AllocatorKind::Dense, AllocatorKind::Incremental] {
            let mut rng = Xoshiro256::seed_from_u64(0xba7c);
            let mut eager = FlowNet::with_allocator(kind);
            let mut batched = FlowNet::with_allocator(kind);
            let links: Vec<LinkId> = (0..12)
                .map(|i| {
                    let cap = (40.0 + 20.0 * (i % 5) as f64) * GBPS;
                    eager.add_link(cap, 1e11);
                    batched.add_link(cap, 1e11)
                })
                .collect();
            let mut live: Vec<FlowHandle> = Vec::new();
            let mut down = vec![false; links.len()];
            let mut t = SimTime::ZERO;
            let mut tag = 0u64;
            let mut burst_ops = 0;
            for step in 0..300 {
                // A burst of changes at the current instant, then one
                // advance to a later instant (or, now and then, this one).
                let burst = 1 + rng.next_below(12);
                for _ in 0..burst {
                    match rng.next_below(8) {
                        0..=3 => {
                            let hops = 1 + rng.next_below(3) as usize;
                            let mut path: Vec<LinkId> = Vec::new();
                            while path.len() < hops {
                                let l = *rng.choose(&links);
                                if !path.contains(&l) {
                                    path.push(l);
                                }
                            }
                            let demand = if rng.chance(0.25) {
                                f64::INFINITY
                            } else {
                                rng.uniform(10.0, 120.0) * GBPS
                            };
                            let size = rng.uniform(0.1, 10.0) * GBPS;
                            tag += 1;
                            let s = spec(&mut eager, &path, size, demand, tag);
                            let h = eager.start_flow(t, s);
                            let s = spec(&mut batched, &path, size, demand, tag);
                            assert_eq!(batched.start_flow(t, s), h);
                            live.push(h);
                        }
                        4 | 5 if !live.is_empty() => {
                            let h = live.swap_remove(rng.next_below(live.len() as u64) as usize);
                            assert_eq!(eager.kill_flow(t, h), batched.kill_flow(t, h));
                        }
                        6 => {
                            let i = rng.next_below(links.len() as u64) as usize;
                            down[i] = !down[i];
                            eager.set_link_up(links[i], !down[i]);
                            batched.set_link_up(links[i], !down[i]);
                        }
                        _ => {}
                    }
                    eager.recompute_if_dirty();
                    burst_ops += 1;
                }
                if !rng.chance(0.1) {
                    t += SimDuration::from_micros(1 + rng.next_below(200_000));
                }
                let done_eager = eager.advance(t);
                eager.recompute_if_dirty();
                let done_batched = batched.advance(t);
                let key = |d: &[Completion]| -> Vec<(FlowHandle, u64, SimTime, SimTime, u64)> {
                    d.iter()
                        .map(|c| {
                            (
                                c.handle,
                                c.tag,
                                c.started,
                                c.finished,
                                c.size_bits.to_bits(),
                            )
                        })
                        .collect()
                };
                assert_eq!(
                    key(&done_eager),
                    key(&done_batched),
                    "{kind:?}: step {step} completions"
                );
                live.retain(|h| !done_eager.iter().any(|c| c.handle == *h));
                let what = format!("{kind:?}: step {step}");
                assert_nets_bitwise_equal(&mut eager, &mut batched, &live, &what);
                assert!(
                    batched.alloc_scope().events <= eager.alloc_scope().events,
                    "{what}: batched net solved more often"
                );
            }
            let (e, b) = (eager.alloc_scope().events, batched.alloc_scope().events);
            assert!(burst_ops > 1000, "{kind:?}: too few burst operations");
            assert!(
                2 * b < e,
                "{kind:?}: bursts did not batch ({b} vs {e} solves)"
            );
        }
    }

    /// Records the id of every flow the net reports leaving.
    struct Removals(Arc<Mutex<Vec<u64>>>);

    impl NetProbe for Removals {
        fn flow_removed(&mut self, _: SimTime, flow: u64, _: Option<SimDuration>) {
            self.0.lock().unwrap().push(flow);
        }
    }

    /// Freed slots are reused last-freed first, so later flows take lower
    /// slots than earlier ones. Flows that then complete at one instant
    /// must still leave in id order, to the caller, the probe and the
    /// allocator alike, and a dense/incremental pair stays bitwise equal.
    #[test]
    fn completions_leave_in_id_order_when_slots_are_reused() {
        let removed = [(); 2].map(|_| Arc::new(Mutex::new(Vec::new())));
        let mut nets =
            [AllocatorKind::Dense, AllocatorKind::Incremental].map(FlowNet::with_allocator);
        for (net, log) in nets.iter_mut().zip(&removed) {
            net.set_probe(Some(Box::new(Removals(log.clone()))));
        }
        let [dense, incr] = &mut nets;
        // Flow i crosses its own link, then one shared 100G link.
        let caps = [30.0, 30.0, 45.0, 60.0, 35.0, 50.0];
        let shared = dense.add_link(100.0 * GBPS, 1e11);
        assert_eq!(incr.add_link(100.0 * GBPS, 1e11), shared);
        let own: Vec<LinkId> = caps
            .iter()
            .map(|&c| {
                let l = dense.add_link(c * GBPS, 1e11);
                assert_eq!(incr.add_link(c * GBPS, 1e11), l);
                l
            })
            .collect();
        let start = |dense: &mut FlowNet, incr: &mut FlowNet, t, i: usize, size| {
            let s = spec(dense, &[own[i], shared], size, f64::INFINITY, i as u64);
            let h = dense.start_flow(t, s);
            let s = spec(incr, &[own[i], shared], size, f64::INFINITY, i as u64);
            assert_eq!(incr.start_flow(t, s), h);
            h
        };
        let mut hs = Vec::new();
        for (i, size) in [1e9, 1e9, 1e12, 1e12].into_iter().enumerate() {
            hs.push(start(dense, incr, SimTime::ZERO, i, size));
        }
        assert_nets_bitwise_equal(dense, incr, &hs, "four flows");
        // The two short flows finish; their slots free in id order.
        let mut t = SimTime::ZERO;
        while dense.flow_count() > 2 {
            t = dense.next_completion().expect("short flows progress");
            let done: Vec<u64> = dense.advance(t).iter().map(|c| c.handle.id()).collect();
            let twin: Vec<u64> = incr.advance(t).iter().map(|c| c.handle.id()).collect();
            assert_eq!(done, twin);
        }
        assert_nets_bitwise_equal(dense, incr, &hs[2..], "short flows done");
        // The last-freed slot goes first: later ids take lower slots.
        let h4 = start(dense, incr, t, 4, 2e11);
        let h5 = start(dense, incr, t, 5, 3e11);
        assert_eq!((h4.slot, h5.slot), (1, 0));
        let live = [hs[2], hs[3], h4, h5];
        assert_nets_bitwise_equal(dense, incr, &live, "slots reused");
        // Everything left finishes within the step, so completes at once.
        let t = t + SimDuration::from_secs(1000);
        for net in [&mut *dense, &mut *incr] {
            let ids: Vec<u64> = net.advance(t).iter().map(|c| c.handle.id()).collect();
            assert_eq!(ids, [2, 3, 4, 5], "completions in id order");
        }
        for log in &removed {
            assert_eq!(*log.lock().unwrap(), [0, 1, 2, 3, 4, 5], "probe order");
        }
        assert_nets_bitwise_equal(dense, incr, &live, "all done");
        // The freed slots serve a new round, which still agrees.
        let again: Vec<FlowHandle> = (0..4).map(|i| start(dense, incr, t, i, 5e10)).collect();
        assert_nets_bitwise_equal(dense, incr, &again, "second round");
    }

    /// The live flows at or below `DONE_EPS_BITS`, in id order, found by a
    /// full scan of the table: what `advance` must remove.
    fn finished_by_scan(net: &FlowNet) -> Vec<FlowHandle> {
        let mut done: Vec<FlowHandle> = (0u32..)
            .zip(&net.flows)
            .filter_map(|(slot, f)| {
                let id = f.as_ref()?.id;
                (net.remaining[slot as usize] <= DONE_EPS_BITS).then_some(FlowHandle { id, slot })
            })
            .collect();
        done.sort_unstable();
        done
    }

    /// `advance` removes the flows integration listed, not the ones a scan
    /// of the table finds; the two must agree. Seeded churn through a
    /// dense/incremental pair: flows too small to need any progress,
    /// starts and kills at a later instant (which integrate) followed by
    /// more of them and then an `advance` at that instant, kills of flows
    /// already listed, and slots reused out of id order. Before every
    /// `advance` the scan is taken at the advance's instant, and the
    /// completions must equal it, in id order, on both nets.
    #[test]
    fn finished_list_matches_a_full_scan() {
        use crate::rng::Xoshiro256;
        let mut rng = Xoshiro256::seed_from_u64(0xf1a5);
        let mut nets =
            [AllocatorKind::Dense, AllocatorKind::Incremental].map(FlowNet::with_allocator);
        let links: Vec<LinkId> = (0..10)
            .map(|i| {
                let cap = (40.0 + 15.0 * (i % 4) as f64) * GBPS;
                let l = nets[0].add_link(cap, 1e11);
                assert_eq!(nets[1].add_link(cap, 1e11), l);
                l
            })
            .collect();
        let mut live: Vec<FlowHandle> = Vec::new();
        let mut t = SimTime::ZERO;
        let (mut tiny, mut later, mut listed_kills, mut reused, mut completions) = (0, 0, 0, 0, 0);
        for step in 0..400 {
            // Sometimes the burst runs at a later instant than the last
            // advance, so its starts and kills integrate first.
            if rng.chance(0.4) {
                t += SimDuration::from_micros(1 + rng.next_below(100_000));
                later += 1;
            }
            for _ in 0..1 + rng.next_below(6) {
                if rng.chance(0.25) && !live.is_empty() {
                    let h = live.swap_remove(rng.next_below(live.len() as u64) as usize);
                    listed_kills += usize::from(nets[0].finished.contains(&h));
                    for net in &mut nets {
                        assert!(net.kill_flow(t, h));
                    }
                    continue;
                }
                let hops = 1 + rng.next_below(3) as usize;
                let path: Vec<LinkId> = (0..hops).map(|_| *rng.choose(&links)).collect();
                let size = if rng.chance(0.15) {
                    tiny += 1;
                    DONE_EPS_BITS * rng.uniform(0.01, 1.0)
                } else {
                    rng.uniform(0.01, 5.0) * GBPS
                };
                let demand = rng.uniform(10.0, 120.0) * GBPS;
                let [a, b] = &mut nets;
                let s = spec(a, &path, size, demand, step);
                let h = a.start_flow(t, s);
                let s = spec(b, &path, size, demand, step);
                assert_eq!(b.start_flow(t, s), h);
                reused += usize::from(live.iter().any(|o| o.id < h.id && o.slot > h.slot));
                live.push(h);
            }
            // Advance at the burst's instant or a later one.
            if rng.chance(0.5) {
                t += SimDuration::from_micros(1 + rng.next_below(100_000));
            }
            let mut done = Vec::new();
            for net in &mut nets {
                net.integrate_to(t);
                let scan = finished_by_scan(net);
                let ids: Vec<FlowHandle> = net.advance(t).iter().map(|c| c.handle).collect();
                assert_eq!(ids, scan, "step {step}: completions");
                done.push(ids);
            }
            assert_eq!(done[0], done[1], "step {step}: dense vs incremental");
            completions += done[0].len();
            live.retain(|h| !done[0].contains(h));
            let [a, b] = &mut nets;
            assert_nets_bitwise_equal(a, b, &live, &format!("step {step}"));
        }
        assert!(
            tiny > 50 && later > 100 && listed_kills > 0 && reused > 50 && completions > 300,
            "churn too tame: {tiny} tiny, {later} later bursts, {listed_kills} listed kills, \
             {reused} reused slots, {completions} completions"
        );
        // Churn overshoots finish times, so integration leaves finished
        // flows at exactly 0. A flow that a step leaves a residue short of
        // done (here 5e-4 bits) must also be listed.
        let own = nets[0].add_link(100.0 * GBPS, 1e11);
        assert_eq!(nets[1].add_link(100.0 * GBPS, 1e11), own);
        for net in &mut nets {
            let s = spec(net, &[own], 1e9 + 5e-4, f64::INFINITY, 0);
            let h = net.start_flow(t, s);
            let t = t + SimDuration::from_millis(10);
            net.integrate_to(t);
            let left = net.flow_remaining(h).expect("not yet removed");
            assert!(left > 0.0 && left <= DONE_EPS_BITS, "residue {left}");
            let scan = finished_by_scan(net);
            assert!(scan.contains(&h), "the flow left a residue short is done");
            let ids: Vec<FlowHandle> = net.advance(t).iter().map(|c| c.handle).collect();
            assert_eq!(ids, scan, "residue: completions");
        }
    }

    /// A handle whose flow is gone finds nothing, even when its slot
    /// already holds the next flow.
    #[test]
    fn a_stale_handle_never_reaches_its_slots_next_flow() {
        let (mut net, l) = net_with_links(&[100.0 * GBPS]);
        let s = spec(&mut net, &l, 100.0 * GBPS, f64::INFINITY, 0);
        let killed = net.start_flow(SimTime::ZERO, s);
        assert!(net.kill_flow(SimTime::ZERO, killed));
        let next = net.start_flow(SimTime::ZERO, FlowSpec { tag: 1, ..s });
        assert_eq!(next.slot, killed.slot, "the slot is reused");
        let t = SimTime::from_millis(100);
        assert!(!net.kill_flow(t, killed));
        assert_eq!(net.flow_remaining(killed), None);
        assert_eq!(net.flow_rate(killed), None);
        assert_eq!(net.flow_count(), 1);
        assert_eq!(net.flow_rate(next), Some(100.0 * GBPS));
        let left = net.flow_remaining(next).expect("the new flow is live");
        assert!((left - 90.0 * GBPS).abs() < 1e3, "remaining {left}");
        // A completed flow's handle goes stale the same way.
        let t = net.next_completion().unwrap();
        let done = net.advance(t);
        assert_eq!((done[0].handle, done[0].tag), (next, 1));
        let third = net.start_flow(net.clock(), FlowSpec { tag: 2, ..s });
        assert_eq!(third.slot, next.slot);
        assert!(!net.kill_flow(net.clock(), next));
        assert_eq!(net.flow_remaining(next), None);
        assert_eq!(net.flow_remaining(third), Some(100.0 * GBPS));
    }

    #[test]
    fn queue_builds_when_offered_exceeds_capacity() {
        // Three 200G-demand flows hash onto one 400G port: offered 600G,
        // queue grows at 200Gbit/s.
        let (mut net, l) = net_with_links(&[400.0 * GBPS]);
        let s = spec(&mut net, &l, 1e15, 200.0 * GBPS, 0);
        for tag in 0..3 {
            net.start_flow(SimTime::ZERO, FlowSpec { tag, ..s });
        }
        net.advance(SimTime::from_millis(1));
        let q = net.link(l[0]).queue_bits;
        // 200Gbit/s * 1ms = 0.2 Gbit.
        assert!((q - 0.2 * GBPS).abs() < 1e3, "queue {q}");
    }

    #[test]
    fn queue_drains_and_drops_respect_buffer() {
        let mut net = FlowNet::new();
        let l = net.add_link(400.0 * GBPS, 0.1 * GBPS); // 100Mbit buffer
        let s = spec(&mut net, &[l], 200.0 * GBPS * 0.01, 200.0 * GBPS, 0);
        for tag in 0..3 {
            net.start_flow(SimTime::ZERO, FlowSpec { tag, ..s });
        }
        net.advance(SimTime::from_millis(2));
        let ls = net.link(l);
        assert_eq!(ls.queue_bits, 0.1 * GBPS, "queue clamped at buffer");
        assert!(ls.dropped_bits > 0.0, "overflow counted as drops");
        // Let flows finish, then inject nothing: queue drains.
        let mut guard = 0;
        while net.flow_count() > 0 {
            let t = net.next_completion().expect("progressing");
            net.advance(t);
            guard += 1;
            assert!(guard < 10, "completion loop runaway");
        }
        net.advance(SimTime::from_secs(1));
        assert_eq!(net.link(l).queue_bits, 0.0, "queue drains when idle");
    }

    #[test]
    fn carried_bits_accumulate() {
        let (mut net, l) = net_with_links(&[100.0 * GBPS]);
        let s = spec(&mut net, &l, 100.0 * GBPS, f64::INFINITY, 0);
        net.start_flow(SimTime::ZERO, s);
        let t = net.next_completion().unwrap();
        net.advance(t);
        let carried = net.link(l[0]).carried_bits;
        assert!((carried - 100.0 * GBPS).abs() < 1e3, "carried {carried}");
    }

    #[test]
    fn kill_flow_frees_bandwidth() {
        let (mut net, l) = net_with_links(&[100.0 * GBPS]);
        let s = spec(&mut net, &l, 1e15, f64::INFINITY, 0);
        let a = net.start_flow(SimTime::ZERO, s);
        let b = net.start_flow(SimTime::ZERO, FlowSpec { tag: 1, ..s });
        assert_eq!(net.flow_rate(b), Some(50.0 * GBPS));
        assert!(net.kill_flow(SimTime::from_millis(1), a));
        assert!(
            !net.kill_flow(SimTime::from_millis(1), a),
            "second kill is no-op"
        );
        assert_eq!(net.flow_rate(b), Some(100.0 * GBPS));
    }

    #[test]
    fn staggered_start_times() {
        let (mut net, l) = net_with_links(&[100.0 * GBPS]);
        let s = spec(&mut net, &l, 100.0 * GBPS, f64::INFINITY, 0);
        let a = net.start_flow(SimTime::ZERO, s);
        // At t=0.5s, a has 50Gbit left; b joins and they share.
        let _b = net.start_flow(SimTime::from_millis(500), FlowSpec { tag: 1, ..s });
        assert!((net.flow_remaining(a).unwrap() - 50.0 * GBPS).abs() < 1e3);
        assert_eq!(net.flow_rate(a), Some(50.0 * GBPS));
        // a finishes at 0.5 + 50/50 = 1.5s.
        let t = net.next_completion().unwrap();
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "empty path")]
    fn empty_path_rejected() {
        let mut net = FlowNet::new();
        net.intern_path(&[]);
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn bad_link_rejected() {
        let mut net = FlowNet::new();
        net.intern_path(&[LinkId(3)]);
    }

    #[test]
    #[should_panic(expected = "not interned")]
    fn foreign_path_rejected() {
        let mut net = FlowNet::new();
        net.add_link(GBPS, f64::INFINITY);
        net.start_flow(
            SimTime::ZERO,
            FlowSpec {
                path: PathId(5),
                size_bits: 1.0,
                demand_bps: 1.0,
                tag: 0,
            },
        );
    }

    #[test]
    fn fct_sketch_records_completions_not_kills() {
        let (mut net, l) = net_with_links(&[100.0 * GBPS]);
        let s = spec(&mut net, &l, 100.0 * GBPS, f64::INFINITY, 0);
        net.start_flow(SimTime::ZERO, s);
        let victim = net.start_flow(SimTime::ZERO, FlowSpec { tag: 1, ..s });
        net.kill_flow(SimTime::from_millis(100), victim);
        let t = net.next_completion().expect("survivor completes");
        net.advance(t);
        assert_eq!(net.fct_sketch().count(), 1, "kills are not FCTs");
        let fct = net.fct_sketch().quantile(0.5).unwrap();
        // 100 Gbit: shared 100ms at 50G (5 Gbit done), rest at 100G.
        assert!((fct - 1.05).abs() < 0.02, "fct {fct}");
    }

    #[test]
    fn estimator_sees_post_admission_link_views() {
        use crate::tail::LinkDecompositionEstimator;
        let (mut net, l) = net_with_links(&[100.0 * GBPS]);
        net.set_estimator(Some(Box::new(LinkDecompositionEstimator::new())));
        assert!(net.has_estimator());
        let s = spec(&mut net, &l, 100.0 * GBPS, f64::INFINITY, 0);
        net.start_flow(SimTime::ZERO, s);
        net.start_flow(SimTime::ZERO, FlowSpec { tag: 1, ..s });
        let e = net.take_estimator().expect("estimator attached");
        assert!(!net.has_estimator());
        assert_eq!(e.fct_sketch().count(), 2);
        // Second flow saw 2 active flows → ~2s share estimate (plus the
        // M/M/1 inflation from the first flow's full-utilization epoch).
        let worst = e.fct_sketch().max().unwrap();
        assert!(
            worst >= 2.0,
            "second estimate accounts for sharing: {worst}"
        );
    }

    #[test]
    fn estimator_skips_flows_on_down_links() {
        use crate::tail::LinkDecompositionEstimator;
        let (mut net, l) = net_with_links(&[100.0 * GBPS]);
        net.set_link_up(l[0], false);
        net.set_estimator(Some(Box::new(LinkDecompositionEstimator::new())));
        let s = spec(&mut net, &l, GBPS, f64::INFINITY, 0);
        net.start_flow(SimTime::ZERO, s);
        let e = net.take_estimator().unwrap();
        assert_eq!(e.fct_sketch().count(), 0);
        assert_eq!(e.skipped(), 1);
    }

    #[test]
    fn many_flows_conserve_capacity() {
        let (mut net, l) = net_with_links(&[400.0 * GBPS]);
        let s = spec(&mut net, &l, 1e12, 200.0 * GBPS, 0);
        let hs: Vec<_> = (0..64)
            .map(|tag| net.start_flow(SimTime::ZERO, FlowSpec { tag, ..s }))
            .collect();
        let total: f64 = hs.iter().map(|&h| net.flow_rate(h).unwrap()).sum();
        assert!(
            total <= 400.0 * GBPS * (1.0 + 1e-9),
            "allocation {total} exceeds capacity"
        );
        assert!((total - 400.0 * GBPS).abs() < 1.0, "work-conserving");
    }

    #[test]
    fn both_allocators_agree_on_parking_lot() {
        for kind in [AllocatorKind::Dense, AllocatorKind::Incremental] {
            let mut net = FlowNet::with_allocator(kind);
            let l0 = net.add_link(100.0 * GBPS, f64::INFINITY);
            let l1 = net.add_link(50.0 * GBPS, f64::INFINITY);
            let sx = spec(&mut net, &[l0, l1], GBPS, f64::INFINITY, 0);
            let sy = spec(&mut net, &[l0], GBPS, f64::INFINITY, 1);
            let sz = spec(&mut net, &[l1], GBPS, f64::INFINITY, 2);
            let x = net.start_flow(SimTime::ZERO, sx);
            let y = net.start_flow(SimTime::ZERO, sy);
            let z = net.start_flow(SimTime::ZERO, sz);
            assert_eq!(net.allocator_kind(), kind);
            assert!((net.flow_rate(x).unwrap() - 25.0 * GBPS).abs() < 1e3);
            assert!((net.flow_rate(y).unwrap() - 75.0 * GBPS).abs() < 1e3);
            assert!((net.flow_rate(z).unwrap() - 25.0 * GBPS).abs() < 1e3);
            assert!(net.alloc_scope().events > 0);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const GBPS: f64 = 1e9;

    proptest! {
        /// Invariant: the max-min allocation never oversubscribes any link
        /// and is work-conserving on each link that has an unfrozen flow.
        #[test]
        fn allocation_feasible(
            caps in proptest::collection::vec(1u64..=400, 2..6),
            flows in proptest::collection::vec(
                (proptest::collection::vec(0usize..6, 1..4), 1u64..=400),
                1..20
            ),
        ) {
            let mut net = FlowNet::new();
            let links: Vec<LinkId> = caps.iter()
                .map(|&c| net.add_link(c as f64 * GBPS, f64::INFINITY))
                .collect();
            let mut handles = Vec::new();
            for (pick, demand) in &flows {
                let mut path: Vec<LinkId> = pick.iter()
                    .map(|&i| links[i % links.len()])
                    .collect();
                path.dedup();
                let path = net.intern_path(&path);
                handles.push(net.start_flow(SimTime::ZERO, FlowSpec {
                    path,
                    size_bits: 1e12,
                    demand_bps: *demand as f64 * GBPS,
                    tag: 0,
                }));
            }
            net.recompute_if_dirty();
            // Feasibility: no link oversubscribed.
            for (i, &l) in links.iter().enumerate() {
                let alloc = net.link(l).allocated_bps;
                prop_assert!(alloc <= caps[i] as f64 * GBPS * (1.0 + 1e-6),
                    "link {i} oversubscribed: {alloc}");
            }
            // No flow exceeds its demand.
            for (h, (_, demand)) in handles.iter().zip(&flows) {
                let r = net.flow_rate(*h).unwrap();
                prop_assert!(r <= *demand as f64 * GBPS * (1.0 + 1e-6));
                prop_assert!(r >= 0.0);
            }
        }

        /// Invariant: progress conservation — after advancing by dt, the
        /// total remaining shrinks by exactly the sum of rate*dt.
        #[test]
        fn progress_conservation(
            nflows in 1usize..10,
            dt_ms in 1u64..1000,
        ) {
            let mut net = FlowNet::new();
            let l = net.add_link(400.0 * GBPS, f64::INFINITY);
            let path = net.intern_path(&[l]);
            let mut handles = Vec::new();
            for tag in 0..nflows {
                handles.push(net.start_flow(SimTime::ZERO, FlowSpec {
                    path,
                    size_bits: 1e15,
                    demand_bps: 200.0 * GBPS,
                    tag: tag as u64,
                }));
            }
            let rates: Vec<f64> = handles.iter().map(|&h| net.flow_rate(h).unwrap()).collect();
            let before: f64 = handles.iter().map(|&h| net.flow_remaining(h).unwrap()).sum();
            net.advance(SimTime::from_millis(dt_ms));
            let after: f64 = handles.iter().map(|&h| net.flow_remaining(h).unwrap()).sum();
            let expect = rates.iter().sum::<f64>() * dt_ms as f64 / 1e3;
            // Tolerance accounts for cancellation when differencing the
            // ~1e15-bit totals (ulp of the sum dominates at small dt).
            let tol = expect.abs() * 1e-6 + before * 1e-12 + 1.0;
            prop_assert!(((before - after) - expect).abs() < tol,
                "progress {} vs expected {}", before - after, expect);
        }

        /// Invariant: max-min fairness — you cannot raise one flow's rate
        /// without lowering a flow of equal-or-lower rate. We check the
        /// equivalent bottleneck condition: every flow is either at demand
        /// or crosses a saturated link where it has a maximal rate.
        #[test]
        fn bottleneck_condition(
            demands in proptest::collection::vec(1u64..=400, 2..12),
        ) {
            let mut net = FlowNet::new();
            let shared = net.add_link(400.0 * GBPS, f64::INFINITY);
            let path = net.intern_path(&[shared]);
            let handles: Vec<FlowHandle> = demands.iter().enumerate().map(|(i, &d)| {
                net.start_flow(SimTime::ZERO, FlowSpec {
                    path,
                    size_bits: 1e15,
                    demand_bps: d as f64 * GBPS,
                    tag: i as u64,
                })
            }).collect();
            net.recompute_if_dirty();
            let rates: Vec<f64> = handles.iter().map(|&h| net.flow_rate(h).unwrap()).collect();
            let saturated = net.link(shared).allocated_bps >= 400.0 * GBPS * (1.0 - 1e-6);
            let max_rate = rates.iter().cloned().fold(0.0, f64::max);
            for (i, &r) in rates.iter().enumerate() {
                let at_demand = r >= demands[i] as f64 * GBPS - 1.0;
                let is_max_on_saturated = saturated && r >= max_rate - 1.0;
                prop_assert!(at_demand || is_max_on_saturated,
                    "flow {i} rate {r} neither demand-limited nor maximal on bottleneck");
            }
        }
    }
}
