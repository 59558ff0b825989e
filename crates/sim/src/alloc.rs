//! Rate allocation behind the [`RateAllocator`] seam.
//!
//! The fluid model assigns every active flow a max-min fair rate. Two
//! implementations share one trait:
//!
//! * [`DenseMaxMin`] — the original progressive-filling solver, recomputing
//!   every flow from scratch on every perturbation. O(active flows × hops ×
//!   freeze-rounds) per event; kept as the reference oracle.
//! * [`IncrementalMaxMin`] — maintains per-link flow membership and, on a
//!   flow add/remove or link change, recomputes only the **connected
//!   components** of flows and links reachable from the perturbed elements
//!   through shared links. Flows outside them keep their rates
//!   bitwise-unchanged.
//!
//! The incremental scoping is exact, not approximate: max-min allocation
//! decomposes across connected components of the flow↔link sharing graph.
//! A flow's rate depends only on the links it crosses and, transitively, on
//! the flows sharing those links — progressive filling never lets one
//! component's freeze order influence another's water level. The BFS
//! closure computed here guarantees both directions of that independence:
//! every flow crossing a component link is in the component, and every link
//! of a component flow is too, so the restricted fill sees exactly the
//! sub-problem the global fill would solve for those flows.
//!
//! Both allocators solve through one `ComponentFill`: each connected
//! component is filled independently, flows in ascending-id order.
//! Interleaving the filling rounds across components would change float
//! summation order and leave the two implementations agreeing only to
//! ~ulp; identical per-component arithmetic makes their rates **bitwise
//! equal**, so figures regenerate byte-identically under either allocator.
//! The `ComponentFill` owns the fill's scratch and reuses it for every
//! component, and a fill writes its rates into the caller's slice of one
//! rate buffer, so a solve allocates nothing per component.
//!
//! The net names each flow to its allocator by **key**: the flow's slot in
//! the net's flow table (see [`crate::arena`]). A key is unique among live
//! flows and reused after removal, so [`IncrementalMaxMin`] keeps its
//! per-flow records in a slab indexed by the key, with no map in between,
//! and both allocators write rates with indexed stores into the net's
//! dense rate array, [`AllocCtx::rates`]. Keys are not in id order; the
//! net adds flows in id order, so each allocator numbers them on arrival
//! and orders its rows by that number. Each flow event seeds the links of
//! its path, and [`IncrementalMaxMin`] stamps a seeded link so the next
//! closure's seed list holds it once.
//!
//! Every recompute records how much it touched in a
//! [`crate::stats::RecomputeScope`], making the incremental win observable
//! (`hpn-experiments`/benches report flows-touched-per-event ratios).

use std::collections::BTreeMap;

use crate::arena::Flow;
use crate::flownet::{FlowSpec, LinkId, LinkState, RATE_EPS};
use crate::fxhash::FxHashMap;
use crate::path::{PathId, PathInterner};
use crate::stats::RecomputeScope;

/// Which allocator a [`crate::FlowNet`] runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AllocatorKind {
    /// Full progressive filling on every perturbation (reference oracle).
    Dense,
    /// Component-scoped recomputation (the default).
    #[default]
    Incremental,
}

impl AllocatorKind {
    /// The allocator's name as run labels and manifests print it
    /// (`allocator=incremental`).
    pub fn name(self) -> &'static str {
        match self {
            AllocatorKind::Dense => "dense",
            AllocatorKind::Incremental => "incremental",
        }
    }

    /// Construct the allocator this kind names.
    pub fn build(self) -> Box<dyn RateAllocator> {
        match self {
            AllocatorKind::Dense => Box::new(DenseMaxMin::default()),
            AllocatorKind::Incremental => Box::new(IncrementalMaxMin::default()),
        }
    }
}

/// Marks a link that is not in a [`HotSet`].
const NOT_HOT: u32 = u32::MAX;

/// The links that carry flows or hold queue, as an unordered indexed set.
///
/// `members` lists the hot links in no particular order; `slot[l]` is link
/// `l`'s index in `members`, or `NOT_HOT`. Insert and remove are O(1):
/// remove swap-removes and re-points the slot of the member moved into the
/// hole. The slot table grows on insert, so adding a link to the network
/// costs nothing here.
#[derive(Debug, Default)]
pub struct HotSet {
    members: Vec<u32>,
    slot: Vec<u32>,
}

impl HotSet {
    /// The hot links, in no particular order.
    pub fn as_slice(&self) -> &[u32] {
        &self.members
    }

    /// Make `link` hot; a no-op if it already is.
    pub fn insert(&mut self, link: u32) {
        let li = link as usize;
        if li >= self.slot.len() {
            self.slot.resize(li + 1, NOT_HOT);
        }
        if self.slot[li] == NOT_HOT {
            self.slot[li] = self.members.len() as u32;
            self.members.push(link);
        }
    }

    /// Make `link` not hot; a no-op if it is not.
    pub fn remove(&mut self, link: u32) {
        if let Some(s) = self.slot.get_mut(link as usize) {
            if *s != NOT_HOT {
                let i = std::mem::replace(s, NOT_HOT);
                self.take(i as usize);
            }
        }
    }

    /// Visit every hot link once, in no particular order, and drop those
    /// for which `keep` returns false.
    pub fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) {
        let mut i = 0;
        while i < self.members.len() {
            let link = self.members[i];
            if keep(link) {
                i += 1;
            } else {
                // The member swapped into `i` has not been visited yet.
                self.slot[link as usize] = NOT_HOT;
                self.take(i);
            }
        }
    }

    /// Swap-remove the member at index `i` (whose slot the caller already
    /// cleared) and re-point the slot of the member moved into its place.
    fn take(&mut self, i: usize) {
        self.members.swap_remove(i);
        if let Some(&moved) = self.members.get(i) {
            self.slot[moved as usize] = i as u32;
        }
    }

    /// The members in ascending order, after asserting that every
    /// member's slot points back at it and no other slot is set.
    #[cfg(test)]
    pub(crate) fn sorted_checked(&self) -> Vec<u32> {
        for (i, &l) in self.members.iter().enumerate() {
            assert_eq!(self.slot[l as usize], i as u32, "slot of hot link {l}");
        }
        let set = self.slot.iter().filter(|&&s| s != NOT_HOT).count();
        assert_eq!(set, self.members.len(), "slots set for non-members");
        let mut sorted = self.members.clone();
        sorted.sort_unstable();
        sorted
    }
}

/// Mutable view of the network state a recompute operates on. Borrows are
/// split out of `FlowNet` so allocators (stored inside the net) can work on
/// the rest of it.
pub struct AllocCtx<'a> {
    /// The net's flow table, indexed by key; `None` marks a free slot.
    pub flows: &'a [Option<Flow>],
    /// The flows' rates in bits/s, indexed by key like `flows`; a free
    /// slot's entry is 0. Allocators write the rates they solve here.
    pub rates: &'a mut [f64],
    /// Number of live flows in `flows`.
    pub live_flows: usize,
    /// Per-link state; capacities are read, aggregates written.
    pub links: &'a mut [LinkState],
    /// Resolves each flow spec's `PathId` to its link sequence.
    pub paths: &'a PathInterner,
    /// Links that carry flows or hold queue (unordered); the integration
    /// step only walks these. After a recompute it must be exactly {links
    /// with active flows or non-empty queue}.
    pub hot_links: &'a mut HotSet,
    /// Recompute-scope counters to record into.
    pub scope: &'a mut RecomputeScope,
}

/// Strategy for assigning max-min fair rates.
///
/// `FlowNet` calls the `on_*` hooks eagerly as the network mutates (they
/// must stay cheap — O(path length)) and `recompute` lazily, once, before
/// rates are next observed. All the mutations between two reads of rates
/// (typically every mutation of one simulated instant) batch into one
/// `recompute`: a flow may be added and removed, or a link toggled twice,
/// with no `recompute` between, and the result must be the one a
/// `recompute` after every hook would have left.
pub trait RateAllocator: Send {
    /// Which kind this is (for reporting).
    fn kind(&self) -> AllocatorKind;

    /// A link was appended to the network (links are never removed).
    fn on_link_added(&mut self, link: LinkId) {
        let _ = link;
    }

    /// A flow was injected with the given spec and resolved path.
    ///
    /// `key` is the flow's slot in [`AllocCtx::flows`]: unique among live
    /// flows, and handed to a later flow once this one is removed. The net
    /// adds flows in increasing id order, so counting these calls numbers
    /// flows in id order. The spec is passed so membership-tracking
    /// allocators can record the flow's `(path, demand)` problem row up
    /// front and never page the flow table back in during `recompute`
    /// closures.
    fn on_flow_added(&mut self, key: u64, spec: &FlowSpec, path: &[LinkId]) {
        let _ = (key, spec, path);
    }

    /// The flow under `key` completed or was killed; `path` is its
    /// resolved path. Flows that leave at one instant leave in id order.
    fn on_flow_removed(&mut self, key: u64, path: &[LinkId]) {
        let _ = (key, path);
    }

    /// A link's capacity or up/down state changed.
    fn on_link_changed(&mut self, link: LinkId) {
        let _ = link;
    }

    /// Recompute rates for everything the accumulated events may have
    /// affected, write them back, refresh the touched links' aggregates
    /// (`active_flows`, `allocated_bps`, `offered_bps`), update the hot
    /// set, and record the touched scope.
    fn recompute(&mut self, ctx: &mut AllocCtx<'_>);

    /// Only for the frozen `benchmark/` package; drop in its next change.
    fn surrogate_stats(&self) -> Option<crate::surrogate::SurrogateStats> {
        None
    }

    /// Only for the frozen `benchmark/` package; drop in its next change.
    fn set_validate_every(&mut self, every: u32) {
        let _ = every;
    }

    /// Only for the frozen `benchmark/` package; drop in its next change.
    fn export_memo(&self) -> Option<crate::surrogate::SurrogateSeed> {
        None
    }

    /// Only for the frozen `benchmark/` package; drop in its next change.
    fn seed_memo(&mut self, seed: &crate::surrogate::SurrogateSeed) -> bool {
        let _ = seed;
        false
    }
}

/// Shared core: progressive filling over one set of flows.
///
/// `flows` lists (path, demand) for the flows to fill, in ascending
/// flow-id order (determinism), and `rate` receives their rates, indexed
/// alike. `free`/`unfrozen_on` are per-link scratch sized to the link table
/// and zeroed outside the links of the fill under way. `active_links` and
/// `unfrozen_list` are per-fill scratch, cleared on entry; after a fill
/// `active_links` lists every link it used, so the caller can refresh
/// aggregates. All four belong to a [`ComponentFill`] and keep their
/// capacity, so a solve allocates nothing per component once they have
/// grown.
struct Fill<'a> {
    links: &'a [LinkState],
    paths: &'a PathInterner,
    free: &'a mut Vec<f64>,
    unfrozen_on: &'a mut Vec<u32>,
    active_links: &'a mut Vec<usize>,
    unfrozen_list: &'a mut Vec<usize>,
}

impl Fill<'_> {
    /// Run progressive filling: `flows[i] = (path, demand)`, and `rate[i]`
    /// receives flow `i`'s rate. Leaves the links it used, in first-crossed
    /// order, in `active_links`.
    fn run(&mut self, flows: &[(PathId, f64)], rate: &mut [f64]) {
        debug_assert_eq!(flows.len(), rate.len());
        let nlinks = self.links.len();
        self.free.resize(nlinks, 0.0);
        self.unfrozen_on.resize(nlinks, 0);
        let free = &mut self.free[..];
        let unfrozen_on = &mut self.unfrozen_on[..];
        let active_links = &mut *self.active_links;
        let unfrozen_list = &mut *self.unfrozen_list;
        active_links.clear();
        unfrozen_list.clear();
        rate.fill(0.0);
        for &(path, _) in flows {
            for l in self.paths.get(path) {
                let li = l.0 as usize;
                if unfrozen_on[li] == 0 {
                    active_links.push(li);
                    free[li] = self.links[li].capacity_bps();
                }
                unfrozen_on[li] += 1;
            }
        }

        unfrozen_list.extend(0..flows.len());
        let paths = self.paths;
        let freeze = |i: usize, unfrozen_on: &mut [u32]| {
            for l in paths.get(flows[i].0) {
                unfrozen_on[l.0 as usize] -= 1;
            }
        };

        // Immediately freeze flows crossing a dead (zero-capacity) link.
        unfrozen_list.retain(|&i| {
            let dead = paths
                .get(flows[i].0)
                .iter()
                .any(|l| self.links[l.0 as usize].capacity_bps() <= RATE_EPS);
            if dead {
                freeze(i, unfrozen_on);
            }
            !dead
        });

        while !unfrozen_list.is_empty() {
            // The common increment: bounded by the tightest link fair
            // share and the smallest remaining demand headroom.
            let mut delta = f64::INFINITY;
            for &li in active_links.iter() {
                if unfrozen_on[li] > 0 {
                    delta = delta.min(free[li] / unfrozen_on[li] as f64);
                }
            }
            for &i in unfrozen_list.iter() {
                delta = delta.min(flows[i].1 - rate[i]);
            }
            if !delta.is_finite() {
                // No unfrozen flow crosses any finite link and all
                // demands are infinite — cannot happen with validated
                // specs, but avoid an infinite loop just in case.
                break;
            }
            let delta = delta.max(0.0);
            // Apply the increment.
            for &i in unfrozen_list.iter() {
                rate[i] += delta;
            }
            for &li in active_links.iter() {
                free[li] -= delta * unfrozen_on[li] as f64;
            }
            // Freeze flows on saturated links and flows at demand.
            let before = unfrozen_list.len();
            unfrozen_list.retain(|&i| {
                let (path, demand) = flows[i];
                let at_demand = rate[i] >= demand - RATE_EPS;
                let on_saturated = paths
                    .get(path)
                    .iter()
                    .any(|l| free[l.0 as usize] <= RATE_EPS * demand.min(1e12));
                let keep = !(at_demand || on_saturated);
                if !keep {
                    freeze(i, unfrozen_on);
                }
                keep
            });
            if unfrozen_list.len() == before {
                // Numerical stall: a flow is within rounding distance of
                // its demand (one ulp of a ~1e10 rate exceeds the absolute
                // RATE_EPS window) and the increment rounds to zero.
                // Freeze the flow with the least demand headroom — it is
                // the one that stalled. Freezing an arbitrary flow here
                // would strand a genuinely unconstrained flow below both
                // its demand and any saturated link, breaking max-min
                // optimality (found by `scenario fuzz`, seed 53).
                let pos = unfrozen_list
                    .iter()
                    .enumerate()
                    .min_by(|&(_, &a), &(_, &b)| {
                        let ha = flows[a].1 - rate[a];
                        let hb = flows[b].1 - rate[b];
                        ha.partial_cmp(&hb).unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .map(|(p, _)| p)
                    .expect("stalled fill has unfrozen flows");
                let i = unfrozen_list.remove(pos);
                freeze(i, unfrozen_on);
            }
        }

        // Reset the scratch sparsely for the next fill.
        for &li in active_links.iter() {
            free[li] = 0.0;
            unfrozen_on[li] = 0;
        }
    }
}

/// Find with path compression over the epoch-stamped link union-find; a
/// link seen for the first time this epoch lazily initialises to itself
/// (no O(link-table) reset per solve).
fn uf_find(parent: &mut [u32], stamp: &mut [u64], epoch: u64, x: u32) -> u32 {
    let xi = x as usize;
    if stamp[xi] != epoch {
        stamp[xi] = epoch;
        parent[xi] = x;
        return x;
    }
    let mut root = x;
    while parent[root as usize] != root {
        root = parent[root as usize];
    }
    let mut cur = x;
    while parent[cur as usize] != root {
        let next = parent[cur as usize];
        parent[cur as usize] = root;
        cur = next;
    }
    root
}

/// The shared solver: partition flows into connected components of the
/// flow↔link sharing graph and run [`Fill`] on each component separately.
///
/// Both allocators route through this, which is what makes their results
/// bitwise identical: a component's filling arithmetic sees exactly the
/// same operands in the same order no matter which flows outside it exist.
/// It owns the fill's scratch, so one instance serves every component of
/// every solve.
#[derive(Default)]
struct ComponentFill {
    free: Vec<f64>,
    unfrozen_on: Vec<u32>,
    active_links: Vec<usize>,
    unfrozen_list: Vec<usize>,
    uf_parent: Vec<u32>,
    uf_stamp: Vec<u64>,
    epoch: u64,
}

impl ComponentFill {
    /// Partition `flows` into connected components of the flow↔link
    /// sharing graph and fill each one. `flows[i] = (path, demand)` in
    /// ascending flow-id order (preserved within each component); `rate[i]`
    /// receives flow `i`'s rate, and every link used is appended to
    /// `touched`.
    fn run(
        &mut self,
        links: &[LinkState],
        paths: &PathInterner,
        flows: &[(PathId, f64)],
        rate: &mut [f64],
        touched: &mut Vec<usize>,
    ) {
        self.epoch += 1;
        let epoch = self.epoch;
        self.uf_parent.resize(links.len(), 0);
        self.uf_stamp.resize(links.len(), 0);
        let (parent, stamp) = (&mut self.uf_parent[..], &mut self.uf_stamp[..]);
        for &(path, _) in flows {
            let ls = paths.get(path);
            let root = uf_find(parent, stamp, epoch, ls[0].0);
            for l in &ls[1..] {
                let r = uf_find(parent, stamp, epoch, l.0);
                if r != root {
                    parent[r as usize] = root;
                }
            }
        }
        // Components in first-seen (ascending smallest-flow-id) order.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_of: FxHashMap<u32, usize> = FxHashMap::default();
        for (i, &(path, _)) in flows.iter().enumerate() {
            let root = uf_find(parent, stamp, epoch, paths.get(path)[0].0);
            let gi = *group_of.entry(root).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[gi].push(i);
        }

        let mut comp: Vec<(PathId, f64)> = Vec::new();
        let mut comp_rate: Vec<f64> = Vec::new();
        for idxs in &groups {
            comp.clear();
            comp.extend(idxs.iter().map(|&i| flows[i]));
            comp_rate.resize(comp.len(), 0.0);
            self.fill(links, paths, &comp, &mut comp_rate);
            for (&i, &ri) in idxs.iter().zip(comp_rate.iter()) {
                rate[i] = ri;
            }
            touched.extend_from_slice(&self.active_links);
        }
    }

    /// Fill one pre-isolated component (all `flows` share one true
    /// component) with this solver's scratch, writing its rates into
    /// `rate`. The links it used are left in `self.active_links`.
    fn fill(
        &mut self,
        links: &[LinkState],
        paths: &PathInterner,
        flows: &[(PathId, f64)],
        rate: &mut [f64],
    ) {
        Fill {
            links,
            paths,
            free: &mut self.free,
            unfrozen_on: &mut self.unfrozen_on,
            active_links: &mut self.active_links,
            unfrozen_list: &mut self.unfrozen_list,
        }
        .run(flows, rate);
    }
}

/// Refresh `active_flows`/`allocated_bps`/`offered_bps` on the given links
/// from the given `(path, demand)` problem rows and their solved rates
/// (indexed alike, ascending flow-id order). Callers guarantee closure:
/// every flow crossing a listed link is listed, and every link of a listed
/// flow is listed. Working from rows keeps this free of flow-table
/// lookups; each link sums its flows in ascending-id order, so aggregates
/// stay bitwise identical across allocators.
fn refresh_link_aggregates_rows(
    ctx: &mut AllocCtx<'_>,
    link_indices: &[usize],
    flows: &[(PathId, f64)],
    rate: &[f64],
) {
    for &li in link_indices {
        let l = &mut ctx.links[li];
        l.active_flows = 0;
        l.allocated_bps = 0.0;
        l.offered_bps = 0.0;
    }
    for (&(path, _), &r) in flows.iter().zip(rate.iter()) {
        for l in ctx.paths.get(path) {
            let ls = &mut ctx.links[l.0 as usize];
            ls.active_flows += 1;
            ls.allocated_bps += r;
        }
    }
    // Offered load seen by each link: the flow's demand clamped by the
    // *upstream* part of its path (equal-split approximation), so a
    // link only sees traffic its predecessors can actually deliver.
    // Without this, two chunks sharing one source port would appear to
    // offer 2× the port rate downstream and fabricate queues that
    // cannot physically exist (the dual-plane no-queue result of
    // Fig 14b depends on getting this right).
    for (&(path, demand), &r) in flows.iter().zip(rate.iter()) {
        let mut upstream = if demand.is_finite() { demand } else { r };
        for l in ctx.paths.get(path) {
            let ls = &mut ctx.links[l.0 as usize];
            ls.offered_bps += upstream;
            let share = ls.capacity_bps() / ls.active_flows.max(1) as f64;
            upstream = upstream.min(share.max(r));
        }
    }
}

/// Bring the hot set up to date after a recompute that refreshed the
/// aggregates of `touched` (link indices, any order).
///
/// Only touched links can have changed hot-membership since the last
/// recompute, so only those are visited. A link leaves the hot set only
/// when its `active_flows` drops to zero with no standing queue, and
/// `active_flows` changes only through a recompute's aggregate refresh —
/// which always lists the link as touched (flow add/remove and link-state
/// changes all seed the dirty closure with that link, and the dense solver
/// touches every previously hot link). Queue drain happens in
/// `integrate_to`, which prunes drained links itself. So every *untouched*
/// hot link still qualifies. Each visit is one O(1) insert or remove, so
/// the cost is O(touched) however large the standing hot set is.
fn update_hot(ctx: &mut AllocCtx<'_>, touched: &[usize]) {
    for &li in touched {
        let l = &ctx.links[li];
        if l.active_flows > 0 || l.queue_bits > 0.0 {
            ctx.hot_links.insert(li as u32);
        } else {
            ctx.hot_links.remove(li as u32);
        }
    }
}

/// The from-scratch progressive-filling solver.
///
/// Every recompute rebuilds every flow's rate (component by component, via
/// `ComponentFill`, so its float arithmetic matches the incremental
/// solver's bit for bit). All per-iteration work is
/// restricted to *active* links (links crossed by at least one flow): a
/// full HPN pod has ~10^5 directed links but a training job touches only a
/// few thousand, so the allocation never scans the whole link table — but
/// it does scan every flow, which is what [`IncrementalMaxMin`] fixes.
#[derive(Default)]
pub struct DenseMaxMin {
    solver: ComponentFill,
    /// Live flows' keys by arrival number, so a walk visits them in id
    /// order: O(log n) per hook, where sorting the live flows would cost
    /// O(n log n) per solve.
    order: BTreeMap<u64, u32>,
    /// Per key: the arrival number of its live flow.
    arrival_of: Vec<u64>,
    arrivals: u64,
    scratch_flows: Vec<(PathId, f64)>,
}

impl RateAllocator for DenseMaxMin {
    fn kind(&self) -> AllocatorKind {
        AllocatorKind::Dense
    }

    fn on_flow_added(&mut self, key: u64, _: &FlowSpec, _: &[LinkId]) {
        let k32 = u32::try_from(key).expect("flow keys fit u32");
        let k = k32 as usize;
        if k >= self.arrival_of.len() {
            self.arrival_of.resize(k + 1, 0);
        }
        self.arrival_of[k] = self.arrivals;
        self.order.insert(self.arrivals, k32);
        self.arrivals += 1;
    }

    fn on_flow_removed(&mut self, key: u64, _: &[LinkId]) {
        let gone = self.order.remove(&self.arrival_of[key as usize]);
        assert_eq!(
            gone.map(u64::from),
            Some(key),
            "removed flow key {key} is live"
        );
    }

    fn recompute(&mut self, ctx: &mut AllocCtx<'_>) {
        // The live flows' (path-id, demand) rows, in ascending-id order.
        self.scratch_flows.clear();
        for &key in self.order.values() {
            let f = ctx.flows[key as usize]
                .as_ref()
                .expect("a keyed flow is live");
            self.scratch_flows.push((f.spec.path, f.spec.demand_bps));
        }
        let mut rate = vec![0.0f64; self.scratch_flows.len()];
        let mut touched: Vec<usize> = Vec::new();
        self.solver.run(
            ctx.links,
            ctx.paths,
            &self.scratch_flows,
            &mut rate,
            &mut touched,
        );

        for (&key, &r) in self.order.values().zip(rate.iter()) {
            ctx.rates[key as usize] = r;
        }
        // Zero stats on every link that was active before this recompute
        // too (it may have just lost its last flow): the old hot set covers
        // exactly those.
        touched.extend(ctx.hot_links.as_slice().iter().map(|&l| l as usize));
        touched.sort_unstable();
        touched.dedup();
        refresh_link_aggregates_rows(ctx, &touched, &self.scratch_flows, &rate);
        update_hot(ctx, &touched);
        let n = ctx.live_flows;
        ctx.scope.record(n, touched.len(), n);
    }
}

/// One closure problem row: `(arrival, key, path, demand_bps)`.
type ProblemRow = (u64, u32, PathId, f64);

/// A flow's record in the [`IncrementalMaxMin`] slab, at the flow's key.
struct FlowRec {
    /// Counts `on_flow_added` calls, so it ascends with the flow id.
    arrival: u64,
    path: PathId,
    demand: f64,
    /// Epoch of the last closure that expanded this flow.
    mark: u64,
    /// `pos[k]`: index, in the member list of the `k`-th link of the
    /// flow's path, of the entry standing for that occurrence. Empty while
    /// the key is free.
    pos: Vec<u32>,
}

/// One entry of a per-link member list: occurrence `k` of the path of the
/// flow under `key`.
#[derive(Clone, Copy)]
struct Member {
    key: u32,
    k: u32,
}

/// Component-scoped max-min: recomputes only flows/links reachable from
/// the perturbed elements through shared links.
///
/// Maintains per-link flow membership (updated O(path) per flow event) and
/// a seed list of perturbed links. `recompute` BFSes the flow↔link sharing
/// graph from the seeds one connected component at a time, runs
/// progressive filling on each component, and leaves everything else
/// untouched — rates outside the components are not even rewritten, so
/// they are bitwise stable across unrelated perturbations.
#[derive(Default)]
pub struct IncrementalMaxMin {
    /// One record per key, so the slab is never longer than the net's
    /// flow table. A freed key's record stays, with an empty `pos`, until
    /// the key's next flow reuses it.
    slab: Vec<FlowRec>,
    /// The next arrival number.
    arrivals: u64,
    /// Per link: one entry per occurrence of the link in a live flow's
    /// path, so a flow whose path repeats a link appears once per
    /// occurrence (mirrors the fill's per-occurrence share accounting).
    /// Each entry's slab record points back at it through `pos`, which
    /// makes removal a swap-remove instead of a scan. The records carry the
    /// `(path, demand)` problem row, so
    /// [`IncrementalMaxMin::closure_grouped`] never touches the flow table.
    /// Like `link_mark`, it covers only the links up to the highest one a
    /// flow or a link change has named (see [`IncrementalMaxMin::cover`]).
    members: Vec<Vec<Member>>,
    /// Links perturbed since the last recompute (seeds), each listed once.
    dirty: Vec<u32>,
    /// Per link: `epoch + 1` while the link is listed in `dirty`, i.e.
    /// stamped with the epoch of the closure that will drain it. Adding a
    /// flow or removing one seeds every link of its path, so without the
    /// stamp a busy link would be listed once per flow event.
    dirty_mark: Vec<u64>,
    /// BFS visit stamps per link, keyed by epoch (no per-event clearing);
    /// flows carry theirs in [`FlowRec::mark`].
    link_mark: Vec<u64>,
    epoch: u64,
    /// Reusable BFS queue scratch.
    queue: Vec<usize>,
    /// Closure output, reused across recomputes: the perturbed flows'
    /// problem rows, the perturbed links, and the group row bounds (see
    /// [`IncrementalMaxMin::closure_grouped`]).
    rows: Vec<ProblemRow>,
    comp_links: Vec<usize>,
    bounds: Vec<usize>,
    solver: ComponentFill,
    /// Per-recompute scratch: the closure rows' `(path, demand)` problem
    /// and its rates, indexed alike.
    problem: Vec<(PathId, f64)>,
    rate: Vec<f64>,
}

impl IncrementalMaxMin {
    /// BFS closure over the flow↔link sharing graph from the dirty seeds,
    /// one true connected component at a time. Each dirty seed that is
    /// still unvisited starts one BFS wave, and a wave can only reach its
    /// own component, so draining the queue per seed yields one group per
    /// component. Runs entirely over the membership table and the slab —
    /// no flow-table lookups.
    ///
    /// Fills `rows`, `comp_links` and `bounds`: the perturbed flows as
    /// full `(arrival, key, path, demand)` problem rows, the perturbed
    /// links (unsorted), and `bounds[g]..bounds[g + 1]`, the row range of
    /// group `g`. Within a group rows ascend by arrival, i.e. by flow id,
    /// matching the dense solver's freeze order. Seeds with no member
    /// flows (e.g. a link whose last flow just left) contribute their
    /// links but no group.
    ///
    /// Each flow is pushed and its path expanded once: the first member
    /// entry that reaches it stamps its slab record with the epoch, and
    /// every later entry (on another link of its path, or a repeat of the
    /// same link) skips it. So rows arrive unique and a group needs only
    /// the sort by arrival.
    fn closure_grouped(&mut self, paths: &PathInterner) {
        self.epoch += 1;
        let epoch = self.epoch;
        let Self {
            slab,
            members,
            dirty,
            link_mark,
            queue,
            rows,
            comp_links,
            bounds,
            ..
        } = self;
        queue.clear();
        rows.clear();
        comp_links.clear();
        bounds.clear();
        bounds.push(0);
        for &l in dirty.iter() {
            let li = l as usize;
            if link_mark[li] == epoch {
                continue;
            }
            link_mark[li] = epoch;
            queue.push(li);
            let start = rows.len();
            while let Some(lj) = queue.pop() {
                comp_links.push(lj);
                for m in &members[lj] {
                    let rec = &mut slab[m.key as usize];
                    if rec.mark == epoch {
                        continue;
                    }
                    rec.mark = epoch;
                    rows.push((rec.arrival, m.key, rec.path, rec.demand));
                    for lk in paths.get(rec.path) {
                        let lk = lk.0 as usize;
                        if link_mark[lk] != epoch {
                            link_mark[lk] = epoch;
                            queue.push(lk);
                        }
                    }
                }
            }
            rows[start..].sort_unstable_by_key(|&(arrival, ..)| arrival);
            if rows.len() > start {
                bounds.push(rows.len());
            }
        }
        dirty.clear();
    }

    /// Grow the per-link tables (`members`, `link_mark`, `dirty_mark`) to
    /// cover `link`.
    /// They grow on first use rather than per `add_link`, so setting up a
    /// large net that is never run (or runs on a few of its links) costs
    /// no allocator memory; every dirty seed and every member's link is
    /// covered by the time a closure reads it.
    fn cover(&mut self, link: LinkId) {
        let n = link.0 as usize + 1;
        if self.members.len() < n {
            self.members.resize_with(n, Vec::new);
            self.link_mark.resize(n, 0);
            self.dirty_mark.resize(n, 0);
        }
    }

    /// List a covered link as a seed of the next closure, once.
    fn mark_dirty(&mut self, link: u32) {
        let next = self.epoch + 1;
        let mark = &mut self.dirty_mark[link as usize];
        if *mark != next {
            *mark = next;
            self.dirty.push(link);
        }
    }

    /// Assert the membership table's invariants against the net's flow
    /// table, given as `table[key] = Some((flow id, path))` for each live
    /// key: the slab is no longer than the table, each live key's record
    /// holds its flow's path with one member entry per path occurrence on
    /// the right link, every member entry's `pos` points back at it, free
    /// keys hold no entries, and arrival numbers ascend with flow ids.
    #[cfg(test)]
    fn check_membership(&self, paths: &PathInterner, table: &[Option<(u64, PathId)>]) {
        assert!(
            self.slab.len() <= table.len(),
            "slab of {} outgrew the flow table of {}",
            self.slab.len(),
            table.len()
        );
        assert!(
            table[self.slab.len()..].iter().all(Option::is_none),
            "a live key lies past the slab"
        );
        let mut arrivals: Vec<(u64, u64)> = Vec::new();
        for (key, rec) in self.slab.iter().enumerate() {
            let Some((id, path)) = table[key] else {
                assert!(rec.pos.is_empty(), "free key {key} keeps member entries");
                continue;
            };
            assert_eq!(rec.path, path, "key {key} holds flow {id}'s path");
            arrivals.push((id, rec.arrival));
            let links = paths.get(rec.path);
            assert_eq!(rec.pos.len(), links.len(), "flow {id}: one pos per hop");
            for (k, (l, &p)) in links.iter().zip(&rec.pos).enumerate() {
                let m = self.members[l.0 as usize][p as usize];
                assert_eq!(
                    (m.key as usize, m.k as usize),
                    (key, k),
                    "flow {id} hop {k}"
                );
            }
        }
        arrivals.sort_unstable();
        assert!(
            arrivals.windows(2).all(|w| w[0].1 < w[1].1),
            "arrival numbers ascend with flow ids"
        );
        for (li, list) in self.members.iter().enumerate() {
            for (i, m) in list.iter().enumerate() {
                assert!(
                    table[m.key as usize].is_some(),
                    "link {li} entry {i}: key {} is not live",
                    m.key
                );
                let pos = self.slab[m.key as usize].pos[m.k as usize];
                assert_eq!(pos as usize, i, "link {li} entry {i}: pos points back");
            }
        }
    }
}

impl RateAllocator for IncrementalMaxMin {
    fn kind(&self) -> AllocatorKind {
        AllocatorKind::Incremental
    }

    fn on_flow_added(&mut self, key: u64, spec: &FlowSpec, path: &[LinkId]) {
        let k32 = u32::try_from(key).expect("flow keys fit u32");
        let slot = k32 as usize;
        // A reused key hands its `pos` buffer on to the new flow.
        let mut pos = match self.slab.get_mut(slot) {
            Some(r) => std::mem::take(&mut r.pos),
            None => {
                assert_eq!(slot, self.slab.len(), "flow keys are table slots");
                Vec::new()
            }
        };
        assert!(pos.is_empty(), "flow key {key} added while live");
        for (k, l) in path.iter().enumerate() {
            self.cover(*l);
            let m = &mut self.members[l.0 as usize];
            pos.push(m.len() as u32);
            m.push(Member {
                key: k32,
                k: k as u32,
            });
            self.mark_dirty(l.0);
        }
        // Epochs start at 1, so mark 0 is never the current closure's.
        let rec = FlowRec {
            arrival: self.arrivals,
            path: spec.path,
            demand: spec.demand_bps,
            mark: 0,
            pos,
        };
        self.arrivals += 1;
        match self.slab.get_mut(slot) {
            Some(r) => *r = rec,
            None => self.slab.push(rec),
        }
    }

    fn on_flow_removed(&mut self, key: u64, path: &[LinkId]) {
        let slot = key as usize;
        assert_eq!(
            self.slab.get(slot).map(|r| r.pos.len()),
            Some(path.len()),
            "removed flow key {key} is live"
        );
        for (k, l) in path.iter().enumerate() {
            // Read `pos` afresh per hop: when the path repeats a link, an
            // earlier hop's swap may have moved this occurrence.
            let p = self.slab[slot].pos[k] as usize;
            let m = &mut self.members[l.0 as usize];
            m.swap_remove(p);
            if let Some(&moved) = m.get(p) {
                self.slab[moved.key as usize].pos[moved.k as usize] = p as u32;
            }
            self.mark_dirty(l.0);
        }
        self.slab[slot].pos.clear();
    }

    fn on_link_changed(&mut self, link: LinkId) {
        self.cover(link);
        self.mark_dirty(link.0);
    }

    fn recompute(&mut self, ctx: &mut AllocCtx<'_>) {
        let total_flows = ctx.live_flows;
        if self.dirty.is_empty() {
            ctx.scope.record(0, 0, total_flows);
            return;
        }
        self.closure_grouped(ctx.paths);
        let Self {
            rows,
            comp_links,
            bounds,
            solver,
            problem,
            rate,
            ..
        } = self;
        problem.clear();
        problem.extend(rows.iter().map(|&(_, _, p, d)| (p, d)));
        rate.resize(problem.len(), 0.0);
        for g in bounds.windows(2) {
            let (a, b) = (g[0], g[1]);
            solver.fill(ctx.links, ctx.paths, &problem[a..b], &mut rate[a..b]);
        }
        for (&(_, key, _, _), &r) in rows.iter().zip(rate.iter()) {
            ctx.rates[key as usize] = r;
        }
        // Aggregates refresh over ALL component links — including seeds
        // whose last flow just left, which must read as idle again. Every
        // link's flows lie in one group, so per-link sums run in
        // ascending-id order exactly as in the dense solver.
        refresh_link_aggregates_rows(ctx, comp_links, problem, rate);
        update_hot(ctx, comp_links);
        ctx.scope.record(rows.len(), comp_links.len(), total_flows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flownet::{FlowNet, FlowSpec};
    use crate::time::SimTime;

    const GBPS: f64 = 1e9;

    fn two_component_net(kind: AllocatorKind) -> (FlowNet, Vec<crate::flownet::FlowHandle>) {
        let mut net = FlowNet::with_allocator(kind);
        let a = net.add_link(100.0 * GBPS, f64::INFINITY);
        let b = net.add_link(100.0 * GBPS, f64::INFINITY);
        let pa = net.intern_path(&[a]);
        let pb = net.intern_path(&[b]);
        let mut hs = Vec::new();
        for path in [pa, pa, pb] {
            hs.push(net.start_flow(
                SimTime::ZERO,
                FlowSpec {
                    path,
                    size_bits: 1e15,
                    demand_bps: f64::INFINITY,
                    tag: 0,
                },
            ));
        }
        net.recompute_if_dirty();
        (net, hs)
    }

    #[test]
    fn incremental_scopes_to_component() {
        let (mut net, hs) = two_component_net(AllocatorKind::Incremental);
        assert_eq!(net.flow_rate(hs[0]), Some(50.0 * GBPS));
        assert_eq!(net.flow_rate(hs[2]), Some(100.0 * GBPS));
        let before = net.alloc_scope();
        // Kill one flow on link a: only link a's component is recomputed.
        net.kill_flow(SimTime::ZERO, hs[0]);
        net.recompute_if_dirty();
        let d = net.alloc_scope().since(&before);
        assert_eq!(d.events, 1);
        assert_eq!(d.flows_touched, 1, "only the surviving flow on link a");
        assert_eq!(d.links_touched, 1);
        assert_eq!(net.flow_rate(hs[1]), Some(100.0 * GBPS));
        assert_eq!(net.flow_rate(hs[2]), Some(100.0 * GBPS));
    }

    #[test]
    fn dense_touches_everything() {
        let (mut net, hs) = two_component_net(AllocatorKind::Dense);
        let before = net.alloc_scope();
        net.kill_flow(SimTime::ZERO, hs[0]);
        net.recompute_if_dirty();
        let d = net.alloc_scope().since(&before);
        assert_eq!(d.events, 1);
        assert_eq!(d.flows_touched, 2, "dense recomputes every live flow");
    }

    #[test]
    fn hot_set_insert_twice_is_a_no_op() {
        let mut hot = HotSet::default();
        hot.insert(7);
        hot.insert(7);
        assert_eq!(hot.as_slice(), &[7]);
        assert_eq!(hot.sorted_checked(), vec![7]);
    }

    #[test]
    fn hot_set_remove_of_a_cold_link_is_a_no_op() {
        let mut hot = HotSet::default();
        hot.insert(3);
        hot.remove(2);
        hot.remove(900);
        assert_eq!(hot.sorted_checked(), vec![3]);
        hot.remove(3);
        hot.remove(3);
        assert!(hot.as_slice().is_empty());
        assert_eq!(hot.sorted_checked(), Vec::<u32>::new());
    }

    #[test]
    fn hot_set_remove_fixes_the_slot_of_the_swapped_member() {
        let mut hot = HotSet::default();
        for l in [10, 20, 30, 40] {
            hot.insert(l);
        }
        // 40 moves from the tail into 20's place.
        hot.remove(20);
        assert_eq!(hot.as_slice(), &[10, 40, 30]);
        assert_eq!(hot.sorted_checked(), vec![10, 30, 40]);
        // Removing 40 finds it through its fixed slot.
        hot.remove(40);
        assert_eq!(hot.as_slice(), &[10, 30]);
        assert_eq!(hot.sorted_checked(), vec![10, 30]);
    }

    #[test]
    fn hot_set_retain_visits_every_member_once() {
        let mut hot = HotSet::default();
        for l in 0..8 {
            hot.insert(l);
        }
        let mut seen = Vec::new();
        hot.retain(|l| {
            seen.push(l);
            l % 3 == 0
        });
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<u32>>());
        assert_eq!(hot.sorted_checked(), vec![0, 3, 6]);
    }

    #[test]
    fn kinds_report_themselves() {
        assert_eq!(DenseMaxMin::default().kind(), AllocatorKind::Dense);
        assert_eq!(
            IncrementalMaxMin::default().kind(),
            AllocatorKind::Incremental
        );
        assert_eq!(AllocatorKind::default(), AllocatorKind::Incremental);
    }

    /// Deterministic multi-component churn: `pods` disjoint 2-link pods,
    /// each carrying a handful of flows with varied demands; every step
    /// kills one flow and starts another in rotating pods, then observes
    /// rates (forcing a recompute of every perturbed component at once).
    /// Returns the exact bit pattern of every live rate after every step.
    fn churn_rate_bits(allocator: Box<dyn RateAllocator>, pods: usize, steps: usize) -> Vec<u64> {
        let mut net = FlowNet::with_allocator_box(allocator);
        let mut paths = Vec::new();
        for p in 0..pods {
            let a = net.add_link((50.0 + p as f64) * GBPS, f64::INFINITY);
            let b = net.add_link((80.0 + p as f64) * GBPS, f64::INFINITY);
            paths.push([net.intern_path(&[a]), net.intern_path(&[a, b])]);
        }
        let mut handles: Vec<crate::flownet::FlowHandle> = Vec::new();
        let mut tag = 0u64;
        let mut start = |net: &mut FlowNet, pod: usize, variant: usize| {
            tag += 1;
            net.start_flow(
                SimTime::ZERO,
                FlowSpec {
                    path: paths[pod][variant % 2],
                    size_bits: 1e15,
                    demand_bps: (10.0 + (tag % 7) as f64 * 13.0) * GBPS,
                    tag,
                },
            )
        };
        for pod in 0..pods {
            for v in 0..4 {
                handles.push(start(&mut net, pod, v));
            }
        }
        let mut bits = Vec::new();
        let mut observe = |net: &mut FlowNet, handles: &[crate::flownet::FlowHandle]| {
            for &h in handles {
                bits.push(net.flow_rate(h).expect("live flow").to_bits());
            }
        };
        observe(&mut net, &handles);
        for step in 0..steps {
            // Perturb several pods before the next observation so one
            // recompute covers multiple disjoint components.
            for k in 0..3 {
                let pod = (step * 3 + k) % pods;
                let victim = handles.remove((step + k) % handles.len());
                net.kill_flow(SimTime::ZERO, victim);
                handles.push(start(&mut net, pod, step + k));
            }
            observe(&mut net, &handles);
        }
        bits
    }

    #[test]
    fn incremental_is_bitwise_equal_to_dense() {
        let incremental = churn_rate_bits(Box::new(IncrementalMaxMin::default()), 9, 12);
        let dense = churn_rate_bits(Box::new(DenseMaxMin::default()), 9, 12);
        assert_eq!(incremental, dense);
    }

    /// An [`IncrementalMaxMin`] that checks its membership table before
    /// and after every recompute, counting the checks it ran.
    struct Checked {
        inner: IncrementalMaxMin,
        checks: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl RateAllocator for Checked {
        fn kind(&self) -> AllocatorKind {
            self.inner.kind()
        }
        fn on_link_added(&mut self, link: LinkId) {
            self.inner.on_link_added(link);
        }
        fn on_flow_added(&mut self, key: u64, spec: &FlowSpec, path: &[LinkId]) {
            self.inner.on_flow_added(key, spec, path);
        }
        fn on_flow_removed(&mut self, key: u64, path: &[LinkId]) {
            self.inner.on_flow_removed(key, path);
        }
        fn on_link_changed(&mut self, link: LinkId) {
            self.inner.on_link_changed(link);
        }
        fn recompute(&mut self, ctx: &mut AllocCtx<'_>) {
            let table: Vec<Option<(u64, PathId)>> = ctx
                .flows
                .iter()
                .map(|f| f.as_ref().map(|f| (f.id(), f.spec().path)))
                .collect();
            self.inner.check_membership(ctx.paths, &table);
            self.inner.recompute(ctx);
            self.inner.check_membership(ctx.paths, &table);
            self.checks
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Seeded churn driven identically through a dense net and a checked
    /// incremental one: flow starts (some paths cross one link twice),
    /// kills, link toggles and advances that complete flows. After every
    /// operation every live rate must be bitwise equal across the two,
    /// which forces a recompute and so a membership check.
    #[test]
    fn membership_table_holds_through_churn_and_matches_dense() {
        use crate::rng::Xoshiro256;
        use crate::time::SimDuration;
        let checks = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut dense = FlowNet::with_allocator(AllocatorKind::Dense);
        let mut incr = FlowNet::with_allocator_box(Box::new(Checked {
            inner: IncrementalMaxMin::default(),
            checks: checks.clone(),
        }));
        let links: Vec<(LinkId, LinkId)> = (0..12)
            .map(|i| {
                let cap = (40.0 + 10.0 * (i % 5) as f64) * GBPS;
                (dense.add_link(cap, 1e11), incr.add_link(cap, 1e11))
            })
            .collect();
        let mut rng = Xoshiro256::seed_from_u64(0x51ab);
        let mut live: Vec<(crate::flownet::FlowHandle, crate::flownet::FlowHandle)> = Vec::new();
        let mut down = vec![false; links.len()];
        let mut t = SimTime::ZERO;
        let (mut starts, mut repeats, mut completions) = (0, 0, 0);
        for op in 0..600 {
            let what = match rng.next_below(10) {
                0..=3 => {
                    let hops = 1 + rng.next_below(4) as usize;
                    let path: Vec<usize> = (0..hops)
                        .map(|_| rng.next_below(links.len() as u64) as usize)
                        .collect();
                    let mut uniq = path.clone();
                    uniq.sort_unstable();
                    uniq.dedup();
                    repeats += usize::from(uniq.len() < path.len());
                    let demand = if rng.chance(0.2) {
                        f64::INFINITY
                    } else {
                        rng.uniform(10.0, 120.0) * GBPS
                    };
                    let size = rng.uniform(0.1, 20.0) * GBPS;
                    let start = |net: &mut FlowNet, pick: fn(&(LinkId, LinkId)) -> LinkId| {
                        let ls: Vec<LinkId> = path.iter().map(|&i| pick(&links[i])).collect();
                        let p = net.intern_path(&ls);
                        let spec = FlowSpec {
                            path: p,
                            size_bits: size,
                            demand_bps: demand,
                            tag: op,
                        };
                        net.start_flow(t, spec)
                    };
                    live.push((start(&mut dense, |l| l.0), start(&mut incr, |l| l.1)));
                    starts += 1;
                    "start"
                }
                4 | 5 if !live.is_empty() => {
                    let (d, i) = live.swap_remove(rng.next_below(live.len() as u64) as usize);
                    assert!(dense.kill_flow(t, d) && incr.kill_flow(t, i));
                    "kill"
                }
                6 => {
                    let i = rng.next_below(links.len() as u64) as usize;
                    down[i] = !down[i];
                    dense.set_link_up(links[i].0, !down[i]);
                    incr.set_link_up(links[i].1, !down[i]);
                    "link toggle"
                }
                _ => {
                    t += SimDuration::from_micros(1 + rng.next_below(200_000));
                    let (cd, ci) = (dense.advance(t), incr.advance(t));
                    assert_eq!(cd.len(), ci.len(), "op {op}: completions");
                    completions += cd.len();
                    live.retain(|&(d, _)| dense.flow_rate(d).is_some());
                    "advance"
                }
            };
            for &(d, i) in &live {
                let (rd, ri) = (dense.flow_rate(d), incr.flow_rate(i));
                assert_eq!(
                    rd.map(f64::to_bits),
                    ri.map(f64::to_bits),
                    "op {op} ({what}): rates differ"
                );
            }
        }
        assert!(
            starts > 150 && repeats > 20 && completions > 20,
            "churn too tame"
        );
        assert!(checks.load(std::sync::atomic::Ordering::Relaxed) > 400);
    }

    /// The per-link tables cover only links a flow or a link change has
    /// named: adding links allocates nothing, and the first use of a link
    /// grows them just far enough.
    #[test]
    fn per_link_tables_grow_on_first_use() {
        let mut paths = PathInterner::new();
        let mut alloc = IncrementalMaxMin::default();
        for l in 0..1000 {
            alloc.on_link_added(LinkId(l));
        }
        assert!(alloc.members.is_empty() && alloc.link_mark.is_empty());
        assert!(alloc.dirty_mark.is_empty());
        alloc.on_link_changed(LinkId(7));
        assert_eq!((alloc.members.len(), alloc.link_mark.len()), (8, 8));
        assert_eq!(alloc.dirty_mark.len(), 8);
        let path = paths.intern(&[LinkId(3), LinkId(20)]);
        let spec = FlowSpec {
            path,
            size_bits: 1.0,
            demand_bps: 1.0,
            tag: 0,
        };
        alloc.on_flow_added(0, &spec, paths.get(path));
        assert_eq!((alloc.members.len(), alloc.link_mark.len()), (21, 21));
        alloc.check_membership(&paths, &[Some((0, path))]);
    }

    /// Keys are slots of a flow table that reuses them last-freed first,
    /// as the net's does: many add/remove cycles with a bounded number of
    /// live flows never grow the slab past the table, nor the table past
    /// that bound.
    #[test]
    fn slab_stays_within_peak_live_flows() {
        const MAX_LIVE: usize = 64;
        let mut paths = PathInterner::new();
        let mut alloc = IncrementalMaxMin::default();
        for l in 0..8 {
            alloc.on_link_added(LinkId(l));
        }
        let path_ids: Vec<PathId> = (0..8u32)
            .map(|l| paths.intern(&[LinkId(l), LinkId((l + 3) % 8), LinkId(l)]))
            .collect();
        // `table[key] = Some((id, path))` while the key is live.
        let mut table: Vec<Option<(u64, PathId)>> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let mut live: std::collections::VecDeque<usize> = Default::default();
        for id in 0..10_000u64 {
            if live.len() == MAX_LIVE || (id % 3 == 0 && !live.is_empty()) {
                // Remove from the middle as well as the front so keys
                // free in scattered order.
                let key = live.remove((id as usize * 7) % live.len()).unwrap();
                let (_, p) = table[key].take().unwrap();
                alloc.on_flow_removed(key as u64, paths.get(p));
                free.push(key);
            }
            let p = path_ids[(id % 8) as usize];
            let key = free.pop().unwrap_or_else(|| {
                table.push(None);
                table.len() - 1
            });
            table[key] = Some((id, p));
            let spec = FlowSpec {
                path: p,
                size_bits: 1.0,
                demand_bps: 1.0,
                tag: id,
            };
            alloc.on_flow_added(key as u64, &spec, paths.get(p));
            live.push_back(key);
            alloc.dirty.clear();
            if id % 1000 == 0 {
                alloc.check_membership(&paths, &table);
            }
        }
        alloc.check_membership(&paths, &table);
        assert!(table.len() <= MAX_LIVE, "table grew to {}", table.len());
    }
}
