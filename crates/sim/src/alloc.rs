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
//!
//! Every recompute records how much it touched in a
//! [`crate::stats::RecomputeScope`], making the incremental win observable
//! (`hpn-experiments`/benches report flows-touched-per-event ratios).

use crate::arena::FlowArena;
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
    /// Resolve from the `HPN_ALLOCATOR` environment variable: unset means
    /// incremental, `dense` or `incremental` name their allocator, and any
    /// other value is an error naming the accepted values. The experiment
    /// harness uses this to regenerate figures under either allocator
    /// without threading a parameter through every experiment.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("HPN_ALLOCATOR").as_deref() {
            Err(std::env::VarError::NotPresent) => Ok(AllocatorKind::Incremental),
            Ok("dense") => Ok(AllocatorKind::Dense),
            Ok("incremental") => Ok(AllocatorKind::Incremental),
            Ok(v) => Err(format!(
                "HPN_ALLOCATOR={v:?} is not an allocator; accepted values: dense, incremental"
            )),
            Err(e) => Err(format!("HPN_ALLOCATOR: {e}")),
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

/// Mutable view of the network state a recompute operates on. Borrows are
/// split out of `FlowNet` so allocators (stored inside the net) can work on
/// the rest of it.
pub struct AllocCtx<'a> {
    /// Active flows; allocators write rates back through this.
    pub flows: &'a mut FlowArena,
    /// Per-link state; capacities are read, aggregates written.
    pub links: &'a mut [LinkState],
    /// Resolves each flow spec's `PathId` to its link sequence.
    pub paths: &'a PathInterner,
    /// Links that carry flows or hold queue (sorted, deduplicated); the
    /// integration step only walks these. After a recompute it must be
    /// exactly {links with active flows or non-empty queue}.
    pub hot_links: &'a mut Vec<u32>,
    /// Recompute-scope counters to record into.
    pub scope: &'a mut RecomputeScope,
}

/// Strategy for assigning max-min fair rates.
///
/// `FlowNet` calls the `on_*` hooks eagerly as the network mutates (they
/// must stay cheap — O(path length)) and `recompute` lazily, once, before
/// rates are next observed; multiple mutations may batch into one
/// `recompute`.
pub trait RateAllocator: Send {
    /// Which kind this is (for reporting).
    fn kind(&self) -> AllocatorKind;

    /// A link was appended to the network (links are never removed).
    fn on_link_added(&mut self, link: LinkId) {
        let _ = link;
    }

    /// A flow was injected with the given spec and resolved path. The spec
    /// is passed so membership-tracking allocators can record the flow's
    /// `(path, demand)` problem row up front and never page the flow arena
    /// back in during `recompute` closures.
    fn on_flow_added(&mut self, id: u64, spec: &FlowSpec, path: &[LinkId]) {
        let _ = (id, spec, path);
    }

    /// A flow completed or was killed; `path` is its resolved path.
    fn on_flow_removed(&mut self, id: u64, path: &[LinkId]) {
        let _ = (id, path);
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
/// `flows` lists (dense-index, path, demand) for the flows to fill, in
/// ascending flow-id order (determinism). `rate` is indexed by the same
/// dense index. `free`/`unfrozen_on` are per-link scratch sized to the link
/// table and zeroed outside the `touched` links; `touched` collects every
/// link the fill used so the caller can sparsely reset the scratch and
/// refresh aggregates.
struct Fill<'a> {
    links: &'a [LinkState],
    paths: &'a PathInterner,
    free: &'a mut Vec<f64>,
    unfrozen_on: &'a mut Vec<u32>,
}

impl Fill<'_> {
    /// Run progressive filling. `flows[i] = (path, demand)`; returns rates
    /// per flow plus the set of links touched (in first-crossed order).
    fn run(&mut self, flows: &[(PathId, f64)]) -> (Vec<f64>, Vec<usize>) {
        let n = flows.len();
        let nlinks = self.links.len();
        self.free.resize(nlinks, 0.0);
        self.unfrozen_on.resize(nlinks, 0);
        let free = &mut *self.free;
        let unfrozen_on = &mut *self.unfrozen_on;
        let mut rate = vec![0.0f64; n];
        let mut active_links: Vec<usize> = Vec::new();
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

        let mut unfrozen_list: Vec<usize> = (0..n).collect();
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
            for &li in &active_links {
                if unfrozen_on[li] > 0 {
                    delta = delta.min(free[li] / unfrozen_on[li] as f64);
                }
            }
            for &i in &unfrozen_list {
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
            for &i in &unfrozen_list {
                rate[i] += delta;
            }
            for &li in &active_links {
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

        // Reset the scratch sparsely for the next recompute.
        for &li in &active_links {
            free[li] = 0.0;
            unfrozen_on[li] = 0;
        }
        (rate, active_links)
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
#[derive(Default)]
struct ComponentFill {
    free: Vec<f64>,
    unfrozen_on: Vec<u32>,
    uf_parent: Vec<u32>,
    uf_stamp: Vec<u64>,
    epoch: u64,
}

impl ComponentFill {
    /// Partition `flows` into connected components of the flow↔link
    /// sharing graph and fill each one. `flows[i] = (path, demand)` in
    /// ascending flow-id order (preserved within each component). Returns
    /// rates per flow plus every link used.
    fn run(
        &mut self,
        links: &[LinkState],
        paths: &PathInterner,
        flows: &[(PathId, f64)],
    ) -> (Vec<f64>, Vec<usize>) {
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

        let mut rate = vec![0.0f64; flows.len()];
        let mut all_links: Vec<usize> = Vec::new();
        let mut comp: Vec<(PathId, f64)> = Vec::new();
        for idxs in &groups {
            comp.clear();
            comp.extend(idxs.iter().map(|&i| flows[i]));
            let (r, active) = self.fill(links, paths, &comp);
            for (&i, &ri) in idxs.iter().zip(r.iter()) {
                rate[i] = ri;
            }
            all_links.extend(active);
        }
        (rate, all_links)
    }

    /// Fill one pre-isolated component (all `flows` share one true
    /// component) with this solver's scratch, returning its rates and the
    /// links it used.
    fn fill(
        &mut self,
        links: &[LinkState],
        paths: &PathInterner,
        flows: &[(PathId, f64)],
    ) -> (Vec<f64>, Vec<usize>) {
        Fill {
            links,
            paths,
            free: &mut self.free,
            unfrozen_on: &mut self.unfrozen_on,
        }
        .run(flows)
    }
}

/// Refresh `active_flows`/`allocated_bps`/`offered_bps` on the given links
/// from the given `(path, demand)` problem rows and their solved rates
/// (indexed alike, ascending flow-id order). Callers guarantee closure:
/// every flow crossing a listed link is listed, and every link of a listed
/// flow is listed. Working from rows rather than flow ids keeps this free
/// of arena lookups; the float-op order is exactly the id-iteration order
/// the original arena-walking version used, so aggregates stay bitwise
/// identical across allocators.
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
/// aggregates of `touched_sorted` (ascending link indices).
///
/// Only touched links can have changed hot-membership since the last
/// recompute, so only those are inspected. A link leaves the hot set only
/// when its `active_flows` drops to zero with no standing queue, and
/// `active_flows` changes only through a recompute's aggregate refresh —
/// which always lists the link as touched (flow add/remove and link-state
/// changes all seed the dirty closure with that link, and the dense solver
/// touches every previously hot link). Queue drain happens in
/// `integrate_to`, which prunes drained links itself. So every *untouched*
/// hot link still qualifies.
///
/// Steady-state churn (touched links stay hot) costs O(touched · log hot)
/// binary searches and never writes the hot vector at all; an O(hot log
/// hot) rebuild per recompute would dominate the event cost once the
/// standing hot set is large.
fn update_hot(ctx: &mut AllocCtx<'_>, touched_sorted: &[usize], scratch: &mut Vec<u32>) {
    scratch.clear();
    let mut any_dead = false;
    {
        let links = &*ctx.links;
        let hot = &*ctx.hot_links;
        for &li in touched_sorted {
            let l = &links[li];
            let qualifies = l.active_flows > 0 || l.queue_bits > 0.0;
            let present = hot.binary_search(&(li as u32)).is_ok();
            if qualifies && !present {
                scratch.push(li as u32);
            } else if !qualifies && present {
                any_dead = true;
            }
        }
    }
    if !scratch.is_empty() {
        ctx.hot_links.extend_from_slice(scratch);
        ctx.hot_links.sort_unstable();
        ctx.hot_links.dedup();
    }
    if any_dead {
        let links = &*ctx.links;
        ctx.hot_links
            .retain(|&l| links[l as usize].active_flows > 0 || links[l as usize].queue_bits > 0.0);
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
    scratch_flows: Vec<(PathId, f64)>,
    hot_scratch: Vec<u32>,
}

impl RateAllocator for DenseMaxMin {
    fn kind(&self) -> AllocatorKind {
        AllocatorKind::Dense
    }

    fn recompute(&mut self, ctx: &mut AllocCtx<'_>) {
        // Dense working arrays over the active flows, in ascending-id
        // (arena) order. No per-recompute `Vec<&Flow>` snapshot: the arena
        // iterates in place and the fill works on (path-id, demand) pairs.
        self.scratch_flows.clear();
        for (_, f) in ctx.flows.iter() {
            self.scratch_flows
                .push((f.spec().path, f.spec().demand_bps));
        }
        let (rate, active_links) = self.solver.run(ctx.links, ctx.paths, &self.scratch_flows);

        for ((_, f), r) in ctx.flows.iter_mut().zip(rate.iter()) {
            f.set_rate_bps(*r);
        }
        // Zero stats on every link that was active before this recompute
        // too (it may have just lost its last flow): the old hot set covers
        // exactly those.
        let mut touched: Vec<usize> = active_links;
        touched.extend(ctx.hot_links.iter().map(|&l| l as usize));
        touched.sort_unstable();
        touched.dedup();
        refresh_link_aggregates_rows(ctx, &touched, &self.scratch_flows, &rate);
        update_hot(ctx, &touched, &mut self.hot_scratch);
        let n = ctx.flows.len();
        ctx.scope.record(n, touched.len(), n);
    }
}

/// One closure problem row: `(flow id, path, demand_bps)`.
type ProblemRow = (u64, PathId, f64);

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
    /// Per link: `(flow id, path, demand)` of flows crossing it, with
    /// multiplicity for repeated path entries (mirrors the fill's
    /// per-occurrence share accounting). Carrying the problem row alongside
    /// the id means [`IncrementalMaxMin::closure_grouped`] never touches
    /// the flow arena: everything a recompute solves over comes straight
    /// out of this membership table.
    members: Vec<Vec<ProblemRow>>,
    /// Links perturbed since the last recompute (seeds; may repeat).
    dirty: Vec<u32>,
    /// BFS visit stamps per link, keyed by epoch (no per-event clearing).
    link_mark: Vec<u64>,
    epoch: u64,
    /// Reusable BFS queue scratch.
    queue: Vec<usize>,
    solver: ComponentFill,
    hot_scratch: Vec<u32>,
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
    /// component. Runs entirely over the membership table — no flow-arena
    /// lookups.
    ///
    /// Returns `(rows, comp_links, bounds)`: the perturbed flows as full
    /// `(id, path, demand)` problem rows, the perturbed links (unsorted),
    /// and `bounds[g]..bounds[g + 1]`, the row range of group `g`. Within
    /// a group rows ascend by id, matching the dense solver's freeze
    /// order. Seeds with no member flows (e.g. a link whose last flow just
    /// left) contribute their links but no group.
    ///
    /// Flow dedup rides on the sort the rows need anyway: the BFS collects
    /// one row per member *occurrence* (a flow appears once per visited
    /// link it crosses) and a sort + dedup-by-id collapses them. That is
    /// cheaper than a hash-set membership probe per occurrence, and path
    /// expansion stays idempotent through the link visit stamps.
    fn closure_grouped(
        &mut self,
        paths: &PathInterner,
    ) -> (Vec<ProblemRow>, Vec<usize>, Vec<usize>) {
        self.epoch += 1;
        let epoch = self.epoch;
        let mut queue = std::mem::take(&mut self.queue);
        queue.clear();
        let mut comp_links: Vec<usize> = Vec::new();
        let mut rows: Vec<ProblemRow> = Vec::new();
        let mut bounds: Vec<usize> = vec![0];
        let mut seeds = std::mem::take(&mut self.dirty);
        for &l in &seeds {
            let li = l as usize;
            if self.link_mark[li] == epoch {
                continue;
            }
            self.link_mark[li] = epoch;
            queue.push(li);
            let start = rows.len();
            while let Some(lj) = queue.pop() {
                comp_links.push(lj);
                for &(fid, path, demand) in &self.members[lj] {
                    rows.push((fid, path, demand));
                    for lk in paths.get(path) {
                        let lk = lk.0 as usize;
                        if self.link_mark[lk] != epoch {
                            self.link_mark[lk] = epoch;
                            queue.push(lk);
                        }
                    }
                }
            }
            rows[start..].sort_unstable_by_key(|&(id, _, _)| id);
            // Suffix-local dedup: occurrences of one flow never cross
            // group boundaries, so earlier groups need no rescan.
            let mut w = start;
            for r in start..rows.len() {
                if w == start || rows[r].0 != rows[w - 1].0 {
                    rows[w] = rows[r];
                    w += 1;
                }
            }
            rows.truncate(w);
            if rows.len() > start {
                bounds.push(rows.len());
            }
        }
        seeds.clear();
        self.dirty = seeds;
        self.queue = queue;
        (rows, comp_links, bounds)
    }
}

impl RateAllocator for IncrementalMaxMin {
    fn kind(&self) -> AllocatorKind {
        AllocatorKind::Incremental
    }

    fn on_link_added(&mut self, _link: LinkId) {
        self.members.push(Vec::new());
        self.link_mark.push(0);
    }

    fn on_flow_added(&mut self, id: u64, spec: &FlowSpec, path: &[LinkId]) {
        for l in path {
            self.members[l.0 as usize].push((id, spec.path, spec.demand_bps));
            self.dirty.push(l.0);
        }
    }

    fn on_flow_removed(&mut self, id: u64, path: &[LinkId]) {
        for l in path {
            let m = &mut self.members[l.0 as usize];
            let pos = m
                .iter()
                .position(|&(fid, _, _)| fid == id)
                .expect("removed flow was a member of its links");
            m.swap_remove(pos);
            self.dirty.push(l.0);
        }
    }

    fn on_link_changed(&mut self, link: LinkId) {
        self.dirty.push(link.0);
    }

    fn recompute(&mut self, ctx: &mut AllocCtx<'_>) {
        let total_flows = ctx.flows.len();
        if self.dirty.is_empty() {
            ctx.scope.record(0, 0, total_flows);
            return;
        }
        let (rows, mut comp_links, bounds) = self.closure_grouped(ctx.paths);
        let mut problem = std::mem::take(&mut self.problem);
        problem.clear();
        problem.extend(rows.iter().map(|&(_, p, d)| (p, d)));
        let mut rate = std::mem::take(&mut self.rate);
        rate.clear();
        rate.resize(problem.len(), 0.0);
        for g in bounds.windows(2) {
            let (a, b) = (g[0], g[1]);
            let (r, _) = self.solver.fill(ctx.links, ctx.paths, &problem[a..b]);
            rate[a..b].copy_from_slice(&r);
            // Ids ascend within each group, so the gallop restarts per
            // group.
            ctx.flows
                .set_rates_ascending(rows[a..b].iter().map(|&(id, _, _)| id), &rate[a..b]);
        }
        // Aggregates refresh over ALL component links — including seeds
        // whose last flow just left, which must read as idle again. Every
        // link's flows lie in one group, so per-link sums run in
        // ascending-id order exactly as in the dense solver.
        comp_links.sort_unstable();
        refresh_link_aggregates_rows(ctx, &comp_links, &problem, &rate);
        update_hot(ctx, &comp_links, &mut self.hot_scratch);
        ctx.scope.record(rows.len(), comp_links.len(), total_flows);
        self.problem = problem;
        self.rate = rate;
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
}
