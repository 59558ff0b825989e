//! Dense flow storage with deterministic ascending-id iteration.
//!
//! [`FlowArena`] replaces the `BTreeMap<u64, Flow>` the fluid model used to
//! keep active flows in. Flow ids are allocated monotonically and never
//! reused, so a plain vector of `(id, slot)` pairs stays sorted by
//! construction: insertion is an O(1) push, lookup is a binary search, and
//! iteration is a linear scan in ascending-id order — the order every rate
//! recompute and completion sweep must follow for determinism. Removal
//! tombstones the slot in place (so concurrently-held dense indices stay
//! valid within a recompute) and the vector is compacted once tombstones
//! outnumber live flows.
//!
//! The payoff over the map: rate allocators index flows by dense slot
//! position directly instead of collecting a `Vec<&Flow>` snapshot on every
//! recompute, and iteration is cache-friendly.

use crate::flownet::FlowSpec;
use crate::time::SimTime;

/// An active flow: its spec plus mutable progress state.
#[derive(Clone, Debug)]
pub struct Flow {
    pub(crate) spec: FlowSpec,
    pub(crate) remaining_bits: f64,
    pub(crate) rate_bps: f64,
    pub(crate) started: SimTime,
}

impl Flow {
    /// The immutable spec the flow was injected with.
    pub fn spec(&self) -> &FlowSpec {
        &self.spec
    }

    /// Currently allocated rate in bits/s.
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    /// Set the allocated rate; called by rate allocators on recompute.
    pub fn set_rate_bps(&mut self, rate: f64) {
        self.rate_bps = rate;
    }

    /// Bits not yet delivered.
    pub fn remaining_bits(&self) -> f64 {
        self.remaining_bits
    }

    /// Injection instant.
    pub fn started(&self) -> SimTime {
        self.started
    }
}

/// Slab-style arena over flows keyed by monotonically increasing ids.
#[derive(Clone, Debug, Default)]
pub struct FlowArena {
    /// Ascending by id; `None` marks a removed flow awaiting compaction.
    slots: Vec<(u64, Option<Flow>)>,
    /// Shadow of `slots`' ids, kept 1:1 (tombstones included): binary
    /// searches probe this compact 8-byte-per-element vector instead of
    /// striding over the wide slot tuples, which keeps the whole index in
    /// cache even when tens of thousands of flows are live.
    ids: Vec<u64>,
    live: usize,
}

/// Compact only past this size — tiny arenas aren't worth the churn.
const COMPACT_MIN_SLOTS: usize = 64;

impl FlowArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live flows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no flows are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Insert a flow under `id`, which must exceed every id ever inserted
    /// (ids are a monotone counter; this is what keeps the vector sorted).
    pub fn insert(&mut self, id: u64, flow: Flow) {
        if let Some(&(last, _)) = self.slots.last() {
            assert!(id > last, "flow ids must be inserted in increasing order");
        }
        self.slots.push((id, Some(flow)));
        self.ids.push(id);
        self.live += 1;
    }

    /// Remove and return the flow under `id`, if live.
    pub fn remove(&mut self, id: u64) -> Option<Flow> {
        let idx = self.find(id)?;
        let taken = self.slots[idx].1.take();
        if taken.is_some() {
            self.live -= 1;
            self.compact_if_sparse();
        }
        taken
    }

    /// Remove every live flow that `pick` selects and hand each to `take`,
    /// in ascending-id order: one pass over the slots, then at most one
    /// compaction.
    pub fn remove_where(
        &mut self,
        mut pick: impl FnMut(&Flow) -> bool,
        mut take: impl FnMut(u64, Flow),
    ) {
        for (id, slot) in &mut self.slots {
            if let Some(f) = slot.take_if(|f| pick(f)) {
                self.live -= 1;
                take(*id, f);
            }
        }
        self.compact_if_sparse();
    }

    /// Drop the tombstones once they outnumber live flows.
    fn compact_if_sparse(&mut self) {
        let dead = self.slots.len() - self.live;
        if self.slots.len() >= COMPACT_MIN_SLOTS && dead * 2 > self.slots.len() {
            self.slots.retain(|(_, f)| f.is_some());
            self.ids.clear();
            self.ids.extend(self.slots.iter().map(|&(id, _)| id));
        }
    }

    /// Borrow the flow under `id`, if live.
    pub fn get(&self, id: u64) -> Option<&Flow> {
        let idx = self.find(id)?;
        self.slots[idx].1.as_ref()
    }

    /// Mutably borrow the flow under `id`, if live.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut Flow> {
        let idx = self.find(id)?;
        self.slots[idx].1.as_mut()
    }

    /// Live flows in ascending-id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Flow)> {
        self.slots
            .iter()
            .filter_map(|(id, f)| f.as_ref().map(|f| (*id, f)))
    }

    /// Live flows in ascending-id order, mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut Flow)> {
        self.slots
            .iter_mut()
            .filter_map(|(id, f)| f.as_mut().map(|f| (*id, f)))
    }

    /// Raw slot storage (tombstones included) for allocators that index
    /// flows by dense position. Sorted ascending by id; at most half the
    /// slots are tombstones.
    pub fn slots(&self) -> &[(u64, Option<Flow>)] {
        &self.slots
    }

    /// Raw slot storage, mutably (see [`FlowArena::slots`]).
    pub fn slots_mut(&mut self) -> &mut [(u64, Option<Flow>)] {
        &mut self.slots
    }

    /// Set rates for live flows with the given **ascending** ids (`rates`
    /// indexed alike). A galloping merge against the id index: each lookup
    /// searches only past the previous match, so k nearby updates over an
    /// n-slot arena cost O(k·log(stride)) instead of k full binary
    /// searches. This is the rate-writeback path of every component-scoped
    /// recompute.
    pub fn set_rates_ascending(&mut self, ids: impl IntoIterator<Item = u64>, rates: &[f64]) {
        let n = self.ids.len();
        let mut pos = 0usize;
        for (id, &r) in ids.into_iter().zip(rates.iter()) {
            // Gallop: exponentially widen [lo, hi) until ids[hi] >= id.
            let mut step = 1usize;
            let mut lo = pos;
            let mut hi = pos;
            while hi < n && self.ids[hi] < id {
                lo = hi + 1;
                hi += step;
                step <<= 1;
            }
            let hi = hi.min(n);
            let idx = lo + self.ids[lo..hi].partition_point(|&x| x < id);
            debug_assert!(idx < n && self.ids[idx] == id, "unknown flow id {id}");
            self.slots[idx]
                .1
                .as_mut()
                .expect("rate writeback targets a live flow")
                .set_rate_bps(r);
            pos = idx + 1;
        }
    }

    fn find(&self, id: u64) -> Option<usize> {
        debug_assert_eq!(self.ids.len(), self.slots.len());
        self.ids.binary_search(&id).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathId;

    fn flow(tag: u64) -> Flow {
        Flow {
            spec: FlowSpec {
                path: PathId(0),
                size_bits: 1.0,
                demand_bps: 1.0,
                tag,
            },
            remaining_bits: 1.0,
            rate_bps: 0.0,
            started: SimTime::ZERO,
        }
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut a = FlowArena::new();
        a.insert(0, flow(10));
        a.insert(5, flow(11));
        a.insert(9, flow(12));
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(5).unwrap().spec().tag, 11);
        assert!(a.get(4).is_none());
        let f = a.remove(5).unwrap();
        assert_eq!(f.spec().tag, 11);
        assert!(a.remove(5).is_none(), "double remove is None");
        assert_eq!(a.len(), 2);
        assert!(a.get(5).is_none());
        assert_eq!(a.get(9).unwrap().spec().tag, 12);
    }

    #[test]
    fn iteration_is_ascending_and_skips_tombstones() {
        let mut a = FlowArena::new();
        for id in [1u64, 3, 4, 7, 8] {
            a.insert(id, flow(id * 100));
        }
        a.remove(4);
        a.remove(1);
        let ids: Vec<u64> = a.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![3, 7, 8]);
        let tags: Vec<u64> = a.iter().map(|(_, f)| f.spec().tag).collect();
        assert_eq!(tags, vec![300, 700, 800]);
    }

    #[test]
    #[should_panic(expected = "increasing order")]
    fn out_of_order_insert_panics() {
        let mut a = FlowArena::new();
        a.insert(5, flow(0));
        a.insert(5, flow(1));
    }

    #[test]
    fn compaction_bounds_tombstones() {
        let mut a = FlowArena::new();
        for id in 0..200u64 {
            a.insert(id, flow(id));
        }
        // Remove most flows: tombstones may never exceed half the slots.
        for id in 0..180u64 {
            a.remove(id);
            assert!(
                a.slots().len() < COMPACT_MIN_SLOTS
                    || (a.slots().len() - a.len()) * 2 <= a.slots().len(),
                "tombstones exceed half at len {}",
                a.slots().len()
            );
        }
        assert_eq!(a.len(), 20);
        let ids: Vec<u64> = a.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, (180..200).collect::<Vec<u64>>());
        // Still usable after compaction.
        a.insert(500, flow(500));
        assert_eq!(a.get(500).unwrap().spec().tag, 500);
        assert_eq!(a.get(199).unwrap().spec().tag, 199);
    }

    #[test]
    fn remove_where_takes_picked_flows_in_id_order_and_compacts() {
        let mut a = FlowArena::new();
        for id in 0..100u64 {
            a.insert(id, flow(id));
        }
        let mut taken = Vec::new();
        a.remove_where(
            |f| f.spec().tag % 4 != 0,
            |id, f| taken.push((id, f.spec().tag)),
        );
        let want: Vec<(u64, u64)> = (0..100)
            .filter(|id| id % 4 != 0)
            .map(|id| (id, id))
            .collect();
        assert_eq!(taken, want);
        assert_eq!(a.len(), 25);
        assert_eq!(a.slots().len(), 25, "one compaction after the pass");
        let ids: Vec<u64> = a.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, (0..100).step_by(4).collect::<Vec<u64>>());
        assert_eq!(a.get(96).unwrap().spec().tag, 96);
    }

    #[test]
    fn iter_mut_mutates_in_place() {
        let mut a = FlowArena::new();
        a.insert(0, flow(0));
        a.insert(1, flow(1));
        for (_, f) in a.iter_mut() {
            f.set_rate_bps(42.0);
        }
        assert!(a.iter().all(|(_, f)| f.rate_bps() == 42.0));
    }
}
