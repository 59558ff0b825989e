//! The fluid net's flow table entries.
//!
//! A [`crate::FlowNet`] keeps its live flows in one slot table,
//! `Vec<Option<Flow>>`, with a free list that hands out the last-freed slot
//! first. A flow's slot is its key everywhere inside the net: the
//! [`crate::FlowHandle`] names it, and the rate allocator's hooks receive
//! it, so an allocator indexes its own per-flow records and writes rates
//! back with plain indexed stores. Slots are reused, so the table never
//! holds more entries than the peak live-flow count.
//!
//! A `Flow` holds only what never changes while the flow runs: its id,
//! spec and start instant. The two numbers that change every instant, the
//! allocated rate and the bits not yet delivered, live beside the table in
//! two dense `f64` arrays indexed by the same slot (a free slot holds rate
//! 0), so integration and the completion-time scan read 16 bytes per slot
//! and allocators write rates into a plain `&mut [f64]`.
//!
//! Slot order is not flow order. Each flow also carries its `id`, a
//! monotone counter that is never reused: telemetry prints it, handles
//! check it so a stale handle never reaches the slot's next flow, and
//! every order that shows in results (completions, allocator rows, link
//! aggregate sums) follows it.

use crate::flownet::FlowSpec;
use crate::time::SimTime;

/// An active flow: its id, spec and start instant.
#[derive(Clone, Debug)]
pub struct Flow {
    pub(crate) id: u64,
    pub(crate) spec: FlowSpec,
    pub(crate) started: SimTime,
}

impl Flow {
    /// The flow's id: unique over the net's lifetime and increasing in
    /// start order.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The immutable spec the flow was injected with.
    pub fn spec(&self) -> &FlowSpec {
        &self.spec
    }

    /// Injection instant.
    pub fn started(&self) -> SimTime {
        self.started
    }
}
