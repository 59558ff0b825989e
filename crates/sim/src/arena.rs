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
//! Slot order is not flow order. Each flow also carries its `id`, a
//! monotone counter that is never reused: telemetry prints it, handles
//! check it so a stale handle never reaches the slot's next flow, and
//! every order that shows in results (completions, allocator rows, link
//! aggregate sums) follows it.

use crate::flownet::FlowSpec;
use crate::time::SimTime;

/// An active flow: its spec plus mutable progress state.
#[derive(Clone, Debug)]
pub struct Flow {
    pub(crate) id: u64,
    pub(crate) spec: FlowSpec,
    pub(crate) remaining_bits: f64,
    pub(crate) rate_bps: f64,
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
