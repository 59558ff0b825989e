//! Observation hooks for the fluid net (and the event engine).
//!
//! `hpn-sim` sits at the bottom of the workspace dependency graph, so it
//! cannot depend on the telemetry crate. Instead it exposes [`NetProbe`]:
//! a small callback trait that [`crate::FlowNet`] invokes at its state
//! transitions. The telemetry crate implements it with an adapter that
//! translates callbacks into typed events; anything else (tests, custom
//! tracing) can implement it directly.
//!
//! A net with no probe attached pays nothing: every call site is a single
//! `Option` check on a field that is `None` by default.

use crate::time::SimTime;

/// Callbacks fired by [`crate::FlowNet`] at its observable transitions.
///
/// All methods have empty default bodies so implementors subscribe only to
/// what they need.
pub trait NetProbe {
    /// A flow was injected (`flow` is the [`crate::FlowHandle`] counter).
    fn flow_added(&mut self, _t: SimTime, _flow: u64, _path_links: u32, _size_bits: f64) {}

    /// A flow left the net — `completed` is true for natural completion,
    /// false for a kill (reroute, job teardown).
    fn flow_removed(&mut self, _t: SimTime, _flow: u64, _completed: bool) {}

    /// The allocator recomputed rates; counters are the delta of this one
    /// recompute (see [`crate::RecomputeScope`]).
    fn rate_recompute(
        &mut self,
        _t: SimTime,
        _flows_touched: u64,
        _links_touched: u64,
        _flows_active: u64,
    ) {
    }

    /// A link changed physical state.
    fn link_state(&mut self, _t: SimTime, _link: u32, _up: bool) {}
}

/// A probe that counts callbacks — used in tests and as a trivial example.
#[derive(Clone, Copy, Debug, Default)]
pub struct CountingProbe {
    /// `flow_added` callbacks seen.
    pub flows_added: u64,
    /// `flow_removed` callbacks with `completed == true`.
    pub flows_completed: u64,
    /// `flow_removed` callbacks with `completed == false`.
    pub flows_killed: u64,
    /// `rate_recompute` callbacks seen.
    pub recomputes: u64,
    /// `link_state` callbacks seen.
    pub link_changes: u64,
}

impl NetProbe for CountingProbe {
    fn flow_added(&mut self, _t: SimTime, _flow: u64, _path_links: u32, _size_bits: f64) {
        self.flows_added += 1;
    }

    fn flow_removed(&mut self, _t: SimTime, _flow: u64, completed: bool) {
        if completed {
            self.flows_completed += 1;
        } else {
            self.flows_killed += 1;
        }
    }

    fn rate_recompute(&mut self, _t: SimTime, _f: u64, _l: u64, _a: u64) {
        self.recomputes += 1;
    }

    fn link_state(&mut self, _t: SimTime, _link: u32, _up: bool) {
        self.link_changes += 1;
    }
}
