//! Deliberate allocator bugs for mutation-testing the oracles.
//!
//! A fuzzing harness that has never caught a bug proves nothing. The
//! [`Mutation`] hook wraps the incremental allocator (the system under
//! test) in a delegating [`RateAllocator`] that corrupts its output in a
//! controlled way; the oracle battery must catch every mutation and shrink
//! the witness to a tiny scenario. `crates/check/tests/mutation.rs` pins
//! exactly that.

use hpn_sim::alloc::AllocCtx;
use hpn_sim::{AllocatorKind, FlowSpec, LinkId, RateAllocator};

/// Which deliberate bug to inject into the incremental allocator.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Mutation {
    /// No bug — the production configuration.
    #[default]
    None,
    /// After every recompute, bump the oldest live flow's rate by 5% (+1
    /// bit/s so a zero rate also moves). Breaks dense/incremental
    /// equivalence immediately and capacity conservation on saturated
    /// links.
    RateOvershoot,
}

impl Mutation {
    /// CLI name of this mutation.
    pub fn name(self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::RateOvershoot => "rate-overshoot",
        }
    }

    /// Parse a CLI name.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "none" => Some(Mutation::None),
            "rate-overshoot" => Some(Mutation::RateOvershoot),
            _ => None,
        }
    }
}

/// A delegating allocator that applies a [`Mutation`] after every
/// recompute. All incremental bookkeeping hooks forward to the inner
/// allocator, so the wrapper perturbs only the published rates.
pub(crate) struct MutantAlloc {
    inner: Box<dyn RateAllocator>,
    mutation: Mutation,
}

impl MutantAlloc {
    pub(crate) fn new(inner: Box<dyn RateAllocator>, mutation: Mutation) -> Self {
        MutantAlloc { inner, mutation }
    }
}

impl RateAllocator for MutantAlloc {
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
        self.inner.recompute(ctx);
        if let Mutation::RateOvershoot = self.mutation {
            let oldest = (0..ctx.flows.len())
                .filter_map(|key| Some((ctx.flows[key].as_ref()?.id(), key)))
                .min();
            if let Some((_, key)) = oldest {
                ctx.rates[key] = ctx.rates[key] * 1.05 + 1.0;
            }
        }
    }
}
