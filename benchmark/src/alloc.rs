//! A [`RateAllocator`] that times its inner allocator's recomputes.
//!
//! Traced runs install it right after `attach_workload` by rebuilding the
//! cluster's fluid net around it; every other call is forwarded
//! unchanged, so rates (and the simulated fingerprint) stay bitwise equal
//! to the untraced run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hpn_sim::alloc::AllocCtx;
use hpn_sim::surrogate::{SurrogateSeed, SurrogateStats};
use hpn_sim::{AllocatorKind, FlowNet, FlowSpec, LinkId, RateAllocator};
use hpn_telemetry::SimCtx;
use hpn_topology::LinkIdx;
use hpn_transport::ClusterSim;

/// Cumulative recompute host time, readable while the net owns the
/// allocator. Plain statistics: `Relaxed` publishes nothing else.
#[derive(Default)]
pub struct AllocClock {
    ns: AtomicU64,
}

impl AllocClock {
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

pub struct TimingAllocator {
    inner: Box<dyn RateAllocator>,
    clock: Arc<AllocClock>,
}

impl RateAllocator for TimingAllocator {
    fn kind(&self) -> AllocatorKind {
        self.inner.kind()
    }

    fn on_link_added(&mut self, link: LinkId) {
        self.inner.on_link_added(link)
    }

    fn on_flow_added(&mut self, id: u64, spec: &FlowSpec, path: &[LinkId]) {
        self.inner.on_flow_added(id, spec, path)
    }

    fn on_flow_removed(&mut self, id: u64, path: &[LinkId]) {
        self.inner.on_flow_removed(id, path)
    }

    fn on_link_changed(&mut self, link: LinkId) {
        self.inner.on_link_changed(link)
    }

    fn recompute(&mut self, ctx: &mut AllocCtx<'_>) {
        let t = Instant::now();
        self.inner.recompute(ctx);
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.clock.ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn surrogate_stats(&self) -> Option<SurrogateStats> {
        self.inner.surrogate_stats()
    }

    fn set_validate_every(&mut self, every: u32) {
        self.inner.set_validate_every(every)
    }

    fn export_memo(&self) -> Option<SurrogateSeed> {
        self.inner.export_memo()
    }

    fn seed_memo(&mut self, seed: &SurrogateSeed) -> bool {
        self.inner.seed_memo(seed)
    }
}

/// Replace a freshly attached cluster's fluid net with one whose
/// allocator (the context's) is wrapped in a [`TimingAllocator`]. Must run
/// before the first flow starts: the new net copies the fabric's links,
/// not any flow state.
pub fn install(cluster: &mut ClusterSim, ctx: &SimCtx) -> Arc<AllocClock> {
    assert_eq!(
        cluster.net.flow_count(),
        0,
        "timing allocator goes in before any flow"
    );
    let clock = Arc::new(AllocClock::default());
    let mut net = FlowNet::with_allocator_box(Box::new(TimingAllocator {
        inner: ctx.allocator().build(),
        clock: Arc::clone(&clock),
    }));
    let fabric_net = &cluster.fabric.net;
    for i in 0..fabric_net.link_count() {
        let l = fabric_net.link(LinkIdx(u32::try_from(i).expect("link index fits u32")));
        net.add_link(l.cap_bps, l.buffer_bits);
    }
    net.set_surrogate_validate_every(ctx.validate_every());
    if let Some(probe) = cluster.net.take_probe() {
        net.set_probe(Some(probe));
    }
    cluster.net = net;
    clock
}
