//! [`SimCtx`] — the explicit per-session context.
//!
//! One value answers the three questions every layer of a simulation used
//! to answer through ambient state:
//!
//! * **Where do events go?** A [`SharedRecorder`] handle (replaces the
//!   removed thread-local ambient recorder `share::install`/`current`).
//! * **Where does randomness come from?** An optional root seed, split
//!   per call site with [`hpn_sim::split_seed`] (replaces the experiment
//!   harness's thread-local `SweepScope`).
//! * **Which rate allocator runs?** An [`AllocatorKind`]: always the
//!   default incremental one, except where a test pins the dense reference
//!   oracle with [`SimCtx::with_allocator`]. No layer reads the choice from
//!   the environment.
//!
//! A `SimCtx` is constructed once per session — by the experiment runner
//! for each cell, by a test for itself — and threaded **explicitly**
//! through every constructor: topology → routing → transport
//! (`ClusterSim::with_ctx`) → collectives → faults → scenario
//! (`Scenario::build_with`) → bench. Nothing about it is thread-local, and
//! every field is `Send`, so a session built from one can migrate to a
//! worker thread (static assertions in the transport and scenario crates
//! hold this invariant).
//!
//! The default context is inert: null recorder, no root seed (call sites
//! fall back to their fixed per-site seeds), and the incremental
//! allocator.

use hpn_sim::{split_seed, AllocatorKind};

use crate::share::SharedRecorder;

/// Explicit per-session context: recorder handle, RNG root, allocator
/// selection. Cheap to clone (the recorder handle is an `Arc`).
#[derive(Clone)]
pub struct SimCtx {
    recorder: SharedRecorder,
    root_seed: Option<u64>,
    allocator: AllocatorKind,
}

impl Default for SimCtx {
    /// Null recorder, no sweep root, the default (incremental) allocator.
    fn default() -> Self {
        SimCtx {
            recorder: SharedRecorder::null(),
            root_seed: None,
            allocator: AllocatorKind::default(),
        }
    }
}

impl SimCtx {
    /// The inert default context (see [`SimCtx::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the recorder handle.
    pub fn with_recorder(mut self, recorder: SharedRecorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Set the sweep root seed: [`SimCtx::seed_for`] splits every call
    /// site's seed off this root, so one sweep cell's randomness never
    /// correlates with another's.
    pub fn with_root_seed(mut self, root: u64) -> Self {
        self.root_seed = Some(root);
        self
    }

    /// Pin the rate allocator (instead of the incremental default) — how
    /// tests run a session under the dense reference oracle.
    pub fn with_allocator(mut self, allocator: AllocatorKind) -> Self {
        self.allocator = allocator;
        self
    }

    /// The recorder sessions built from this context emit into.
    pub fn recorder(&self) -> &SharedRecorder {
        &self.recorder
    }

    /// The sweep root seed, if any.
    pub fn root_seed(&self) -> Option<u64> {
        self.root_seed
    }

    /// Which rate allocator sessions built from this context run.
    pub fn allocator(&self) -> AllocatorKind {
        self.allocator
    }

    /// Only for the frozen `benchmark/` package; drop in its next change.
    pub fn validate_every(&self) -> u32 {
        0
    }

    /// The seed a call site with fixed identity `site` should use: split
    /// off the root when one is set (sweep mode), the site's own value
    /// otherwise (standalone mode, reproducible in isolation).
    pub fn seed_for(&self, site: u64) -> u64 {
        match self.root_seed {
            Some(root) => split_seed(root, site),
            None => site,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{JsonlRecorder, SharedBuf};
    use crate::Event;

    #[test]
    fn sim_ctx_is_send_and_clone() {
        fn assert_send<T: Send>() {}
        fn assert_clone<T: Clone>() {}
        assert_send::<SimCtx>();
        assert_clone::<SimCtx>();
    }

    #[test]
    fn default_ctx_is_inert() {
        let ctx = SimCtx::new();
        assert!(!ctx.recorder().enabled());
        assert_eq!(ctx.root_seed(), None);
        // No root: call sites keep their fixed seeds.
        assert_eq!(ctx.seed_for(42), 42);
    }

    #[test]
    fn root_seed_splits_per_site() {
        let ctx = SimCtx::new().with_root_seed(7);
        let (a, b) = (ctx.seed_for(1), ctx.seed_for(2));
        assert_ne!(a, b, "distinct sites get distinct streams");
        assert_eq!(a, split_seed(7, 1), "stateless split, same as the rng fn");
        assert_eq!(
            SimCtx::new().with_root_seed(7).seed_for(1),
            a,
            "pure function of (root, site)"
        );
        assert_ne!(
            SimCtx::new().with_root_seed(8).seed_for(1),
            a,
            "different roots decorrelate the same site"
        );
    }

    #[test]
    fn builders_compose() {
        let buf = SharedBuf::new();
        let ctx = SimCtx::new()
            .with_recorder(SharedRecorder::new(Box::new(JsonlRecorder::new(
                buf.clone(),
            ))))
            .with_root_seed(3)
            .with_allocator(AllocatorKind::Dense);
        assert!(ctx.recorder().enabled());
        assert_eq!(ctx.allocator(), AllocatorKind::Dense);
        let clone = ctx.clone();
        clone
            .recorder()
            .emit(|| Event::SimStart { label: "c".into() });
        ctx.recorder().flush();
        assert!(
            buf.text().contains("sim_start"),
            "clones share one recorder sink"
        );
    }
}
