//! # hpn-telemetry — simulator-wide observability
//!
//! Typed event recording, metric registries and deterministic run
//! manifests for the HPN reproduction. The design splits three concerns:
//!
//! * **Events** ([`Event`]) — every observable simulator transition
//!   (flow add/remove, rate recompute, link/route state, path search and
//!   switch, utilization samples, collective step completion, fault
//!   inject/repair), each stamped with simulated time.
//! * **Recorders** ([`Recorder`]) — sinks consuming the event stream.
//!   [`NullRecorder`] is the default and reports `enabled() == false`, so
//!   instrumentation sites skip event construction entirely: telemetry off
//!   costs one bool check, not a format-and-discard. [`JsonlRecorder`]
//!   persists one JSON object per line and enforces sim-time monotonicity
//!   within each run segment; [`Registry`] aggregates counters and
//!   histograms in memory.
//! * **Manifests** ([`RunManifest`]) — a deterministic record of a run's
//!   identity (seed, allocator, topology parameters, `git describe`) and a
//!   SHA-256 fingerprint per emitted figure series, written alongside every
//!   experiment's output. CI diffs the fingerprints against a checked-in
//!   golden set to gate on figure drift.
//!
//! The recorder reaches a simulation through an explicit per-session
//! context: a [`SimCtx`] bundles the recorder handle, the RNG root seed
//! and the rate-allocator selection, and is passed to every session
//! constructor (`ClusterSim::with_ctx`, `Scenario::build_with`). All of
//! its parts are `Send`, so sessions migrate freely across worker
//! threads. The former thread-local ambient recorder (`share::install` /
//! `share::current` / `share::RecorderScope`) has been removed after its
//! one-release deprecation window.
//!
//! Layering: `hpn-sim` cannot depend on this crate, so it exposes the
//! [`hpn_sim::NetProbe`] callback trait instead; [`SharedRecorder::net_probe`]
//! adapts a recorder into a probe. Higher layers (routing, transport,
//! collectives, faults, the bench harness) depend on this crate directly
//! and emit through the recorder their `SimCtx` carries.

#![warn(missing_docs)]

pub mod ctx;
pub mod event;
pub mod manifest;
pub mod recorder;
pub mod registry;
pub mod segment;
pub mod sha256;
pub mod share;

pub use ctx::SimCtx;
pub use event::Event;
pub use manifest::{flat_map_json, git_describe, parse_flat_map, RunManifest};
pub use recorder::{JsonlRecorder, NullRecorder, Recorder, SharedBuf};
pub use registry::{FlowMetrics, LatencyMetrics, LinkMetrics, RecomputeMetrics, Registry};
pub use segment::{merge_segments, replay, EventLog, EventStream};
pub use sha256::{hex_digest, Sha256};
pub use share::SharedRecorder;
