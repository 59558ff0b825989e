//! # hpn-core — the assembled HPN system
//!
//! Everything below this crate is a subsystem; this crate is the paper's
//! *system*:
//!
//! * [`scale`] — Table 2: how dual-ToR, the 51.2T single chip, rail
//!   optimization, dual-plane and the 15:1 oversubscription compose into a
//!   1K-GPU segment and a 15K-GPU pod.
//! * [`complexity`] — Table 1: the path-selection search space of HPN vs
//!   SuperPod, Jupiter and fat-tree(48), both as the closed-form entries
//!   the paper prints and as measured on our built fabrics.
//! * [`placement`] — job placement: segment-first (the scheduler behaviour
//!   that lets 96.3% of jobs stay inside tier-1) and the §7 policy that
//!   pushes only PP traffic across pods.
//! * [`session`] — one [`WorkloadSession`] runs every `[workload] kind`
//!   over the fabric with shared communicators: Megatron training
//!   iterations compiled from [`hpn_workload::TrainingJob`] (the samples/s
//!   series of Figs 15/16/18), trace replay, open-loop inference serving,
//!   and the Fig 6 multi-job mix.

#![warn(missing_docs)]

pub mod complexity;
pub mod ops;
pub mod placement;
pub mod scale;
pub mod session;

pub use ops::swap_to_backup;
pub use placement::{place_cross_pod_pp, place_segment_first, PlacementError};
pub use session::{IterationOutcome, IterationRecord, JobStats, ServingLoad, WorkloadSession};
