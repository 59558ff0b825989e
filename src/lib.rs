//! # hpn — reproduction of *Alibaba HPN* (SIGCOMM 2024)
//!
//! Umbrella crate re-exporting the whole workspace so downstream users can
//! depend on a single crate:
//!
//! * [`sim`] — simulated time and the fluid flow network,
//! * [`topology`] — HPN, DCN+, fat-tree, SuperPod and frontend fabrics,
//! * [`routing`] — ECMP hashing, BGP host routes, dual-ToR control planes,
//! * [`transport`] — RDMA-style connections over bonded dual-port NICs,
//! * [`collectives`] — AllReduce/AllGather/Multi-AllReduce with the paper's
//!   disjoint-path + least-WQE path selection,
//! * [`workload`] — LLM training jobs (TP/PP/DP), checkpoints, cloud traffic,
//! * [`faults`] — link/ToR failure and flapping injection,
//! * [`power`] — 51.2T switch-chip power and cooling models,
//! * [`core`] — the assembled HPN system: fabric + routing + collectives +
//!   training runner,
//! * [`telemetry`] — event recorders, per-thread recorder scopes, segment
//!   merge and deterministic run manifests.
//!
//! See `examples/quickstart.rs` for a five-minute tour, or in brief:
//!
//! ```
//! use hpn::topology::HpnConfig;
//! use hpn::transport::{ClusterSim, PathPolicy};
//! use hpn::routing::HashMode;
//! use hpn::sim::SimTime;
//!
//! // A structurally faithful scale-down of the paper's 15K-GPU pod.
//! let fabric = HpnConfig::tiny().build();
//! let mut cluster = ClusterSim::new(fabric, HashMode::Polarized);
//!
//! // Open disjoint-path connections between two GPUs and send 1GB.
//! let group = cluster.establish_group((0, 0), (1, 0), 2, PathPolicy::LeastWqe, 49152);
//! cluster.send_group(group, 8e9, 0);
//!
//! struct Done(bool);
//! impl hpn::transport::ClusterApp for Done {
//!     fn on_message_complete(&mut self, _: &mut ClusterSim, _: hpn::transport::MessageDone) {
//!         self.0 = true;
//!     }
//! }
//! let mut app = Done(false);
//! cluster.run(&mut app, SimTime::from_secs(10));
//! assert!(app.0, "the gigabyte arrived");
//! ```

#![warn(missing_docs)]

pub use hpn_collectives as collectives;
pub use hpn_core as core;
pub use hpn_faults as faults;
pub use hpn_power as power;
pub use hpn_routing as routing;
pub use hpn_sim as sim;
pub use hpn_telemetry as telemetry;
pub use hpn_topology as topology;
pub use hpn_transport as transport;
pub use hpn_workload as workload;
