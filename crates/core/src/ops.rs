//! Cluster operations: the backup-host swap of §5.1.
//!
//! Each HPN ToR reserves 8 of its 136 downstream ports for **backup
//! hosts**, so a host-side failure (CPU, memory, GPU, PCIe, NVLink, NIC)
//! is repaired by re-scheduling the job onto a standby machine under the
//! *same* ToRs — no recabling, no topology change, just a host-id swap in
//! the job's placement.

use hpn_topology::Fabric;

/// Why a swap could not be performed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SwapError {
    /// The host to replace is not part of the placement.
    NotInPlacement {
        /// The offending host id.
        host: u32,
    },
    /// The failed host's segment has no free backup host left.
    NoBackupAvailable {
        /// Segment that ran out of spares.
        segment: u32,
    },
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::NotInPlacement { host } => {
                write!(f, "host {host} is not in the job placement")
            }
            SwapError::NoBackupAvailable { segment } => {
                write!(f, "segment {segment} has no free backup host")
            }
        }
    }
}
impl std::error::Error for SwapError {}

/// Replace `failed` in a job placement with a backup host from the same
/// segment that is not already in use. Returns the replacement's id.
/// The swap preserves rail wiring by construction: backup hosts hang off
/// the very same ToR pairs (§5.1's reserved ports).
pub fn swap_to_backup(
    fabric: &Fabric,
    placement: &mut [u32],
    failed: u32,
) -> Result<u32, SwapError> {
    let slot = placement
        .iter()
        .position(|&h| h == failed)
        .ok_or(SwapError::NotInPlacement { host: failed })?;
    let segment = fabric.hosts[failed as usize].segment;
    let replacement = fabric
        .hosts
        .iter()
        .find(|h| h.backup && h.segment == segment && !placement.contains(&h.id))
        .ok_or(SwapError::NoBackupAvailable { segment })?;
    placement[slot] = replacement.id;
    Ok(replacement.id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::place_segment_first;
    use hpn_collectives::CommConfig;
    use hpn_routing::HashMode;
    use hpn_topology::HpnConfig;
    use hpn_transport::ClusterSim;
    use hpn_workload::{ModelSpec, ParallelismPlan, TrainingJob};

    #[test]
    fn swap_replaces_with_same_segment_backup() {
        let f = HpnConfig::tiny().build(); // 4 active + 1 backup per segment
        let mut placement = place_segment_first(&f, 4).unwrap();
        let failed = placement[1];
        let replacement = swap_to_backup(&f, &mut placement, failed).unwrap();
        assert!(f.hosts[replacement as usize].backup);
        assert_eq!(
            f.hosts[replacement as usize].segment,
            f.hosts[failed as usize].segment
        );
        assert!(placement.contains(&replacement));
        assert!(!placement.contains(&failed));
        // Same ToR pair: rail-0 attachment identical wiring (same pair ids).
        let old_tor = f.hosts[failed as usize].nic_tor[0][0].unwrap();
        let new_tor = f.hosts[replacement as usize].nic_tor[0][0].unwrap();
        assert_eq!(old_tor, new_tor, "backup hangs off the same ToR");
    }

    #[test]
    fn swap_errors_are_reported() {
        let f = HpnConfig::tiny().build();
        let mut placement = place_segment_first(&f, 4).unwrap();
        assert_eq!(
            swap_to_backup(&f, &mut placement, 9999).unwrap_err(),
            SwapError::NotInPlacement { host: 9999 }
        );
        // Exhaust the single backup, then ask again.
        let first = placement[0];
        swap_to_backup(&f, &mut placement, first).unwrap();
        let second = placement[1];
        let err = swap_to_backup(&f, &mut placement, second).unwrap_err();
        assert!(matches!(err, SwapError::NoBackupAvailable { segment: 0 }));
    }

    #[test]
    fn training_resumes_on_backup_after_host_failure() {
        let f = HpnConfig::tiny().build();
        let mut cs = ClusterSim::new(f, HashMode::Polarized);
        let rails = cs.fabric.host_params.rails;
        let mut placement = place_segment_first(&cs.fabric, 4).unwrap();

        // Host fails entirely (all its access cables die).
        let failed = placement[2];
        for rail in 0..rails {
            for port in 0..2 {
                if let Some(l) = cs.fabric.hosts[failed as usize].nic_up[rail][port] {
                    cs.fail_cable(l);
                }
            }
        }
        // Operations swap in the standby and restart the job on it.
        swap_to_backup(&cs.fabric, &mut placement, failed).unwrap();
        let job = TrainingJob::new(
            ModelSpec::llama_7b(),
            ParallelismPlan::new(rails, 1, 4),
            placement,
            rails,
            128,
        );
        let mut session = crate::WorkloadSession::training(job, CommConfig::hpn_default());
        let rec = session.run_iteration(&mut cs);
        assert!(
            matches!(rec.outcome, crate::IterationOutcome::Completed { .. }),
            "training resumes on the backup host"
        );
        assert!(rec.samples_per_sec > 0.0);
    }
}
