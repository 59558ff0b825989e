//! Common fabric representation shared by all topology builders.
//!
//! A [`Fabric`] is a [`Network`] plus the semantic inventory routing and
//! workload placement need: which nodes are hosts/GPUs/NICs, how hosts group
//! into segments and pods, and which design features (dual-ToR, dual-plane,
//! rail-optimization) the fabric uses.

use crate::graph::{LinkIdx, Network, NodeId, NodeKind};

/// Which builder produced the fabric.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FabricKind {
    /// The paper's contribution (§3–§7).
    Hpn,
    /// The previous-generation 3-tier Clos baseline (Appendix C).
    DcnPlus,
    /// Classic fat-tree(k) (Table 1).
    FatTree,
    /// DGX-SuperPod-like 3-tier rail topology (Table 1).
    SuperPod,
    /// The independent frontend network (§8).
    Frontend,
}

/// Per-host construction parameters shared by builders.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostParams {
    /// GPUs (= backend rails) per host. The paper uses 8.
    pub rails: usize,
    /// NVLink bandwidth per direction, bits/s (400GBps bidirectional on
    /// H800 = 1600Gbps per direction).
    pub nvlink_bps: f64,
    /// GPU↔NIC (PCIe Gen5×16) bandwidth per direction, bits/s.
    pub pcie_bps: f64,
    /// One NIC port, bits/s (200Gbps; each NIC has two ports).
    pub nic_port_bps: f64,
    /// Egress buffer for host-side links, bits.
    pub host_buffer_bits: f64,
}

impl HostParams {
    /// Paper-scale host: 8 rails, 400GBps NVLink, PCIe ahead of the
    /// 2×200Gbps NIC.
    pub fn paper() -> Self {
        HostParams {
            rails: 8,
            nvlink_bps: 1600e9,
            pcie_bps: 512e9,
            nic_port_bps: 200e9,
            host_buffer_bits: 64e6 * 8.0,
        }
    }

    /// Miniature host for unit tests: 2 rails, same relative speeds.
    pub fn tiny() -> Self {
        HostParams {
            rails: 2,
            ..Self::paper()
        }
    }

    /// Full-duplex NIC bandwidth across both ports (the 400Gbps of §3).
    pub fn nic_bps(&self) -> f64 {
        2.0 * self.nic_port_bps
    }
}

/// A host: its GPUs, NVSwitch, backend NICs and their ToR attachments.
#[derive(Clone, Debug)]
pub struct Host {
    /// Global host index across the fabric.
    pub id: u32,
    /// Segment this host lives in (global segment index).
    pub segment: u32,
    /// Pod this host lives in.
    pub pod: u32,
    /// Backup hosts hang off the ToRs' reserved ports and do not run jobs
    /// until swapped in (§5.1).
    pub backup: bool,
    /// GPU nodes, indexed by rail.
    pub gpus: Vec<NodeId>,
    /// The intra-host NVLink switch.
    pub nvswitch: NodeId,
    /// Backend NIC nodes, indexed by rail.
    pub nics: Vec<NodeId>,
    /// Per NIC, per port: the uplink to its ToR (`None` for the unused
    /// second port in single-ToR fabrics).
    pub nic_up: Vec<[Option<LinkIdx>; 2]>,
    /// Per NIC, per port: the ToR-to-NIC downlink.
    pub nic_down: Vec<[Option<LinkIdx>; 2]>,
    /// Per NIC, per port: the ToR the port attaches to.
    pub nic_tor: Vec<[Option<NodeId>; 2]>,
}

/// A fabric: graph + inventory + feature flags.
#[derive(Clone, Debug)]
pub struct Fabric {
    /// The wiring graph.
    pub net: Network,
    /// All hosts (active then backup within each segment).
    pub hosts: Vec<Host>,
    /// All ToR switches.
    pub tors: Vec<NodeId>,
    /// All Aggregation switches.
    pub aggs: Vec<NodeId>,
    /// All Core switches.
    pub cores: Vec<NodeId>,
    /// Which builder produced this fabric.
    pub kind: FabricKind,
    /// Whether each NIC attaches to two ToRs (§4).
    pub dual_tor: bool,
    /// Whether tier-2 uses the dual-plane design (§6.1).
    pub dual_plane: bool,
    /// Whether tier-1 is rail-optimized (§5.2).
    pub rail_optimized: bool,
    /// Total segments across all pods.
    pub segments: u32,
    /// Number of pods.
    pub pods: u32,
    /// Host construction parameters used.
    pub host_params: HostParams,
}

impl Fabric {
    /// GPU node for `(host, rail)`.
    pub fn gpu(&self, host: u32, rail: usize) -> NodeId {
        self.hosts[host as usize].gpus[rail]
    }

    /// Hosts that actively run jobs (excludes backups).
    pub fn active_hosts(&self) -> impl Iterator<Item = &Host> {
        self.hosts.iter().filter(|h| !h.backup)
    }

    /// Number of active (schedulable) GPUs.
    pub fn active_gpu_count(&self) -> usize {
        self.active_hosts().map(|h| h.gpus.len()).sum()
    }

    /// Total GPUs including backups.
    pub fn total_gpu_count(&self) -> usize {
        self.hosts.iter().map(|h| h.gpus.len()).sum()
    }

    /// Active hosts of one segment, in id order.
    pub fn segment_hosts(&self, segment: u32) -> Vec<&Host> {
        self.hosts
            .iter()
            .filter(|h| h.segment == segment && !h.backup)
            .collect()
    }

    /// ToRs serving a segment.
    pub fn segment_tors(&self, segment: u32) -> Vec<NodeId> {
        self.tors
            .iter()
            .copied()
            .filter(
                |&t| matches!(self.net.kind(t), NodeKind::Tor { segment: s, .. } if s == segment),
            )
            .collect()
    }

    /// Aggregation switches of one plane in one pod.
    pub fn plane_aggs(&self, pod: u32, plane: u8) -> Vec<NodeId> {
        self.aggs
            .iter()
            .copied()
            .filter(|&a| {
                matches!(self.net.kind(a), NodeKind::Agg { pod: p, plane: pl, .. }
                    if p == pod && pl == plane)
            })
            .collect()
    }

    /// All ToR→Agg uplinks (handy for monitoring cross-segment traffic).
    pub fn tor_uplinks(&self, tor: NodeId) -> Vec<LinkIdx> {
        self.net
            .out_links_to(tor, |k| matches!(k, NodeKind::Agg { .. }))
    }
}

/// Create one host's internal hardware (GPUs, NVSwitch, NICs, PCIe and
/// NVLink cabling). NIC↔ToR wiring is the builder's job; the returned
/// [`Host`] has empty attachment slots sized for `params.rails` NICs.
pub fn build_host(
    net: &mut Network,
    params: &HostParams,
    id: u32,
    segment: u32,
    pod: u32,
    backup: bool,
) -> Host {
    let nvswitch = net.add_node(NodeKind::NvSwitch { host: id });
    let mut gpus = Vec::with_capacity(params.rails);
    let mut nics = Vec::with_capacity(params.rails);
    for rail in 0..params.rails {
        let gpu = net.add_node(NodeKind::Gpu {
            host: id,
            rail: rail as u8,
        });
        let nic = net.add_node(NodeKind::Nic {
            host: id,
            rail: rail as u8,
        });
        net.add_duplex(gpu, nvswitch, params.nvlink_bps, params.host_buffer_bits);
        net.add_duplex(gpu, nic, params.pcie_bps, params.host_buffer_bits);
        gpus.push(gpu);
        nics.push(nic);
    }
    Host {
        id,
        segment,
        pod,
        backup,
        gpus,
        nvswitch,
        nics,
        nic_up: vec![[None; 2]; params.rails],
        nic_down: vec![[None; 2]; params.rails],
        nic_tor: vec![[None; 2]; params.rails],
    }
}

/// Attach one NIC port to a ToR with the standard duplex cable, recording
/// the links in the host's attachment tables.
pub fn attach_nic_port(
    net: &mut Network,
    host: &mut Host,
    rail: usize,
    port: usize,
    tor: NodeId,
    cap_bps: f64,
    tor_buffer_bits: f64,
) {
    assert!(port < 2, "NICs have two ports");
    assert!(
        host.nic_up[rail][port].is_none(),
        "host {} nic {} port {} already wired",
        host.id,
        rail,
        port
    );
    let nic = host.nics[rail];
    let up = net.add_link(nic, tor, cap_bps, tor_buffer_bits);
    let down = net.add_link(tor, nic, cap_bps, tor_buffer_bits);
    host.nic_up[rail][port] = Some(up);
    host.nic_down[rail][port] = Some(down);
    host.nic_tor[rail][port] = Some(tor);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_host_wires_internals() {
        let mut net = Network::new();
        let p = HostParams::paper();
        let h = build_host(&mut net, &p, 0, 0, 0, false);
        assert_eq!(h.gpus.len(), 8);
        assert_eq!(h.nics.len(), 8);
        // Each GPU: duplex to NVSwitch and duplex to its NIC.
        for rail in 0..8 {
            assert!(net.link_between(h.gpus[rail], h.nvswitch).is_some());
            assert!(net.link_between(h.nvswitch, h.gpus[rail]).is_some());
            assert!(net.link_between(h.gpus[rail], h.nics[rail]).is_some());
            assert!(net.link_between(h.nics[rail], h.gpus[rail]).is_some());
        }
        // NVLink faster than NIC: the premise of rail-optimization (§5.2).
        let nv = net.link(net.link_between(h.gpus[0], h.nvswitch).unwrap());
        assert!(nv.cap_bps >= 4.0 * p.nic_bps());
        net.validate();
    }

    #[test]
    fn attach_nic_port_records_links() {
        let mut net = Network::new();
        let p = HostParams::tiny();
        let mut h = build_host(&mut net, &p, 0, 0, 0, false);
        let tor = net.add_node(NodeKind::Tor {
            segment: 0,
            pair: 0,
            plane: 0,
        });
        attach_nic_port(&mut net, &mut h, 0, 0, tor, p.nic_port_bps, 1e6);
        assert!(h.nic_up[0][0].is_some());
        assert!(h.nic_down[0][0].is_some());
        assert_eq!(h.nic_tor[0][0], Some(tor));
        assert!(h.nic_up[0][1].is_none());
        let up = net.link(h.nic_up[0][0].unwrap());
        assert_eq!(up.src, h.nics[0]);
        assert_eq!(up.dst, tor);
    }

    #[test]
    #[should_panic(expected = "already wired")]
    fn double_attach_rejected() {
        let mut net = Network::new();
        let p = HostParams::tiny();
        let mut h = build_host(&mut net, &p, 0, 0, 0, false);
        let tor = net.add_node(NodeKind::Tor {
            segment: 0,
            pair: 0,
            plane: 0,
        });
        attach_nic_port(&mut net, &mut h, 0, 0, tor, p.nic_port_bps, 1e6);
        attach_nic_port(&mut net, &mut h, 0, 0, tor, p.nic_port_bps, 1e6);
    }
}
