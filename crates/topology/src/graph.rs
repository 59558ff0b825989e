//! Typed directed network graph.
//!
//! Nodes carry their role in the fabric ([`NodeKind`]); links are directed
//! (one per direction of a physical cable) so they map one-to-one onto
//! [`hpn_sim::FlowNet`] links, with `LinkIdx(i)` ↔ `LinkId(i)`.

use hpn_sim::{FlowNet, LinkId};

/// Index of a node in a [`Network`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Index of a directed link in a [`Network`]. Identical numbering to the
/// [`LinkId`]s of the `FlowNet` produced by [`Network::to_flownet`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkIdx(pub u32);

impl LinkIdx {
    /// The corresponding fluid-model link.
    pub fn flow_link(self) -> LinkId {
        LinkId(self.0)
    }
}

/// The role a node plays in the fabric.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NodeKind {
    /// A GPU.
    Gpu {
        /// Owning host.
        host: u32,
        /// Rail (index within the host, 0..8).
        rail: u8,
    },
    /// The intra-host NVLink switch fabric connecting the 8 GPUs.
    NvSwitch {
        /// Owning host.
        host: u32,
    },
    /// A backend-network NIC serving one rail of one host (2×200Gbps).
    Nic {
        /// Owning host.
        host: u32,
        /// Rail this NIC serves.
        rail: u8,
    },
    /// A frontend-network NIC (NIC0 in Fig 7).
    FrontendNic {
        /// Owning host.
        host: u32,
    },
    /// Top-of-Rack switch.
    Tor {
        /// Segment the ToR serves.
        segment: u32,
        /// Dual-ToR set within the segment (equals the rail in
        /// rail-optimized fabrics).
        pair: u8,
        /// Plane (0/1) in the dual-plane design — NIC port p lands here.
        plane: u8,
    },
    /// Aggregation-layer switch.
    Agg {
        /// Pod the switch belongs to.
        pod: u32,
        /// Plane (0/1) in the dual-plane design.
        plane: u8,
        /// Index within the pod's plane.
        index: u16,
    },
    /// Core-layer switch.
    Core {
        /// Plane (0/1); §7 carries the dual-plane into the Core layer.
        plane: u8,
        /// Index within the plane.
        index: u16,
    },
    /// A storage host in the frontend CPFS/OSS cluster.
    Storage {
        /// Index within the storage cluster.
        index: u32,
    },
}

impl NodeKind {
    /// True for switches (ToR/Agg/Core), false for endpoints.
    pub fn is_switch(self) -> bool {
        matches!(
            self,
            NodeKind::Tor { .. } | NodeKind::Agg { .. } | NodeKind::Core { .. }
        )
    }

    /// Short human-readable name for diagnostics.
    pub fn label(self) -> String {
        match self {
            NodeKind::Gpu { host, rail } => format!("host{host}/gpu{rail}"),
            NodeKind::NvSwitch { host } => format!("host{host}/nvswitch"),
            NodeKind::Nic { host, rail } => format!("host{host}/nic{rail}"),
            NodeKind::FrontendNic { host } => format!("host{host}/nic0"),
            NodeKind::Tor {
                segment,
                pair,
                plane,
            } => format!("seg{segment}/tor{pair}.{plane}"),
            NodeKind::Agg { pod, plane, index } => format!("pod{pod}/agg{index}.p{plane}"),
            NodeKind::Core { plane, index } => format!("core{index}.p{plane}"),
            NodeKind::Storage { index } => format!("storage{index}"),
        }
    }
}

/// A directed link: traffic flows `src -> dst`.
#[derive(Clone, Copy, Debug)]
pub struct Link {
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Capacity in bits/s.
    pub cap_bps: f64,
    /// Egress queue buffer at `src` for this port, in bits.
    pub buffer_bits: f64,
}

/// A directed multigraph of fabric nodes.
#[derive(Clone, Debug, Default)]
pub struct Network {
    nodes: Vec<NodeKind>,
    links: Vec<Link>,
    out_adj: Vec<Vec<u32>>, // outgoing link indices per node
    in_adj: Vec<Vec<u32>>,  // incoming link indices per node
}

impl Network {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node of the given kind, returning its id.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(kind);
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Add a directed link. `buffer_bits` is the egress buffer of the
    /// transmitting port.
    pub fn add_link(
        &mut self,
        src: NodeId,
        dst: NodeId,
        cap_bps: f64,
        buffer_bits: f64,
    ) -> LinkIdx {
        assert!(src != dst, "self-loop link at {:?}", self.kind(src).label());
        let idx = LinkIdx(self.links.len() as u32);
        self.links.push(Link {
            src,
            dst,
            cap_bps,
            buffer_bits,
        });
        self.out_adj[src.0 as usize].push(idx.0);
        self.in_adj[dst.0 as usize].push(idx.0);
        idx
    }

    /// Add both directions of a physical cable; returns `(a->b, b->a)`.
    pub fn add_duplex(
        &mut self,
        a: NodeId,
        b: NodeId,
        cap_bps: f64,
        buffer_bits: f64,
    ) -> (LinkIdx, LinkIdx) {
        (
            self.add_link(a, b, cap_bps, buffer_bits),
            self.add_link(b, a, cap_bps, buffer_bits),
        )
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The kind of a node.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.nodes[n.0 as usize]
    }

    /// A link by index.
    pub fn link(&self, l: LinkIdx) -> Link {
        self.links[l.0 as usize]
    }

    /// Outgoing links of a node.
    pub fn out_links(&self, n: NodeId) -> impl Iterator<Item = LinkIdx> + '_ {
        self.out_adj[n.0 as usize].iter().map(|&i| LinkIdx(i))
    }

    /// Incoming links of a node.
    pub fn in_links(&self, n: NodeId) -> impl Iterator<Item = LinkIdx> + '_ {
        self.in_adj[n.0 as usize].iter().map(|&i| LinkIdx(i))
    }

    /// Outgoing neighbors with the link used to reach them.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = (NodeId, LinkIdx)> + '_ {
        self.out_links(n)
            .map(move |l| (self.links[l.0 as usize].dst, l))
    }

    /// The first directed link from `a` to `b`, if any.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkIdx> {
        self.out_links(a)
            .find(|&l| self.links[l.0 as usize].dst == b)
    }

    /// All directed links from `a` to `b` (parallel links are real in these
    /// fabrics — e.g. multiple ToR-Agg cables in scaled-down builds).
    pub fn links_between(&self, a: NodeId, b: NodeId) -> Vec<LinkIdx> {
        self.out_links(a)
            .filter(|&l| self.links[l.0 as usize].dst == b)
            .collect()
    }

    /// All nodes of a kind selected by predicate.
    pub fn nodes_where(&self, pred: impl Fn(NodeKind) -> bool) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, &k)| pred(k))
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Outgoing links whose destination satisfies the predicate — e.g. a
    /// ToR's uplinks are `out_links_to(tor, |k| matches!(k, Agg{..}))`.
    pub fn out_links_to(&self, n: NodeId, pred: impl Fn(NodeKind) -> bool) -> Vec<LinkIdx> {
        self.out_links(n)
            .filter(|&l| pred(self.kind(self.links[l.0 as usize].dst)))
            .collect()
    }

    /// Materialise this graph as a fluid network. Link indices are
    /// preserved: `LinkIdx(i)` becomes `LinkId(i)`. Uses the environment's
    /// default allocator; sessions with an explicit context use
    /// [`Network::to_flownet_with`].
    ///
    /// # Panics
    /// Panics if `HPN_ALLOCATOR` names no allocator.
    pub fn to_flownet(&self) -> FlowNet {
        self.to_flownet_with(hpn_sim::AllocatorKind::from_env().unwrap_or_else(|e| panic!("{e}")))
    }

    /// Materialise this graph as a fluid network running the given rate
    /// allocator (the `SimCtx::allocator()` of the session under
    /// construction). Link indices are preserved: `LinkIdx(i)` becomes
    /// `LinkId(i)`.
    pub fn to_flownet_with(&self, kind: hpn_sim::AllocatorKind) -> FlowNet {
        let mut net = FlowNet::with_allocator(kind);
        for l in &self.links {
            let id = net.add_link(l.cap_bps, l.buffer_bits);
            debug_assert_eq!(id.0 as usize, net.link_count() - 1);
        }
        net
    }

    /// Sanity-check structural invariants; called by builders' tests.
    ///
    /// Verifies that every link's endpoints exist and that endpoint nodes
    /// (GPU/NIC) never connect directly to the Aggregation or Core layers.
    pub fn validate(&self) {
        for (i, l) in self.links.iter().enumerate() {
            assert!(
                (l.src.0 as usize) < self.nodes.len() && (l.dst.0 as usize) < self.nodes.len(),
                "link {i} has dangling endpoint"
            );
            assert!(l.cap_bps > 0.0, "link {i} has zero capacity");
            let (ks, kd) = (self.kind(l.src), self.kind(l.dst));
            let host_side = |k: NodeKind| {
                matches!(
                    k,
                    NodeKind::Gpu { .. }
                        | NodeKind::NvSwitch { .. }
                        | NodeKind::Nic { .. }
                        | NodeKind::FrontendNic { .. }
                )
            };
            let upper = |k: NodeKind| matches!(k, NodeKind::Agg { .. } | NodeKind::Core { .. });
            assert!(
                !(host_side(ks) && upper(kd) || upper(ks) && host_side(kd)),
                "link {i} wires host hardware {} directly to {}",
                ks.label(),
                kd.label()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Network, NodeId, NodeId, NodeId) {
        let mut net = Network::new();
        let nic = net.add_node(NodeKind::Nic { host: 0, rail: 0 });
        let tor0 = net.add_node(NodeKind::Tor {
            segment: 0,
            pair: 0,
            plane: 0,
        });
        let tor1 = net.add_node(NodeKind::Tor {
            segment: 0,
            pair: 0,
            plane: 1,
        });
        net.add_duplex(nic, tor0, 200e9, 1e6);
        net.add_duplex(nic, tor1, 200e9, 1e6);
        (net, nic, tor0, tor1)
    }

    #[test]
    fn duplex_creates_both_directions() {
        let (net, nic, tor0, _) = tiny();
        assert_eq!(net.link_count(), 4);
        assert!(net.link_between(nic, tor0).is_some());
        assert!(net.link_between(tor0, nic).is_some());
        let up = net.link_between(nic, tor0).unwrap();
        assert_ne!(up, net.link_between(tor0, nic).unwrap());
    }

    #[test]
    fn adjacency_queries() {
        let (net, nic, tor0, tor1) = tiny();
        let outs: Vec<NodeId> = net.neighbors(nic).map(|(n, _)| n).collect();
        assert_eq!(outs, vec![tor0, tor1]);
        assert_eq!(net.in_links(nic).count(), 2);
        assert_eq!(
            net.out_links_to(nic, |k| matches!(k, NodeKind::Tor { plane: 1, .. }))
                .len(),
            1
        );
    }

    #[test]
    fn nodes_where_filters_by_kind() {
        let (net, _, _, _) = tiny();
        assert_eq!(
            net.nodes_where(|k| matches!(k, NodeKind::Tor { .. })).len(),
            2
        );
        assert_eq!(
            net.nodes_where(|k| matches!(k, NodeKind::Agg { .. })).len(),
            0
        );
    }

    #[test]
    fn to_flownet_preserves_indices() {
        let (net, nic, tor0, _) = tiny();
        let mut fnet = net.to_flownet();
        assert_eq!(fnet.link_count(), net.link_count());
        let l = net.link_between(nic, tor0).unwrap();
        assert_eq!(fnet.link(l.flow_link()).nominal_bps, 200e9);
        // The flownet is usable immediately.
        fnet.recompute_if_dirty();
    }

    #[test]
    fn labels_are_stable() {
        let (net, nic, tor0, _) = tiny();
        assert_eq!(net.kind(nic).label(), "host0/nic0");
        assert_eq!(net.kind(tor0).label(), "seg0/tor0.0");
    }

    #[test]
    fn validate_accepts_wellformed() {
        let (net, _, _, _) = tiny();
        net.validate();
    }

    #[test]
    #[should_panic(expected = "wires host hardware")]
    fn validate_rejects_nic_to_agg() {
        let mut net = Network::new();
        let nic = net.add_node(NodeKind::Nic { host: 0, rail: 0 });
        let agg = net.add_node(NodeKind::Agg {
            pod: 0,
            plane: 0,
            index: 0,
        });
        net.add_link(nic, agg, 1e9, 1e6);
        net.validate();
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut net = Network::new();
        let n = net.add_node(NodeKind::Storage { index: 0 });
        net.add_link(n, n, 1e9, 1e6);
    }

    #[test]
    fn parallel_links_supported() {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Tor {
            segment: 0,
            pair: 0,
            plane: 0,
        });
        let b = net.add_node(NodeKind::Agg {
            pod: 0,
            plane: 0,
            index: 0,
        });
        net.add_link(a, b, 400e9, 1e6);
        net.add_link(a, b, 400e9, 1e6);
        assert_eq!(net.links_between(a, b).len(), 2);
    }
}
