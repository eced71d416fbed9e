//! Two-level fat tree (leaf + spine) with static deterministic routing.
//!
//! Nodes attach to leaf switches in blocks of `leaf_radix`; every leaf
//! connects to every spine by one trunk in each direction. Routing is
//! destination-mod-k: a cross-leaf message always climbs to spine
//! `dst % spines`, so a fixed traffic pattern always stresses the same
//! trunks — deterministic and adversarial-pattern-capable, like the
//! static routing tables on real EDR fabrics.

use crate::{LinkDesc, LinkId, LinkKind};

/// Shape and calibration of the inter-node fat tree. Intra-node NVLink
/// and NIC port bandwidths come from `NetParams` so `Flat` and `FatTree`
/// share the same endpoint calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FatTreeParams {
    /// Nodes per leaf switch.
    pub leaf_radix: usize,
    /// Number of spine switches (each leaf has one up/down trunk pair
    /// per spine).
    pub spines: usize,
    /// Bandwidth of one leaf<->spine trunk, bytes/second.
    pub trunk_bw: f64,
    /// Extra latency per switch hop traversed, nanoseconds.
    pub hop_latency_ns: u64,
}

impl Default for FatTreeParams {
    fn default() -> Self {
        // Summit-like: 18 nodes per director-group leaf, 4 uplink
        // planes, EDR 100 Gb/s trunks, ~150 ns per switch ASIC.
        FatTreeParams {
            leaf_radix: 18,
            spines: 4,
            trunk_bw: 24.0e9,
            hop_latency_ns: 150,
        }
    }
}

/// The link graph plus routing tables for one machine.
///
/// Link layout (indices into the flow simulation's link table):
/// - `[0, nodes)`               per-node NVLink (intra-node loopback)
/// - `[nodes, 2*nodes)`         per-node NIC injection (node -> leaf)
/// - `[2*nodes, 3*nodes)`       per-node NIC ejection (leaf -> node)
/// - `3*nodes + 2*(l*spines+s)` trunk up, leaf `l` -> spine `s`
/// - ... `+ 1`                  trunk down, spine `s` -> leaf `l`
#[derive(Debug, Clone)]
pub struct FatTreeGraph {
    nodes: usize,
    params: FatTreeParams,
    links: Vec<LinkDesc>,
    /// Administrative state per link; a down link carries no routes.
    link_up: Vec<bool>,
}

/// Result of a successful route computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteInfo {
    /// Switch hops traversed (for latency accounting).
    pub hops: u32,
    /// True if the primary D-mod-k spine was down and an alternate
    /// spine carried the route.
    pub failover: bool,
}

impl FatTreeGraph {
    pub fn new(nodes: usize, nvlink_bw: f64, nic_bw: f64, params: FatTreeParams) -> Self {
        assert!(nodes > 0, "fat tree needs at least one node");
        assert!(params.leaf_radix > 0 && params.spines > 0 && params.trunk_bw > 0.0);
        let leaves = nodes.div_ceil(params.leaf_radix);
        let mut links = Vec::with_capacity(3 * nodes + 2 * leaves * params.spines);
        for _ in 0..nodes {
            links.push(LinkDesc {
                kind: LinkKind::NvLink,
                bw: nvlink_bw,
            });
        }
        for _ in 0..nodes {
            links.push(LinkDesc {
                kind: LinkKind::NicUp,
                bw: nic_bw,
            });
        }
        for _ in 0..nodes {
            links.push(LinkDesc {
                kind: LinkKind::NicDown,
                bw: nic_bw,
            });
        }
        for _ in 0..leaves {
            for _ in 0..params.spines {
                links.push(LinkDesc {
                    kind: LinkKind::LeafUp,
                    bw: params.trunk_bw,
                });
                links.push(LinkDesc {
                    kind: LinkKind::LeafDown,
                    bw: params.trunk_bw,
                });
            }
        }
        let n = links.len();
        FatTreeGraph {
            nodes,
            params,
            links,
            link_up: vec![true; n],
        }
    }

    pub fn params(&self) -> &FatTreeParams {
        &self.params
    }

    /// Link descriptors in [`LinkId`] order, for seeding a `FlowSim`.
    pub fn links(&self) -> &[LinkDesc] {
        &self.links
    }

    pub fn leaf_of(&self, node: usize) -> usize {
        node / self.params.leaf_radix
    }

    fn trunk_up(&self, leaf: usize, spine: usize) -> LinkId {
        LinkId((3 * self.nodes + 2 * (leaf * self.params.spines + spine)) as u32)
    }

    fn trunk_down(&self, leaf: usize, spine: usize) -> LinkId {
        LinkId((3 * self.nodes + 2 * (leaf * self.params.spines + spine) + 1) as u32)
    }

    /// Mark a link up or down. Down links carry no new routes; the
    /// caller aborts flows already crossing the link (see
    /// `FlowSim::abort_link`).
    pub fn set_link_state(&mut self, link: LinkId, up: bool) {
        self.link_up[link.0 as usize] = up;
    }

    /// Administrative state of a link.
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.link_up[link.0 as usize]
    }

    #[inline]
    fn up(&self, l: LinkId) -> bool {
        self.link_up[l.0 as usize]
    }

    /// Write the static route from `src` to `dst` into `out`, skipping
    /// down links where an alternate exists. Cross-leaf traffic prefers
    /// the D-mod-k spine `dst % spines`; if either trunk of that spine
    /// pair is down, the first higher spine (mod `spines`) with both
    /// trunks up carries the route instead — a deterministic scan, so a
    /// given link-state always produces the same failover. Returns
    /// `None` when no path exists (an endpoint NIC or NVLink is down,
    /// or every spine pair between the leaves is broken).
    pub fn try_route(&self, src: usize, dst: usize, out: &mut Vec<LinkId>) -> Option<RouteInfo> {
        debug_assert!(src < self.nodes && dst < self.nodes);
        out.clear();
        if src == dst {
            let l = LinkId(src as u32);
            if !self.up(l) {
                return None;
            }
            out.push(l);
            return Some(RouteInfo {
                hops: 0,
                failover: false,
            });
        }
        let nic_up = LinkId((self.nodes + src) as u32);
        let nic_down = LinkId((2 * self.nodes + dst) as u32);
        if !self.up(nic_up) || !self.up(nic_down) {
            return None;
        }
        out.push(nic_up);
        let (src_leaf, dst_leaf) = (self.leaf_of(src), self.leaf_of(dst));
        let info = if src_leaf == dst_leaf {
            RouteInfo {
                hops: 1, // one leaf switch
                failover: false,
            }
        } else {
            let spines = self.params.spines;
            let primary = dst % spines;
            let mut chosen = None;
            for k in 0..spines {
                let s = (primary + k) % spines;
                if self.up(self.trunk_up(src_leaf, s)) && self.up(self.trunk_down(dst_leaf, s)) {
                    chosen = Some((s, k > 0));
                    break;
                }
            }
            let (spine, failover) = match chosen {
                Some(c) => c,
                None => {
                    out.clear();
                    return None;
                }
            };
            out.push(self.trunk_up(src_leaf, spine));
            out.push(self.trunk_down(dst_leaf, spine));
            RouteInfo {
                hops: 3, // leaf, spine, leaf
                failover,
            }
        };
        out.push(nic_down);
        Some(info)
    }

    /// Write the static route from `src` to `dst` into `out` and return
    /// the number of switch hops traversed (for latency accounting).
    /// Panics if link failures have disconnected the pair; fallible
    /// callers use [`FatTreeGraph::try_route`].
    pub fn route(&self, src: usize, dst: usize, out: &mut Vec<LinkId>) -> u32 {
        self.try_route(src, dst, out)
            .unwrap_or_else(|| panic!("no route from node {src} to node {dst}"))
            .hops
    }

    /// True while every link is administratively up (the state a
    /// [`RouteTable`] is valid for).
    pub fn all_links_up(&self) -> bool {
        self.link_up.iter().all(|&u| u)
    }
}

/// Pre-computed all-links-up routes for every `(src, dst)` pair.
///
/// Built once per machine shape and shared read-only (behind an `Arc`)
/// by every concurrent simulation in a sweep: while no link fault has
/// fired, a fixed-stride table lookup replaces the per-message D-mod-k
/// spine scan of [`FatTreeGraph::try_route`]. The table is byte-for-byte
/// what `try_route` returns on an all-up graph (it is built by replaying
/// `try_route`), so switching between the two paths can never change an
/// outcome — the fabric simply stops consulting the table after the
/// first link fault of a run.
#[derive(Debug)]
pub struct RouteTable {
    nodes: usize,
    /// `nodes * nodes` entries at a fixed stride of 4 links; routes are
    /// 1 (loopback), 2 (same leaf) or 4 (cross-leaf) links long.
    links: Vec<LinkId>,
    /// Per-entry `(route length, switch hops)`.
    meta: Vec<(u8, u8)>,
}

impl RouteTable {
    /// Replay [`FatTreeGraph::try_route`] for every pair. The graph must
    /// still have every link up (freshly built).
    pub fn build(graph: &FatTreeGraph) -> Self {
        assert!(
            graph.all_links_up(),
            "route table must be built before any link fault"
        );
        let n = graph.nodes;
        let mut links = vec![LinkId(0); n * n * 4];
        let mut meta = vec![(0u8, 0u8); n * n];
        let mut buf = Vec::with_capacity(4);
        for src in 0..n {
            for dst in 0..n {
                let info = graph
                    .try_route(src, dst, &mut buf)
                    .expect("all-up graph is fully connected");
                let e = src * n + dst;
                links[e * 4..e * 4 + buf.len()].copy_from_slice(&buf);
                meta[e] = (buf.len() as u8, info.hops as u8);
            }
        }
        RouteTable {
            nodes: n,
            links,
            meta,
        }
    }

    /// Number of nodes the table was built for.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The pre-built route and its switch-hop count.
    #[inline]
    pub fn lookup(&self, src: usize, dst: usize) -> (&[LinkId], u32) {
        debug_assert!(src < self.nodes && dst < self.nodes);
        let e = src * self.nodes + dst;
        let (len, hops) = self.meta[e];
        (&self.links[e * 4..e * 4 + len as usize], hops as u32)
    }
}
