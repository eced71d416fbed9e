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

impl FatTreeParams {
    /// Links in the graph [`FatTreeGraph::new`] builds over `nodes`
    /// nodes: three per node (NVLink, NIC up, NIC down) plus an up/down
    /// trunk pair per leaf and spine. Lets a fault plan's link indices be
    /// checked without building the graph.
    pub fn link_count(&self, nodes: usize) -> usize {
        3 * nodes + 2 * nodes.div_ceil(self.leaf_radix) * self.spines
    }
}

/// The link graph and link state of one machine; routes are computed
/// per message by [`FatTreeGraph::try_route`].
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
    /// The link graph of `nodes` nodes: one NVLink, NIC injection and
    /// NIC ejection link per node (bandwidths `nvlink_bw` and `nic_bw`
    /// in bytes/second), then an up and a down trunk per (leaf, spine)
    /// pair. Panics on zero nodes, radix, spines or trunk bandwidth.
    pub fn new(nodes: usize, nvlink_bw: f64, nic_bw: f64, params: FatTreeParams) -> Self {
        assert!(nodes > 0, "fat tree needs at least one node");
        assert!(params.leaf_radix > 0 && params.spines > 0 && params.trunk_bw > 0.0);
        let leaves = nodes.div_ceil(params.leaf_radix);
        let mut links = Vec::with_capacity(params.link_count(nodes));
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
        debug_assert_eq!(n, params.link_count(nodes));
        FatTreeGraph {
            nodes,
            params,
            links,
            link_up: vec![true; n],
        }
    }

    /// The shape this graph was built with.
    pub fn params(&self) -> &FatTreeParams {
        &self.params
    }

    /// Link descriptors in [`LinkId`] order, for seeding a `FlowSim`.
    pub fn links(&self) -> &[LinkDesc] {
        &self.links
    }

    /// The leaf switch `node` hangs off.
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
}
