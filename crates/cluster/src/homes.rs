//! Page-home assignment.
//!
//! §3: "each data page has a permanent, disk-resident copy at a specific node
//! called its home. The homes themselves are distributed across the nodes
//! using a hash function or some catalog-driven partitioning function."
//! §7.1 distributes the database round-robin over all nodes' disks.
//!
//! Three placement schemes are selectable ([`PlacementSpec`]):
//!
//! * **round-robin** — `page % N`, the paper's §7.1 choice;
//! * **hash** — multiply-shift hash, the §3 alternative;
//! * **hot ring** — a seeded consistent-hash ring with virtual nodes
//!   ([`crate::ring`]) whose per-page *replication degree* scales with the
//!   page's observed home-request heat. A hot page's disk image is mirrored
//!   at `r > 1` ring successors and read requests spread across them
//!   deterministically by origin, so no single home node is hammered. The
//!   data plane feeds per-interval home-request counts back through
//!   [`Homes::retarget_replication`].
//!
//! The hot ring is §3's "catalog-driven partitioning function" in the
//! literal sense: the ring is walked once per page at construction and each
//! page's first `min(max_replicas, N)` distinct successors are stored in a
//! flat catalog. A replication degree `r` only ever selects a prefix of that
//! list, so every query is an indexed load, never a ring search. The ring is
//! immutable after construction, so the catalog cannot go stale.
//!
//! The disk mirror follows the shared-disk assumption the fault layer
//! already makes (a dead home's pages stay readable elsewhere, DESIGN.md
//! §6): widening a page's home set never has to ship state, it only widens
//! where requests may land.

use dmm_buffer::PageId;

use crate::ids::NodeId;
use crate::ring::{HashRing, MAX_RING_REPLICAS};

/// Which page-home placement scheme the cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PlacementSpec {
    /// `page % N` (the paper's §7.1 choice; the reference default).
    #[default]
    RoundRobin,
    /// Static multiply-shift hash (the §3 alternative).
    Hash,
    /// Hotness-aware consistent-hash ring with heat-scaled replication.
    HotRing(HotRingSpec),
}

/// Tuning of the [`PlacementSpec::HotRing`] scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotRingSpec {
    /// Virtual nodes per physical node; the ring's arc-share spread falls
    /// as `1/√vnodes`.
    pub vnodes: u16,
    /// Per-page replication-degree ceiling (≤ [`MAX_RING_REPLICAS`]).
    pub max_replicas: u8,
    /// Ring layout seed. Fixed config, deliberately *not* derived from the
    /// workload seed: the same configuration must map pages identically
    /// across runs for the determinism contract.
    pub seed: u64,
}

impl Default for HotRingSpec {
    fn default() -> Self {
        HotRingSpec {
            vnodes: 512,
            max_replicas: MAX_RING_REPLICAS as u8,
            seed: 0xD1_57_12_B0,
        }
    }
}

/// Why a placement could not be constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementError {
    /// The cluster needs at least one node.
    NoNodes,
    /// Node ids are `u16`; more nodes than `u16::MAX` would silently
    /// truncate the home index.
    TooManyNodes(usize),
    /// A hot ring needs at least one virtual node per physical node.
    NoVirtualNodes,
    /// The replication ceiling must lie in `1..=MAX_RING_REPLICAS`.
    BadReplicaCap(u8),
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::NoNodes => write!(f, "placement needs at least one node"),
            PlacementError::TooManyNodes(n) => {
                write!(f, "{n} nodes exceed the u16 node-id space ({})", u16::MAX)
            }
            PlacementError::NoVirtualNodes => {
                write!(f, "hot ring needs at least one virtual node per node")
            }
            PlacementError::BadReplicaCap(r) => {
                write!(f, "replica cap {r} outside 1..={MAX_RING_REPLICAS}")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// Maps pages to their home node(s).
///
/// Queries take a page of the database: under the hot ring, `page` must be
/// below the `db_pages` the placement was built for (the per-page catalog
/// and degrees are indexed by it; [`crate::DataPlane::start_operation`]
/// refuses operations on other pages). The static schemes accept any page.
#[derive(Debug, Clone)]
pub struct Homes {
    nodes: u16,
    scheme: Scheme,
}

#[derive(Debug, Clone)]
enum Scheme {
    RoundRobin,
    Hash,
    HotRing {
        /// Page `p`'s first `cap` distinct ring successors, primary first,
        /// at `succ[p * cap..(p + 1) * cap]`.
        succ: Vec<u16>,
        /// Catalog stride: `min(max_replicas, N)`, the degree ceiling.
        cap: usize,
        /// Per-page replication degree in `1..=cap`, indexed by page id.
        degree: Vec<u8>,
    },
}

fn check_nodes(nodes: usize) -> Result<u16, PlacementError> {
    if nodes == 0 {
        return Err(PlacementError::NoNodes);
    }
    u16::try_from(nodes).map_err(|_| PlacementError::TooManyNodes(nodes))
}

impl Homes {
    /// Round-robin placement (the paper's §7.1 choice).
    pub fn round_robin(nodes: usize) -> Result<Self, PlacementError> {
        Ok(Homes {
            nodes: check_nodes(nodes)?,
            scheme: Scheme::RoundRobin,
        })
    }

    /// Hash placement (the §3 alternative).
    pub fn hashed(nodes: usize) -> Result<Self, PlacementError> {
        Ok(Homes {
            nodes: check_nodes(nodes)?,
            scheme: Scheme::Hash,
        })
    }

    /// Hotness-aware ring placement over a database of `db_pages` pages.
    pub fn hot_ring(
        nodes: usize,
        db_pages: u32,
        spec: HotRingSpec,
    ) -> Result<Self, PlacementError> {
        let n = check_nodes(nodes)?;
        if spec.vnodes == 0 {
            return Err(PlacementError::NoVirtualNodes);
        }
        if spec.max_replicas == 0 || spec.max_replicas as usize > MAX_RING_REPLICAS {
            return Err(PlacementError::BadReplicaCap(spec.max_replicas));
        }
        let ring = HashRing::new(nodes, spec.vnodes, spec.seed);
        let cap = (spec.max_replicas as usize).min(nodes);
        let mut succ = Vec::with_capacity(db_pages as usize * cap);
        let mut buf = [0u16; MAX_RING_REPLICAS];
        for page in 0..db_pages {
            let found = ring.replicas(page as u64, cap, &mut buf);
            debug_assert_eq!(found, cap);
            succ.extend_from_slice(&buf[..found]);
        }
        Ok(Homes {
            nodes: n,
            scheme: Scheme::HotRing {
                succ,
                cap,
                degree: vec![1; db_pages as usize],
            },
        })
    }

    /// Placement for `spec` over `nodes` nodes and `db_pages` pages.
    pub fn from_spec(
        spec: &PlacementSpec,
        nodes: usize,
        db_pages: u32,
    ) -> Result<Self, PlacementError> {
        match spec {
            PlacementSpec::RoundRobin => Self::round_robin(nodes),
            PlacementSpec::Hash => Self::hashed(nodes),
            PlacementSpec::HotRing(hr) => Self::hot_ring(nodes, db_pages, *hr),
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes as usize
    }

    /// Current replication degree of `page` (1 for the static schemes).
    pub fn replication(&self, page: PageId) -> usize {
        match &self.scheme {
            Scheme::RoundRobin | Scheme::Hash => 1,
            Scheme::HotRing { degree, .. } => {
                debug_assert!(page.index() < degree.len(), "{page:?} beyond the database");
                degree[page.index()] as usize
            }
        }
    }

    /// The hot ring's current home set of `page`, primary first: the first
    /// `replication(page)` entries of its catalog row.
    #[inline]
    fn ring_homes<'a>(succ: &'a [u16], cap: usize, degree: &[u8], page: PageId) -> &'a [u16] {
        debug_assert!(page.index() < degree.len(), "{page:?} beyond the database");
        let base = page.index() * cap;
        &succ[base..base + degree[page.index()] as usize]
    }

    /// The *primary* home of `page` (origin-independent; the node a static
    /// scheme would always use).
    #[inline]
    pub fn home(&self, page: PageId) -> NodeId {
        match &self.scheme {
            Scheme::RoundRobin => NodeId((page.0 % self.nodes as u32) as u16),
            Scheme::Hash => {
                let h = (page.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
                NodeId((h % self.nodes as u64) as u16)
            }
            Scheme::HotRing { succ, cap, .. } => NodeId(succ[page.index() * cap]),
        }
    }

    /// The home node an access from `origin` should be routed to. Static
    /// schemes route every origin to the single home; the hot ring spreads
    /// origins across the page's replica set — preferring `origin` itself
    /// when it is a replica (its mirror read is a local disk read), else
    /// picking deterministically by origin index so the read fan-in divides
    /// evenly.
    #[inline]
    pub fn home_for(&self, page: PageId, origin: NodeId) -> NodeId {
        match &self.scheme {
            Scheme::RoundRobin | Scheme::Hash => self.home(page),
            Scheme::HotRing { succ, cap, degree } => {
                let set = Self::ring_homes(succ, *cap, degree, page);
                if set.contains(&origin.0) {
                    return origin;
                }
                NodeId(set[origin.index() % set.len()])
            }
        }
    }

    /// Writes `page`'s full home set into `buf` (primary first) and returns
    /// its size. Static schemes have exactly one home. Allocation-free.
    pub fn homes_of(&self, page: PageId, buf: &mut [u16; MAX_RING_REPLICAS]) -> usize {
        match &self.scheme {
            Scheme::RoundRobin | Scheme::Hash => {
                buf[0] = self.home(page).0;
                1
            }
            Scheme::HotRing { succ, cap, degree } => {
                let set = Self::ring_homes(succ, *cap, degree, page);
                buf[..set.len()].copy_from_slice(set);
                set.len()
            }
        }
    }

    /// True when `node` is (one of) `page`'s home(s).
    #[inline]
    pub fn is_home(&self, page: PageId, node: NodeId) -> bool {
        match &self.scheme {
            Scheme::RoundRobin | Scheme::Hash => self.home(page) == node,
            Scheme::HotRing { succ, cap, degree } => {
                Self::ring_homes(succ, *cap, degree, page).contains(&node.0)
            }
        }
    }

    /// True when the scheme adapts replication to heat (the data plane only
    /// maintains per-page home-request counters when this is set).
    pub fn adapts_replication(&self) -> bool {
        matches!(self.scheme, Scheme::HotRing { .. })
    }

    /// A page is "hot" once its single-home request load exceeds
    /// `1/OVERLOAD` of a node's fair share of all home requests. Real
    /// workloads spread their misses over many warm pages (local caches
    /// absorb the very head of the skew), so no single page ever nears a
    /// full node-share — without this headroom factor the replication loop
    /// never engages.
    const OVERLOAD: u64 = 4;

    /// Re-targets per-page replication from one interval's home-request
    /// counts (`counts[page]`, summing to `total`). A page carrying share
    /// `s` of all home requests gets `⌈s·N·OVERLOAD⌉` replicas — enough
    /// that its per-home fan-in drops back under `1/OVERLOAD` of a node's
    /// fair share — capped by the spec; unrequested pages cool by one
    /// degree per interval. No-op for the static schemes.
    pub fn retarget_replication(&mut self, counts: &[u32], total: u64) {
        let nodes = self.nodes as u64;
        let Scheme::HotRing { cap, degree, .. } = &mut self.scheme else {
            return;
        };
        let cap = *cap as u64;
        for (d, &c) in degree.iter_mut().zip(counts) {
            if c == 0 {
                *d = (*d).saturating_sub(1).max(1);
            } else {
                let want = (c as u64 * nodes * Self::OVERLOAD).div_ceil(total);
                *d = want.clamp(1, cap) as u8;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles() {
        let h = Homes::round_robin(3).expect("3 nodes fit");
        assert_eq!(h.home(PageId(0)), NodeId(0));
        assert_eq!(h.home(PageId(1)), NodeId(1));
        assert_eq!(h.home(PageId(2)), NodeId(2));
        assert_eq!(h.home(PageId(3)), NodeId(0));
        // Static schemes: routed home == primary for every origin.
        assert_eq!(h.home_for(PageId(3), NodeId(2)), NodeId(0));
        assert!(h.is_home(PageId(3), NodeId(0)));
        assert!(!h.is_home(PageId(3), NodeId(1)));
        assert!(!h.adapts_replication());
    }

    #[test]
    fn hash_is_deterministic_and_balanced() {
        let h = Homes::hashed(4).expect("4 nodes fit");
        let mut counts = [0u32; 4];
        for p in 0..4000 {
            let n = h.home(PageId(p));
            assert_eq!(n, h.home(PageId(p)));
            counts[n.index()] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "imbalanced: {counts:?}");
        }
    }

    #[test]
    fn constructors_reject_bad_node_counts() {
        assert_eq!(Homes::round_robin(0).unwrap_err(), PlacementError::NoNodes);
        assert_eq!(Homes::hashed(0).unwrap_err(), PlacementError::NoNodes);
        let too_many = u16::MAX as usize + 1;
        assert_eq!(
            Homes::round_robin(too_many).unwrap_err(),
            PlacementError::TooManyNodes(too_many)
        );
        assert_eq!(
            Homes::hot_ring(too_many, 10, HotRingSpec::default()).unwrap_err(),
            PlacementError::TooManyNodes(too_many)
        );
        // The u16::MAX boundary itself is fine.
        assert_eq!(
            Homes::round_robin(u16::MAX as usize)
                .expect("boundary ok")
                .nodes(),
            u16::MAX as usize
        );
    }

    #[test]
    fn hot_ring_spec_is_validated() {
        let bad_v = HotRingSpec {
            vnodes: 0,
            ..HotRingSpec::default()
        };
        assert_eq!(
            Homes::hot_ring(4, 100, bad_v).unwrap_err(),
            PlacementError::NoVirtualNodes
        );
        let bad_r = HotRingSpec {
            max_replicas: 0,
            ..HotRingSpec::default()
        };
        assert_eq!(
            Homes::hot_ring(4, 100, bad_r).unwrap_err(),
            PlacementError::BadReplicaCap(0)
        );
    }

    #[test]
    fn hot_ring_replication_spreads_and_cools() {
        let mut h = Homes::hot_ring(8, 100, HotRingSpec::default()).expect("valid");
        assert_eq!(h.replication(PageId(0)), 1);
        // Page 0 carries ~10 % of all home requests — OVERLOAD× hotter
        // than a node-fair page slice: ⌈0.101·8·4⌉ = 4 replicas. The warm
        // tail (0.9 % each) stays below the threshold and keeps 1.
        let mut counts = vec![9u32; 100];
        counts[0] = 100;
        let total: u64 = counts.iter().map(|&c| c as u64).sum();
        assert_eq!(total, 991);
        h.retarget_replication(&counts, total);
        assert_eq!(h.replication(PageId(0)), 4);
        assert_eq!(h.replication(PageId(1)), 1);

        // Replicated page: every origin routes to a home in the replica
        // set, a replica origin routes to itself, and the fan-in spreads
        // over more than one node.
        let homes: std::collections::BTreeSet<NodeId> =
            (0..8).map(|o| h.home_for(PageId(0), NodeId(o))).collect();
        assert!(homes.len() > 1, "hot page fan-in not spread: {homes:?}");
        for &target in &homes {
            assert!(h.is_home(PageId(0), target));
            assert_eq!(
                h.home_for(PageId(0), target),
                target,
                "replica reads locally"
            );
        }

        // An idle interval cools the page one degree at a time back to 1.
        for expect in [3, 2, 1, 1] {
            h.retarget_replication(&vec![0u32; 100], 0);
            assert_eq!(h.replication(PageId(0)), expect);
        }
    }

    #[test]
    fn from_spec_matches_direct_constructors() {
        let a = Homes::from_spec(&PlacementSpec::RoundRobin, 5, 100).expect("valid");
        assert_eq!(a.home(PageId(7)), NodeId(2));
        let b = Homes::from_spec(&PlacementSpec::Hash, 5, 100).expect("valid");
        let c = Homes::hashed(5).expect("valid");
        for p in 0..100 {
            assert_eq!(b.home(PageId(p)), c.home(PageId(p)));
        }
        let d = Homes::from_spec(&PlacementSpec::HotRing(HotRingSpec::default()), 5, 100)
            .expect("valid");
        assert!(d.adapts_replication());
    }

    #[test]
    fn placement_error_displays() {
        assert!(PlacementError::TooManyNodes(70_000)
            .to_string()
            .contains("70000"));
        assert!(PlacementError::BadReplicaCap(9).to_string().contains('9'));
    }
}
