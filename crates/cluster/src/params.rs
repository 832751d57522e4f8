//! Cluster parameters.
//!
//! Defaults follow the paper's §7.1 setup (3 nodes, 100 Mbit/s LAN, 2 MB
//! cache per node, 4 KB pages). The hardware §7.1 fixes and never varies is
//! constant, next to the code that reads it: the disk's seek, rotation and
//! transfer in [`crate::disk`], the 100 MIPS CPU and the lookup / serve /
//! install instruction counts beside the plane's CPU reservations, the
//! per-message latency and message sizes in [`crate::network`], and the
//! heat-publish threshold where the plane builds its [`crate::Directory`]
//! (see DESIGN.md "Substitutions").

use dmm_buffer::{PolicySpec, TierPolicy};
use dmm_obs::SpanMode;
use dmm_sim::SimDuration;

use crate::homes::PlacementSpec;
use crate::tier::TierLadder;

/// Size of one data page in bytes (§7.1: 4 KByte pages).
pub const PAGE_BYTES: u64 = 4096;

/// Interconnect topology: the paper's single shared medium, or a switched
/// fabric with one full-duplex link per node.
///
/// Under [`FabricSpec::SharedMedium`] every message serializes through one
/// FCFS facility — aggregate bandwidth is fixed at `bits_per_sec` no matter
/// how many nodes contend, which is exactly the §7.1 model and the first
/// N = 64 scale wall. Under [`FabricSpec::Switched`] each node owns a TX and
/// an RX link of `bits_per_sec` each (store-and-forward through the switch),
/// so bisection bandwidth grows with `N`; an optional core-capacity facility
/// models an oversubscribed switch fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FabricSpec {
    /// One shared FCFS medium (the paper's LAN).
    #[default]
    SharedMedium,
    /// Per-node full-duplex links through a switch.
    Switched {
        /// Aggregate capacity of the switch core in bits per second, shared
        /// by all messages in flight. `None` models a non-blocking switch.
        bisection_bits_per_sec: Option<u64>,
    },
}

/// Network model (§7.1: "fast local network, transfer-rate of 100 Mbit/s").
/// Each message occupies its facility (the shared medium, or a TX and an RX
/// link) for `bytes·8/bandwidth` plus the fixed per-message latency of
/// [`crate::network`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetParams {
    /// Bandwidth in bits per second (of the medium, or of each link).
    pub bits_per_sec: u64,
    /// Interconnect topology (default: the paper's shared medium).
    pub fabric: FabricSpec,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            bits_per_sec: 100_000_000,
            fabric: FabricSpec::default(),
        }
    }
}

impl NetParams {
    /// Medium occupancy for a message of `bytes`.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(bytes.saturating_mul(8_000_000_000) / self.bits_per_sec)
    }
}

/// Full cluster configuration: what a run varies. The §7.1 hardware it
/// never varies lives beside the code that reads it (see the module doc).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterParams {
    /// Number of nodes `N`.
    pub nodes: usize,
    /// Buffer frames per node (512 = the paper's 2 MB of 4 KB pages).
    pub buffer_pages_per_node: usize,
    /// Database size in pages (`M`, §7.1: 2000).
    pub db_pages: u32,
    /// Number of goal classes `K`.
    pub goal_classes: usize,
    /// Replacement policy for every pool.
    pub policy: PolicySpec,
    /// Network model.
    pub net: NetParams,
    /// Operation-level span accumulation (per-class × per-stage response
    /// time attribution). [`SpanMode::Off`] by default: no stage sums, one
    /// branch per attribution point.
    pub spans: SpanMode,
    /// Page-home placement scheme.
    pub placement: PlacementSpec,
    /// The storage hierarchy. The default three-rung ladder reproduces the
    /// paper's fixed local/remote/disk model exactly; extended ladders add
    /// capacity-capped intermediate memory tiers with demotion/promotion.
    pub tiers: TierLadder,
    /// Placement policy across the local memory tiers of an extended
    /// ladder. Irrelevant for the default ladder.
    pub tier_policy: TierPolicy,
}

impl Default for ClusterParams {
    fn default() -> Self {
        ClusterParams {
            nodes: 3,
            buffer_pages_per_node: 512, // 2 MB / 4 KB
            db_pages: 2000,
            goal_classes: 1,
            policy: PolicySpec::CostBased,
            net: NetParams::default(),
            spans: SpanMode::default(),
            placement: PlacementSpec::default(),
            tiers: TierLadder::default(),
            tier_policy: TierPolicy::default(),
        }
    }
}

impl ClusterParams {
    /// Per-node frame capacity of each local memory tier, with tier 0
    /// inheriting `buffer_pages_per_node` when the ladder leaves it unset.
    pub fn memory_tier_frames(&self) -> Vec<usize> {
        self.tiers.memory_frames(self.buffer_pages_per_node)
    }

    /// Total local memory frames per node, summed over the memory tiers.
    /// Equals `buffer_pages_per_node` for the default ladder.
    pub fn local_frames_per_node(&self) -> usize {
        self.memory_tier_frames().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_page_read_is_disk_bound() {
        let t = crate::disk::PAGE_READ.as_millis_f64();
        // ≈ 5.2 + 2.99 + 0.23 ms.
        assert!((t - 8.42).abs() < 0.05, "page read {t} ms");
    }

    #[test]
    fn network_page_transfer_is_much_faster_than_disk() {
        let n = NetParams::default();
        let page = n.transfer_time(PAGE_BYTES + crate::network::PAGE_HEADER_BYTES);
        assert!(page.as_millis_f64() < 0.5);
        assert!(page.as_millis_f64() > 0.2);
        let read = crate::disk::PAGE_READ;
        assert!(read.as_nanos() > 10 * page.as_nanos());
        // Worst-case stability at the base workload: all accesses missing
        // must keep each disk below ~85% utilization.
        let worst_reads_per_ms = 0.024 * 3.0 * 4.0 / 3.0;
        let rho = worst_reads_per_ms * read.as_millis_f64();
        assert!(rho < 0.85, "worst-case disk utilization {rho}");
    }

    #[test]
    fn cpu_costs_are_tens_of_microseconds() {
        assert_eq!(crate::plane::LOOKUP_CPU, SimDuration::from_micros(30));
        assert_eq!(crate::plane::SERVE_CPU, SimDuration::from_micros(50));
        assert_eq!(crate::plane::INSTALL_CPU, SimDuration::from_micros(30));
    }

    #[test]
    fn defaults_match_paper_setup() {
        let p = ClusterParams::default();
        assert_eq!(p.nodes, 3);
        assert_eq!(p.buffer_pages_per_node * PAGE_BYTES as usize, 2 << 20);
        assert_eq!(p.db_pages, 2000);
        assert_eq!(p.placement, PlacementSpec::RoundRobin);
        assert_eq!(p.net.fabric, FabricSpec::SharedMedium);
    }
}
