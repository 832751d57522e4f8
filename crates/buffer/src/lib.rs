//! # dmm-buffer — buffer pools, replacement policies, heat tracking
//!
//! The per-node storage substrate of the ICDE'99 reproduction:
//!
//! * [`page`] — page and class identifiers (class 0 is the paper's No-Goal
//!   class) and a pass-through hasher for integer keys.
//! * [`indexed_heap`] — an updatable binary min-heap, the workhorse behind
//!   every priority-ordered policy (the paper's §6 replacement keeps pages
//!   "sorted by their benefit" in a priority queue).
//! * [`policy`] — the replacement-policy trait plus LRU, FIFO, CLOCK,
//!   LRU-K (\[21\]) and the externally-priced cost-based policy of
//!   Sinnwell & Weikum used in §6.
//! * [`pool`] — a fixed-capacity page pool driving one policy, with hit/miss
//!   accounting and shrink/grow support.
//! * [`heat`] — LRU-K-style heat (access-frequency) estimation, kept per
//!   page and per class, created and deleted on demand (§6).
//! * [`tiered`] — the node buffer: per memory tier, one dedicated pool per
//!   goal class plus the no-goal pool that owns all undedicated frames,
//!   with the paper's resize and residency rules, one owner table, and one
//!   rule for where a displaced page goes (demotion down the tiers under
//!   hotness-based promotion, off the node under the static hash split).

pub mod heat;
pub mod indexed_heap;
pub mod page;
pub mod policy;
pub mod pool;
pub mod tiered;

pub use heat::{HeatEstimator, NodeHeat, HEAT_K};
pub use indexed_heap::IndexedMinHeap;
pub use page::{ClassId, IdHashMap, IdHashSet, PageId, NO_GOAL};
pub use policy::{
    ClockPolicy, CostBasedPolicy, FifoPolicy, LruKPolicy, LruPolicy, Policy, PolicyKind, PolicySpec,
};
pub use pool::{Pool, PoolStats};
pub use tiered::{Demoted, TierPolicy, TieredAccess, TieredBuffer, TieredInstall, MAX_TIERS};

/// The §3/§6 partitioning rules (pools, migration, resizes) on a one-tier
/// [`TieredBuffer`].
#[cfg(test)]
#[path = "partition_tests.rs"]
mod partition;
