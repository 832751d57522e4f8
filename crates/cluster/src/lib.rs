//! # dmm-cluster — the simulated network of workstations
//!
//! A faithful discrete-event model of the ICDE'99 evaluation platform
//! (paper §7.1): `N` nodes with 100 MIPS CPUs and local SCSI disks, joined by
//! a 100 Mbit/s LAN, each reserving a buffer area managed by the partitioned
//! buffer manager of `dmm-buffer`. Every data page has a *home* node holding
//! its disk-resident copy; reads are executed by **data shipping** — the page
//! is copied to the requesting node (§3).
//!
//! The access path for a page `p` requested at node `i` (all stages queue
//! FCFS at their facility, so contention emerges naturally):
//!
//! 1. **local lookup** (CPU): hit in any local pool → done (§6 may migrate
//!    the page from the no-goal pool into the requesting class's pool);
//! 2. **remote cache**: the request travels to `p`'s home, which serves the
//!    page itself, forwards to a caching node, or
//! 3. **disk**: reads `p` from its home disk; the page is then shipped back
//!    and installed per the §6 rules.
//!
//! The cluster also implements the cost-based replacement support of §6:
//! per-level access-cost estimation from observed, tagged response times
//! ([`costs`]), last-copy tracking and global heat in the directory
//! ([`directory`]), and benefit pricing ([`benefit`]). Control-plane traffic
//! (agents/coordinators, heat dissemination) is charged to the same network
//! so the §7.5 overhead experiment is meaningful.
//!
//! Fault injection ([`fault`]) layers a deterministic failure model on top:
//! scheduled node crashes/restarts, probabilistic LAN message loss, and
//! disk-stall windows, with graceful degradation (error paths, not hangs)
//! throughout the access protocol.

pub mod benefit;
pub mod costs;
pub mod directory;
pub mod disk;
pub mod drive;
pub mod fault;
pub mod homes;
pub mod ids;
pub mod network;
pub mod op;
pub mod params;
pub mod plane;
pub mod ring;
pub mod tier;

pub use costs::{AccessCosts, CostSlot};
pub use directory::Directory;
pub use disk::Disk;
pub use dmm_obs::{SpanMode, Stage, StageNanos, STAGES};
pub use drive::drive_to_quiescence;
pub use fault::{DiskStall, FaultKind, FaultPlan, ScheduledFault};
pub use homes::{Homes, HotRingSpec, PlacementError, PlacementSpec};
pub use ids::{NodeId, OpId};
pub use network::{LinkUtilization, Network};
pub use op::{OpCompletion, Operation, PageList};
pub use params::{ClusterParams, FabricSpec, NetParams, PAGE_BYTES};
pub use plane::{
    ClusterEvent, DataPlane, FaultStats, HomeLoad, RepriceStats, StepOutput, VictimAudit,
};
pub use ring::{HashRing, MAX_RING_REPLICAS};
pub use tier::{TierId, TierLadder, TierSpec, MAX_TIERS};
