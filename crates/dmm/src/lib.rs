//! # dmm — goal-oriented distributed memory management
//!
//! A from-scratch Rust reproduction of *Managing Distributed Memory to Meet
//! Multiclass Workload Response Time Goals* (Sinnwell & König, ICDE 1999):
//! an online feedback method that partitions the aggregate buffer memory of
//! a network of workstations into per-class dedicated pools so that
//! user-specified mean response time goals are met, built on a detailed
//! discrete-event simulation of the cluster.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`sim`] — discrete-event kernel, distributions, statistics;
//! * [`linalg`] — incremental Gauss, hyperplane fitting;
//! * [`buffer`] — pools, replacement policies, heat, the tiered node buffer;
//! * [`cluster`] — nodes, disks, LAN, directory, data-shipping protocol;
//! * [`obs`] — metrics registry, deterministic JSON, structured trace sinks;
//! * [`workload`] — multiclass workload generation and goal schedules;
//! * [`core`] — the paper's agents/coordinators/optimizer (the §4 LP,
//!   solved in closed form) and the [`core::Simulation`] facade.
//!
//! ## Quickstart
//!
//! ```
//! use dmm::prelude::*;
//!
//! // The paper's base experiment: 3 nodes, one goal class, goal 15 ms.
//! let config = SystemConfig::builder()
//!     .seed(42)
//!     .goal_ms(15.0)
//!     .build()
//!     .expect("valid configuration");
//! let mut sim = Simulation::new(config);
//! sim.run_intervals(20);
//! let last = sim.records(ClassId(1)).last().expect("ran checks");
//! assert!(last.observed_ms.is_some());
//! ```

pub use dmm_buffer as buffer;
pub use dmm_cluster as cluster;
pub use dmm_core as core;
pub use dmm_linalg as linalg;
pub use dmm_obs as obs;
pub use dmm_sim as sim;
pub use dmm_workload as workload;

/// The types almost every embedding needs, importable in one line.
///
/// ```
/// use dmm::prelude::*;
///
/// let plan = FaultPlan::new(7).crash_ms(NodeId(1), 60_000);
/// let config = SystemConfig::builder()
///     .seed(7)
///     .goal_ms(15.0)
///     .fault_plan(plan)
///     .build()
///     .expect("valid configuration");
/// assert!(config.fault_plan.is_some());
/// ```
pub mod prelude {
    pub use dmm_buffer::{ClassId, PolicySpec, TierPolicy, NO_GOAL};
    pub use dmm_cluster::{
        CostSlot, DiskStall, FaultKind, FaultPlan, HotRingSpec, NodeId, PlacementSpec, TierId,
        TierLadder, TierSpec,
    };
    pub use dmm_core::{
        ControllerKind, Error, SatisfactionMode, Simulation, SystemConfig, SystemConfigBuilder,
    };
    pub use dmm_obs::{JsonLinesSink, StreamSink, TraceSink, VecSink};
    pub use dmm_sim::{ExecMode, SimDuration, SimTime};
    pub use dmm_workload::{GoalMetric, GoalRange};
}
