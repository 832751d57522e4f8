//! # dmm-core — goal-oriented distributed buffer partitioning (ICDE 1999)
//!
//! The primary contribution of Sinnwell & König: an online, feedback-
//! controlled method that sizes per-class dedicated buffer pools across the
//! nodes of a NOW so that every goal class meets its user-specified mean
//! response time, while the no-goal class's response time is minimized.
//!
//! The five phases of the algorithm (paper §5) map onto this crate:
//!
//! | phase | module |
//! |-------|--------|
//! | (a) collect at the local agents | [`agent`] |
//! | (b) collect at the coordinator (measure points, incremental Gauss) | [`measure`] |
//! | (c) check against the goal with adaptive tolerance | [`tolerance`], [`coordinator`] |
//! | (d) optimize: hyperplane approximation + linear program | [`approx`], [`optimize`] |
//! | (e) allocate, best-effort, with feedback of granted sizes | [`coordinator`], `dmm-cluster` |
//!
//! [`config`] holds a run's configuration and its one check, [`system`]
//! wires the phases into the discrete-event simulation of
//! `dmm-cluster`/`dmm-workload`, [`baselines`] provides the comparison
//! controllers (fragment fencing, class fencing, static, none), and
//! [`metrics`] implements the §7 measurement protocol (convergence counting,
//! the Fig. 2 series, replication to a 99 % confidence target).

pub mod agent;
pub mod approx;
pub mod baselines;
pub mod calibrate;
pub mod config;
pub mod coordinator;
pub mod error;
pub mod measure;
pub mod metrics;
pub mod optimize;
pub mod probe;
pub mod records;
pub mod replay;
pub mod system;
pub mod tolerance;

pub use approx::{fit_planes, upsample_planes, Planes};
pub use baselines::ControllerKind;
pub use calibrate::calibrate_goal_range;
pub use config::{SystemConfig, SystemConfigBuilder};
pub use coordinator::{Coordinator, SatisfactionMode};
pub use error::Error;
pub use measure::{MeasurePoint, MeasureStore};
pub use metrics::{ConvergenceStats, IntervalRecord};
pub use optimize::{solve_partitioning, Objective, PartitionError, PartitionProblem};
pub use probe::{apply_probe_delta, batched_probe_deltas, ProbeSpec};
pub use replay::{
    config_from_record, recorded_run_from_jsonl, rerun_lines, run_config_record, verify_jsonl,
    RecordedRun, ReplayReport,
};
pub use system::Simulation;
pub use tolerance::ToleranceEstimator;
