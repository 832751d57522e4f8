//! Typed errors of the public simulation API.
//!
//! Every fallible [`crate::Simulation`] mutator,
//! [`crate::SystemConfig::validate`] and the
//! [`crate::SystemConfigBuilder`] return these instead of panicking, so
//! embedding code (benchmark harnesses, parameter sweeps, interactive
//! tools) can recover from bad inputs. A configuration edited field by
//! field after `build` is judged by the same `validate` when
//! [`crate::Simulation::new`] takes it, which panics on a refusal.

use dmm_buffer::ClassId;
use dmm_cluster::NodeId;

/// Why a simulation request was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The class id does not exist in the configured workload.
    UnknownClass(ClassId),
    /// The class exists but is the no-goal class, which has no coordinator,
    /// no goal, and no dedicated buffers.
    NotAGoalClass(ClassId),
    /// The node id is outside the configured cluster.
    UnknownNode(NodeId),
    /// The node exists but is currently crashed.
    NodeDown(NodeId),
    /// A response-time goal must be positive and finite (milliseconds).
    InvalidGoal(f64),
    /// A dedicated-buffer fraction must lie in `[0, 1]`.
    InvalidFraction(f64),
    /// The configuration is not a valid run of the system.
    InvalidConfig(&'static str),
    /// The workload is malformed for the configured cluster (the fault
    /// [`dmm_workload::WorkloadSpec::validate`] names).
    InvalidWorkload(String),
    /// The storage-tier ladder is malformed (too few/many rungs,
    /// non-monotone latencies, zero capacities, duplicate names, …).
    InvalidTier(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::UnknownClass(c) => write!(f, "unknown class {c:?}"),
            Error::NotAGoalClass(c) => write!(f, "{c:?} is not a goal class"),
            Error::UnknownNode(n) => write!(f, "unknown node {n:?}"),
            Error::NodeDown(n) => write!(f, "node {n:?} is down"),
            Error::InvalidGoal(g) => {
                write!(f, "goal must be positive and finite, got {g} ms")
            }
            Error::InvalidFraction(x) => {
                write!(f, "fraction must lie in [0, 1], got {x}")
            }
            Error::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
            Error::InvalidWorkload(why) => write!(f, "invalid workload: {why}"),
            Error::InvalidTier(why) => write!(f, "invalid tier ladder: {why}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::InvalidGoal(-1.0);
        assert!(e.to_string().contains("-1"));
        let e = Error::InvalidConfig("zero nodes");
        assert!(e.to_string().contains("zero nodes"));
        assert_eq!(Error::NodeDown(NodeId(2)), Error::NodeDown(NodeId(2)));
    }
}
