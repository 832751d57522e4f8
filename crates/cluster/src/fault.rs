//! Deterministic fault injection: scheduled node crashes and restarts,
//! probabilistic LAN message loss, and disk-stall windows.
//!
//! A [`FaultPlan`] is pure data — a seeded, declarative schedule of faults —
//! so the same plan under the same master seed reproduces byte-identical
//! runs. The plan is installed into the [`crate::DataPlane`] (drop model,
//! stall windows) and its scheduled events are injected by the embedding
//! simulator, which calls [`crate::DataPlane::crash_node`] /
//! [`crate::DataPlane::restart_node`] at the planned instants.
//!
//! Failure model (DESIGN.md §6): a crash loses a node's *volatile* state —
//! buffer contents, heat bookkeeping, CPU and network presence — while its
//! disk-resident data stays readable by the survivors (dual-ported /
//! shared-disk assumption). Pages whose only cached copy lived on the
//! crashed node are *lost from memory* and must be re-read from disk;
//! protocol steps that would touch the dead node complete through error
//! paths (bounce to home, or a mirror read at the origin's disk) instead of
//! hanging. A restarted node rejoins with a cold buffer.

use dmm_sim::{SimDuration, SimTime};

use crate::ids::NodeId;

/// A single scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The node loses its volatile state and stops serving.
    Crash(NodeId),
    /// The node rejoins with a cold buffer.
    Restart(NodeId),
}

impl FaultKind {
    /// The node the fault targets.
    pub fn node(&self) -> NodeId {
        match *self {
            FaultKind::Crash(n) | FaultKind::Restart(n) => n,
        }
    }
}

/// A fault with its absolute injection instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// When the fault strikes.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A window during which one node's disk serves reads `factor`× slower
/// (controller firmware hiccup, RAID rebuild, competing scan).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskStall {
    /// The stalled node.
    pub node: NodeId,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Service-time multiplier, ≥ 1.
    pub factor: f64,
}

/// A deterministic, schedulable fault-injection plan.
///
/// Built fluently and handed to the system configuration:
///
/// ```
/// use dmm_cluster::{FaultPlan, NodeId};
///
/// let plan = FaultPlan::new(7)
///     .crash_ms(NodeId(2), 100_000)
///     .restart_ms(NodeId(2), 200_000)
///     .message_drop(0.01)
///     .disk_stall_ms(NodeId(0), 50_000, 60_000, 4.0);
/// assert!(plan.validate(3).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the plan's stochastic parts (message drops). Derived from —
    /// but independent of — the experiment's master seed, so fault dice
    /// never perturb workload dice.
    pub seed: u64,
    /// Scheduled crashes and restarts.
    pub events: Vec<ScheduledFault>,
    /// Probability that any one LAN message is dropped and must be
    /// retransmitted (0 disables the drop model).
    pub drop_probability: f64,
    /// Back-off before a dropped message is retransmitted.
    pub retransmit: SimDuration,
    /// Disk-stall windows.
    pub stalls: Vec<DiskStall>,
}

impl FaultPlan {
    /// An empty plan with the given fault seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
            drop_probability: 0.0,
            retransmit: SimDuration::from_micros(500),
            stalls: Vec::new(),
        }
    }

    /// Schedules a crash of `node` at `at`.
    pub fn crash(mut self, node: NodeId, at: SimTime) -> Self {
        self.events.push(ScheduledFault {
            at,
            kind: FaultKind::Crash(node),
        });
        self
    }

    /// Schedules a crash of `node` at `at_ms` milliseconds of simulated time.
    pub fn crash_ms(self, node: NodeId, at_ms: u64) -> Self {
        self.crash(node, SimTime::ZERO + SimDuration::from_millis(at_ms))
    }

    /// Schedules a restart of `node` at `at`.
    pub fn restart(mut self, node: NodeId, at: SimTime) -> Self {
        self.events.push(ScheduledFault {
            at,
            kind: FaultKind::Restart(node),
        });
        self
    }

    /// Schedules a restart of `node` at `at_ms` milliseconds.
    pub fn restart_ms(self, node: NodeId, at_ms: u64) -> Self {
        self.restart(node, SimTime::ZERO + SimDuration::from_millis(at_ms))
    }

    /// Enables the LAN message-drop model with per-message probability `p`.
    pub fn message_drop(mut self, p: f64) -> Self {
        self.drop_probability = p;
        self
    }

    /// Adds a disk-stall window on `node` over `[from_ms, until_ms)` with the
    /// given service-time multiplier.
    pub fn disk_stall_ms(mut self, node: NodeId, from_ms: u64, until_ms: u64, factor: f64) -> Self {
        self.stalls.push(DiskStall {
            node,
            from: SimTime::ZERO + SimDuration::from_millis(from_ms),
            until: SimTime::ZERO + SimDuration::from_millis(until_ms),
            factor,
        });
        self
    }

    /// The scheduled events sorted by injection instant (stable, so two
    /// faults at the same instant keep their insertion order).
    pub fn events_in_order(&self) -> Vec<ScheduledFault> {
        let mut ev = self.events.clone();
        ev.sort_by_key(|e| e.at);
        ev
    }

    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.drop_probability == 0.0 && self.stalls.is_empty()
    }

    /// Checks the plan against a cluster of `nodes` nodes.
    pub fn validate(&self, nodes: usize) -> Result<(), &'static str> {
        if !(0.0..1.0).contains(&self.drop_probability) {
            return Err("message-drop probability must be in [0, 1)");
        }
        if self.drop_probability > 0.0 && self.retransmit <= SimDuration::ZERO {
            return Err("retransmission back-off must be positive");
        }
        for e in &self.events {
            if e.kind.node().index() >= nodes {
                return Err("fault event targets an unknown node");
            }
        }
        let crashes = self
            .events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Crash(_)))
            .count();
        if crashes >= nodes && nodes > 0 {
            // Conservative static check: crashing every node (even at
            // different times, without restarts in between) could leave the
            // cluster empty, which the degradation machinery cannot survive.
            let restarts = self
                .events
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::Restart(_)))
                .count();
            if restarts == 0 {
                return Err("plan would crash every node with no restarts");
            }
        }
        for s in &self.stalls {
            if s.node.index() >= nodes {
                return Err("disk stall targets an unknown node");
            }
            if s.factor < 1.0 || !s.factor.is_finite() {
                return Err("disk-stall factor must be a finite value ≥ 1");
            }
            if s.from >= s.until {
                return Err("disk-stall window must have positive length");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_and_orders_events() {
        let plan = FaultPlan::new(1)
            .restart_ms(NodeId(1), 200)
            .crash_ms(NodeId(1), 100);
        let ev = plan.events_in_order();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].kind, FaultKind::Crash(NodeId(1)));
        assert_eq!(ev[1].kind, FaultKind::Restart(NodeId(1)));
        assert!(ev[0].at < ev[1].at);
    }

    #[test]
    fn validate_rejects_bad_plans() {
        assert!(FaultPlan::new(0).message_drop(1.0).validate(3).is_err());
        assert!(FaultPlan::new(0).message_drop(-0.1).validate(3).is_err());
        assert!(FaultPlan::new(0)
            .crash_ms(NodeId(5), 1)
            .validate(3)
            .is_err());
        assert!(FaultPlan::new(0)
            .disk_stall_ms(NodeId(0), 10, 10, 2.0)
            .validate(3)
            .is_err());
        assert!(FaultPlan::new(0)
            .disk_stall_ms(NodeId(0), 10, 20, 0.5)
            .validate(3)
            .is_err());
        assert!(FaultPlan::new(0)
            .crash_ms(NodeId(0), 1)
            .crash_ms(NodeId(1), 2)
            .crash_ms(NodeId(2), 3)
            .validate(3)
            .is_err());
    }

    #[test]
    fn validate_accepts_reasonable_plans() {
        let plan = FaultPlan::new(9)
            .crash_ms(NodeId(2), 100_000)
            .restart_ms(NodeId(2), 150_000)
            .message_drop(0.05)
            .disk_stall_ms(NodeId(1), 0, 5_000, 3.0);
        assert!(plan.validate(3).is_ok());
        assert!(!plan.is_empty());
        assert!(FaultPlan::new(0).is_empty());
    }
}
