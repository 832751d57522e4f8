//! Baseline controllers for the ablation experiments (paper §2's related
//! work, reimplemented under the same agent/coordinator plumbing).
//!
//! * **Fragment fencing** (Brown et al., VLDB'93 \[5\]): "assumes a direct
//!   proportionality between the buffer space and the response time" — the
//!   next buffer size solves a linear response-time-vs-buffer model fitted
//!   through the last two observations (`fragment_fencing`).
//! * **Class fencing** (Brown et al., SIGMOD'96 \[6\]): "only assumes a
//!   proportionality between the miss rate and the response time. The
//!   necessary dependency between the miss rate and the buffer space is
//!   derived by a linear extrapolation of previously measured values" —
//!   strict RT ∝ miss proportionality chained with a measured linear
//!   miss(buffer) extrapolation (`class_fencing`).
//! * **Static** / **None**: fixed partitioning at start-up resp. a single
//!   shared pool; their coordinators check but never reallocate.
//!
//! The coordinator owns the fencing baselines' two-point model and calls
//! their steps from its one `match` over [`ControllerKind`]. Both were
//! designed for a single server; the paper's §2 observes exactly this
//! limitation. The N-node generalization here splits the computed aggregate
//! buffer equally across nodes — the natural naive lift, and the thing the
//! paper's per-node LP improves on.

use crate::coordinator::distribute_delta;
use crate::optimize::Objective;

/// Which controller a simulation runs (per goal class).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControllerKind {
    /// The paper's hyperplane + LP method.
    Hyperplane {
        /// LP objective.
        objective: Objective,
    },
    /// Fragment fencing \[5\], equal-split across nodes.
    FragmentFencing,
    /// Class fencing \[6\], equal-split across nodes.
    ClassFencing,
    /// A fixed fraction of every node's buffer dedicated at start-up.
    Static {
        /// Fraction of each node's buffer dedicated to each goal class.
        fraction: f64,
    },
    /// No dedicated pools at all: one shared pool per node.
    None,
}

impl Default for ControllerKind {
    fn default() -> Self {
        ControllerKind::Hyperplane {
            objective: Objective::MinNoGoalRt,
        }
    }
}

/// Two-point linear model through the most recent distinct observations.
#[derive(Debug, Clone, Default)]
pub(crate) struct TwoPoint {
    points: Vec<(f64, f64)>, // (x, y), at most 2, newest last
}

impl TwoPoint {
    fn push(&mut self, x: f64, y: f64) {
        if let Some(last) = self.points.last_mut() {
            if (last.0 - x).abs() < 1e-9 {
                last.1 = 0.5 * (last.1 + y); // same x: refresh y
                return;
            }
        }
        self.points.push((x, y));
        if self.points.len() > 2 {
            self.points.remove(0);
        }
    }

    /// Slope dy/dx if two distinct points exist.
    fn slope(&self) -> Option<f64> {
        match self.points.as_slice() {
            [(x1, y1), (x2, y2)] => Some((y2 - y1) / (x2 - x1)),
            _ => None,
        }
    }
}

/// One fragment-fencing step: `rt_of_buf` is the linear RT(buffer) model,
/// fed the current total and `rt_ms`; returns the new per-node allocation.
pub(crate) fn fragment_fencing(
    rt_of_buf: &mut TwoPoint,
    goal_ms: f64,
    rt_ms: f64,
    granted_mb: &[f64],
    avail_mb: &[f64],
    node_size_mb: f64,
) -> Vec<f64> {
    let total: f64 = granted_mb.iter().sum();
    rt_of_buf.push(total, rt_ms);
    // RT assumed linear (decreasing) in buffer. Without a usable slope,
    // assume the goal-to-observed ratio scales the buffer directly (the
    // "direct proportionality" of [5]).
    let slope = match rt_of_buf.slope() {
        Some(s) if s < -1e-9 => s,
        _ => -rt_ms / (total.max(0.25 * node_size_mb)),
    };
    let needed = total + (goal_ms - rt_ms) / slope;
    let needed = bounded_step(total, needed, avail_mb, node_size_mb);
    equal_split(needed, avail_mb)
}

/// One class-fencing step: `miss_of_buf` is the linear miss(buffer)
/// extrapolation, fed the current total and `miss_rate`; returns the new
/// per-node allocation, or `None` when no miss-rate data exists (the class
/// had no pool traffic this interval).
pub(crate) fn class_fencing(
    miss_of_buf: &mut TwoPoint,
    goal_ms: f64,
    rt_ms: f64,
    miss_rate: Option<f64>,
    granted_mb: &[f64],
    avail_mb: &[f64],
    node_size_mb: f64,
) -> Option<Vec<f64>> {
    let miss = miss_rate?;
    let total: f64 = granted_mb.iter().sum();
    miss_of_buf.push(total, miss);

    // §2: class fencing "only assumes a proportionality between the miss
    // rate and the response time" — RT = α·miss with α taken from the
    // current observation. (An affine two-point RT(miss) model would
    // collapse into fragment fencing: chaining two linear interpolants
    // through the same two observations reproduces the direct one.)
    let alpha = rt_ms / miss.max(1e-3);
    let target_miss = (goal_ms / alpha).clamp(0.0, 1.0);

    // miss(buffer) linear; default: doubling the buffer removes all
    // misses (optimistic first guess, corrected by feedback).
    let miss_slope = match miss_of_buf.slope() {
        Some(s) if s < -1e-9 => s,
        _ => -miss / total.max(0.25 * node_size_mb),
    };
    let needed = total + (target_miss - miss) / miss_slope;
    let needed = bounded_step(total, needed, avail_mb, node_size_mb);
    Some(equal_split(needed, avail_mb))
}

/// The fencing baselines' equal split of an aggregate: the water-fill from
/// nothing.
fn equal_split(total_mb: f64, avail_mb: &[f64]) -> Vec<f64> {
    distribute_delta(&vec![0.0; avail_mb.len()], avail_mb, total_mb)
}

/// Both fencing papers bound how far a single extrapolation may move the
/// allocation (class fencing via the concave hit-rate envelope, fragment
/// fencing by re-estimating every interval): per step, at most double (plus
/// one minimal pool) and at least halve.
fn bounded_step(total: f64, needed: f64, avail_mb: &[f64], node_size_mb: f64) -> f64 {
    let max_total: f64 = avail_mb.iter().sum();
    let hi = (2.0 * total + 0.25 * node_size_mb).min(max_total);
    let lo = 0.5 * total;
    needed.clamp(0.0, max_total).clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_split_waterfills() {
        let alloc = equal_split(3.0, &[2.0, 2.0, 2.0]);
        for a in &alloc {
            assert!((a - 1.0).abs() < 1e-9);
        }
        // Clamped node spills to the others.
        let alloc = equal_split(3.0, &[0.5, 2.0, 2.0]);
        assert!((alloc[0] - 0.5).abs() < 1e-9);
        assert!((alloc[1] - 1.25).abs() < 1e-9);
        assert!((alloc[2] - 1.25).abs() < 1e-9);
        // Demand beyond capacity saturates.
        let alloc = equal_split(100.0, &[1.0, 1.0]);
        assert!((alloc.iter().sum::<f64>() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fragment_fencing_grows_buffer_when_slow() {
        let mut s = TwoPoint::default();
        let avail = [2.0, 2.0, 2.0];
        let granted = [0.5, 0.5, 0.5];
        // RT 10 vs goal 5: proportionality heuristic doubles the buffer.
        let alloc = fragment_fencing(&mut s, 5.0, 10.0, &granted, &avail, 2.0);
        let total: f64 = alloc.iter().sum();
        assert!(total > 1.5, "should grow: {total}");
    }

    #[test]
    fn fragment_fencing_uses_measured_slope() {
        let mut s = TwoPoint::default();
        let avail = [4.0, 4.0];
        // First observation at 1 MB → heuristic.
        fragment_fencing(&mut s, 5.0, 10.0, &[0.5, 0.5], &avail, 2.0);
        // Second at 2 MB with RT 8: slope = −2 ms/MB; to reach 5 needs
        // 2 + 3/2 = 3.5 MB.
        let alloc = fragment_fencing(&mut s, 5.0, 8.0, &[1.0, 1.0], &avail, 2.0);
        let total: f64 = alloc.iter().sum();
        assert!((total - 3.5).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn fragment_fencing_shrinks_when_fast() {
        let mut s = TwoPoint::default();
        let avail = [2.0, 2.0];
        fragment_fencing(&mut s, 5.0, 10.0, &[0.5, 0.5], &avail, 2.0);
        // Now too fast: RT 2 vs goal 5 at 2 MB → slope (2−10)/(2−1) = −8;
        // needed = 2 + 3/−8 < 2.
        let alloc = fragment_fencing(&mut s, 5.0, 2.0, &[1.0, 1.0], &avail, 2.0);
        let total: f64 = alloc.iter().sum();
        assert!(total < 2.0, "should shrink: {total}");
    }

    #[test]
    fn class_fencing_needs_miss_data() {
        let mut s = TwoPoint::default();
        assert!(class_fencing(&mut s, 5.0, 10.0, None, &[0.5], &[2.0], 2.0).is_none());
    }

    #[test]
    fn class_fencing_converges_on_linear_system() {
        // Ground truth: miss(B) = 0.8 − 0.2·B, RT = 20·miss.
        let miss_of = |b: f64| (0.8 - 0.2 * b).clamp(0.0, 1.0);
        let rt_of = |b: f64| 20.0 * miss_of(b);
        let goal = 6.0; // ⇒ miss* = 0.3 ⇒ B* = 2.5
        let mut s = TwoPoint::default();
        let avail = [4.0, 4.0];
        let mut b = 1.0;
        for _ in 0..6 {
            let granted = [b / 2.0, b / 2.0];
            let alloc = class_fencing(
                &mut s,
                goal,
                rt_of(b),
                Some(miss_of(b)),
                &granted,
                &avail,
                4.0,
            )
            .expect("suggests");
            b = alloc.iter().sum();
        }
        assert!((b - 2.5).abs() < 0.1, "converged to {b}");
    }

    #[test]
    fn controller_kind_default_is_the_paper() {
        assert_eq!(
            ControllerKind::default(),
            ControllerKind::Hyperplane {
                objective: Objective::MinNoGoalRt
            }
        );
    }
}
