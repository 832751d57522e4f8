//! The optimization phase (paper §4): choose the new per-node allocation.
//!
//! Primary program (the paper's):
//!
//! ```text
//! minimize    Σᵢ ā₀ᵢ xᵢ  (+ ε·Σᵢ xᵢ tie-break)  (+ ρ·Σᵢ |xᵢ − curᵢ| stickiness)
//! subject to  Σᵢ āₖᵢ xᵢ = RTᵏ_goal − c̄ₖ
//!             0 ≤ xᵢ ≤ availᵢ
//! ```
//!
//! where `availᵢ = SIZEᵢ − Σ_{l≠k} LM_{l,i}` (Eq. 6). When the equality is
//! unattainable inside the box — the goal is tighter than the fully-dedicated
//! prediction, or looser than the zero-dedication prediction — the paper's
//! feedback loop still needs *some* new partitioning that "at least reduces
//! the difference between its mean response time and its goal". We solve the
//! standard goal-programming relaxation: minimize `big·|ā·x − rhs|` plus the
//! primary costs (each capped at `big/10`), breaking ties toward the primary
//! objective.
//!
//! The ε tie-break keeps the solution unique when the no-goal gradient is
//! flat (all-zero after clamping), preferring the least dedicated memory.
//!
//! The paper hands this to an LP solver; it needs none. Split every node
//! into linear pieces `j` (cost `cⱼ` per MB, class gradient `wⱼ`,
//! `0 ≤ yⱼ ≤ uⱼ`). At Lagrange multiplier λ a piece is full iff its reduced
//! cost `cⱼ − λwⱼ` is negative, and `Σ wⱼyⱼ` only grows with λ, so sweeping
//! the breakpoints `cⱼ/wⱼ` upward finds where it crosses `rhs`; the piece at
//! the crossing takes the fractional amount, and the goal is attainable iff
//! the sweep crosses. The relaxation is the same sweep with λ clipped to
//! `[−big, big]`; the slack absorbs what the clipped end leaves.
//! Stickiness splits a node into `[0, min(curᵢ, availᵢ)]` at `cᵢ − ρ` and
//! the rest at `cᵢ + ρ`. [`Objective::BalanceNodes`] ternary-searches the
//! convex level cost `t + G(t)`, `G` the sweep with caps `min(availᵢ, t)`.
//! Equal breakpoints flip in node order, so with negative gradients the
//! higher-indexed of two tied nodes keeps the memory. (Exact ties come from
//! the fit's repair: shared class gradients, zero no-goal gradients. The
//! simplex, kept as this solver's test oracle, resolved them by its pivoting
//! path.)
//!
//! The program is metric-agnostic: `RTᵏ` is whatever statistic the
//! coordinator measured and fit the planes through. For a mean goal that is
//! the λ-weighted interval mean; for a quantile goal it is the
//! merged-histogram goal quantile (e.g. p95), so
//! [`Partitioning::predicted_class_ms`] predicts the *quantile* at the new
//! allocation. Fitting a hyperplane through observed quantiles is sound for
//! the same reason it is for means: more dedicated memory monotonically
//! improves the response-time distribution, so the quantile is monotone in
//! each node's allocation and locally well-approximated by the plane the
//! measure points span.

use crate::approx::Planes;

/// What the optimization minimizes (the paper's choice plus the §8 "other
/// objective functions" extensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Minimize the predicted no-goal response time (the paper's §4 choice).
    #[default]
    MinNoGoalRt,
    /// Minimize total dedicated memory (ignore the no-goal plane).
    MinTotalDedicated,
    /// Spread the dedication evenly: minimize the largest per-node
    /// allocation (motivated by §8's per-node variation goals).
    BalanceNodes,
}

/// One §4 partitioning problem.
#[derive(Debug, Clone)]
pub struct PartitionProblem<'a> {
    /// Fitted response-time planes.
    pub planes: &'a Planes,
    /// The class's response time goal in ms.
    pub goal_ms: f64,
    /// Per-node available memory for this class in MB
    /// (`SIZEᵢ − Σ_{l≠k} LM_{l,i}`).
    pub avail_mb: &'a [f64],
    /// The allocation currently in force (MB per node).
    pub current_mb: &'a [f64],
    /// Reallocation stickiness: penalty in ms/MB on `|x − current|`, well
    /// below the real gradients (0 disables).
    pub reallocation_penalty: f64,
    /// Objective variant.
    pub objective: Objective,
}

/// Result of the optimization phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Partitioning {
    /// New dedicated buffer per node, MB.
    pub alloc_mb: Vec<f64>,
    /// Predicted goal-class response time at this allocation.
    pub predicted_class_ms: f64,
    /// Predicted no-goal response time at this allocation.
    pub predicted_nogoal_ms: f64,
    /// True if the goal equality was attainable (false ⇒ relaxed solution).
    pub goal_attainable: bool,
}

/// Why a partitioning problem has no answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionError {
    /// The goal, a plane coefficient, an availability or a current
    /// allocation is NaN or infinite.
    NonFinite,
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("partitioning input is not finite")
    }
}

impl std::error::Error for PartitionError {}

/// Tie-break weight on Σx, small against the ms-per-MB gradients (~0.1–100).
pub const EPS_TIEBREAK: f64 = 1e-6;

/// Weight of the goal violation in the relaxation; the multiplier is
/// clipped to `[−RELAX_WEIGHT, RELAX_WEIGHT]` and primary costs are capped
/// at a tenth of it.
const RELAX_WEIGHT: f64 = 1e3;

/// The equality counts as met when the sweep ends within this fraction of
/// `Σ |wⱼ|·uⱼ` of the right-hand side: rounding in the running sum, not a
/// modelling tolerance.
const ATTAIN_TOL: f64 = 1e-12;

/// Solves the §4 program, falling back to the goal relaxation when the
/// equality constraint is infeasible within the capacity box.
pub fn solve_partitioning(p: &PartitionProblem<'_>) -> Result<Partitioning, PartitionError> {
    let n = p.avail_mb.len();
    assert_eq!(p.planes.class.dim(), n, "plane/node count mismatch");
    assert_eq!(p.current_mb.len(), n, "current/node count mismatch");
    let (class, nogoal) = (&p.planes.class, &p.planes.nogoal);
    let scalars = [p.goal_ms, class.c, nogoal.c];
    let inputs = [&scalars[..], &class.w, &nogoal.w, p.avail_mb, p.current_mb];
    if !inputs.into_iter().flatten().all(|x| x.is_finite()) {
        return Err(PartitionError::NonFinite);
    }
    assert!(p.avail_mb.iter().all(|&a| a >= 0.0));
    let rhs = p.goal_ms - class.c;

    let exact = if p.objective == Objective::BalanceNodes {
        solve_balanced(p, rhs)
    } else {
        let mut k = Knapsack::new(p, |i| objective_coeff(p, i), f64::MAX);
        k.solve(p, f64::INFINITY, rhs).then(|| k.alloc())
    };
    let (x, attainable) = match exact {
        Some(x) => (x, true),
        None => {
            let capped = |i| objective_coeff(p, i).min(RELAX_WEIGHT / 10.0);
            let mut k = Knapsack::new(p, capped, RELAX_WEIGHT);
            k.solve(p, f64::INFINITY, rhs);
            (k.alloc(), false)
        }
    };
    Ok(Partitioning {
        predicted_class_ms: p.planes.predict_class_ms(&x),
        predicted_nogoal_ms: p.planes.predict_nogoal_ms(&x),
        alloc_mb: x,
        goal_attainable: attainable,
    })
}

fn objective_coeff(p: &PartitionProblem<'_>, i: usize) -> f64 {
    match p.objective {
        Objective::MinNoGoalRt => p.planes.nogoal.w[i] + EPS_TIEBREAK,
        Objective::MinTotalDedicated => 1.0,
        Objective::BalanceNodes => EPS_TIEBREAK, // plus the level t
    }
}

/// `BalanceNodes`: minimize `t + G(t)` over the level `t ≥ max xᵢ`, or
/// `None` when the equality is unattainable even at full availability.
/// `G` is convex and infinite below the least feasible level, so an
/// infeasible probe always moves the lower end.
fn solve_balanced(p: &PartitionProblem<'_>, rhs: f64) -> Option<Vec<f64>> {
    let mut k = Knapsack::new(p, |_| EPS_TIEBREAK, f64::MAX);
    let mut level_cost = |t: f64| k.solve(p, t, rhs).then(|| t + k.cost());
    let top = p.avail_mb.iter().fold(0.0, |m: f64, &a| m.max(a));
    level_cost(top)?;
    let (mut lo, mut hi) = (0.0, top);
    for _ in 0..200 {
        if hi - lo <= 1e-15 * hi {
            break;
        }
        let (m1, m2) = (lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0);
        match (level_cost(m1), level_cost(m2)) {
            (Some(f1), Some(f2)) if f1 <= f2 => hi = m2,
            _ => lo = m1,
        }
    }
    let hi_cost = level_cost(hi)?;
    let t = match level_cost(lo) {
        Some(f) if f <= hi_cost => lo,
        _ => hi,
    };
    k.solve(p, t, rhs).then(|| k.alloc())
}

/// One linear piece of a node's cost: `cost` per MB on `0 ≤ y ≤ cap`,
/// contributing `w·y` to the goal equality.
#[derive(Debug, Clone, Copy)]
struct Piece {
    w: f64,
    cost: f64,
    /// Breakpoint `cost / w`: the multiplier at which the piece flips.
    beta: f64,
    cap: f64,
    y: f64,
}

/// The separable program `min Σ cⱼyⱼ  s.t.  Σ wⱼyⱼ = r,  0 ≤ yⱼ ≤ uⱼ` over
/// the pieces of every node, with the multiplier confined to
/// `[−lambda_max, lambda_max]` (`f64::MAX`: unconfined).
struct Knapsack {
    /// `per_node` consecutive pieces for each node.
    pieces: Vec<Piece>,
    per_node: usize,
    /// The pieces that flip inside the multiplier range, by ascending
    /// breakpoint, ties by index.
    order: Vec<usize>,
    lambda_max: f64,
}

impl Knapsack {
    fn new(p: &PartitionProblem<'_>, cost: impl Fn(usize) -> f64, lambda_max: f64) -> Self {
        let rho = p.reallocation_penalty;
        let offsets: &[f64] = if rho > 0.0 { &[-rho, rho] } else { &[0.0] };
        let mut pieces = Vec::with_capacity(offsets.len() * p.avail_mb.len());
        for (i, &w) in p.planes.class.w.iter().enumerate() {
            for off in offsets {
                let cost = cost(i) + off;
                pieces.push(Piece {
                    w,
                    cost,
                    beta: cost / w,
                    cap: 0.0,
                    y: 0.0,
                });
            }
        }
        let mut order: Vec<usize> = (0..pieces.len())
            .filter(|&j| {
                let pc = &pieces[j];
                pc.w != 0.0 && pc.beta >= -lambda_max && pc.beta < lambda_max
            })
            .collect();
        order.sort_unstable_by(|&a, &b| pieces[a].beta.total_cmp(&pieces[b].beta).then(a.cmp(&b)));
        Knapsack {
            pieces,
            per_node: offsets.len(),
            order,
            lambda_max,
        }
    }

    /// Solves with every node capped at `min(availᵢ, level)`; false when
    /// the equality is not met (the pieces then hold the state at the
    /// clipped end of the multiplier range).
    fn solve(&mut self, p: &PartitionProblem<'_>, level: f64, r: f64) -> bool {
        let nodes = self.pieces.chunks_mut(self.per_node);
        for ((node, &a), &cur) in nodes.zip(p.avail_mb).zip(p.current_mb) {
            let cap = a.min(level);
            if let [below, above] = node {
                below.cap = cur.max(0.0).min(cap);
                above.cap = cap - below.cap;
            } else {
                node[0].cap = cap;
            }
        }
        self.sweep(r)
    }

    /// The threshold sweep: start every piece at the bound its reduced cost
    /// picks at λ = −lambda_max, then flip pieces in breakpoint order until
    /// `Σ wⱼyⱼ` reaches `r`.
    fn sweep(&mut self, r: f64) -> bool {
        let (mut s, mut scale) = (0.0, 0.0);
        for pc in &mut self.pieces {
            let full = pc.cost + self.lambda_max * pc.w < 0.0;
            pc.y = if full { pc.cap } else { 0.0 };
            s += pc.w * pc.y;
            scale += pc.w.abs() * pc.cap;
        }
        let tol = ATTAIN_TOL * (1.0 + scale);
        if s > r {
            return s - r <= tol;
        }
        for &j in &self.order {
            let pc = &mut self.pieces[j];
            let step = pc.w.abs() * pc.cap;
            if s + step >= r {
                // The marginal piece takes the fractional amount.
                let part = ((r - s) / pc.w.abs()).min(pc.cap);
                pc.y = if pc.w > 0.0 { part } else { pc.cap - part };
                return true;
            }
            pc.y = if pc.w > 0.0 { pc.cap } else { 0.0 };
            s += step;
        }
        r - s <= tol
    }

    /// `Σ cⱼyⱼ` of the last solve.
    fn cost(&self) -> f64 {
        self.pieces.iter().map(|pc| pc.cost * pc.y).sum()
    }

    /// Per-node allocation of the last solve.
    fn alloc(&self) -> Vec<f64> {
        let nodes = self.pieces.chunks(self.per_node);
        nodes.map(|node| node.iter().map(|pc| pc.y).sum()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::Planes;
    use dmm_linalg::Hyperplane;

    fn planes(w_k: Vec<f64>, c_k: f64, w_0: Vec<f64>, c_0: f64) -> Planes {
        Planes {
            class: Hyperplane { w: w_k, c: c_k },
            nogoal: Hyperplane { w: w_0, c: c_0 },
        }
    }

    #[test]
    fn meets_goal_minimizing_nogoal_damage() {
        // RT_k = 20 − 2x₁ − 2x₂ (both nodes equally effective);
        // RT_0 = 3 + 5x₁ + 1x₂ (node 1 hurts the no-goal class more).
        let pl = planes(vec![-2.0, -2.0], 20.0, vec![5.0, 1.0], 3.0);
        let avail = [2.0, 2.0];
        let sol = solve_partitioning(&PartitionProblem {
            planes: &pl,
            goal_ms: 16.0,
            avail_mb: &avail,
            current_mb: &vec![0.0; avail.len()],
            reallocation_penalty: 0.0,
            objective: Objective::MinNoGoalRt,
        })
        .expect("feasible");
        assert!(sol.goal_attainable);
        // Needs Σ2x = 4 → 2 MB total, all on node 2 (cheaper for no-goal).
        assert!((sol.alloc_mb[0] - 0.0).abs() < 1e-6);
        assert!((sol.alloc_mb[1] - 2.0).abs() < 1e-6);
        assert!((sol.predicted_class_ms - 16.0).abs() < 1e-6);
    }

    #[test]
    fn unattainably_tight_goal_saturates_memory() {
        // Even full dedication predicts 12 ms; goal 5 ms.
        let pl = planes(vec![-2.0, -2.0], 20.0, vec![1.0, 1.0], 3.0);
        let avail = [2.0, 2.0];
        let sol = solve_partitioning(&PartitionProblem {
            planes: &pl,
            goal_ms: 5.0,
            avail_mb: &avail,
            current_mb: &vec![0.0; avail.len()],
            reallocation_penalty: 0.0,
            objective: Objective::MinNoGoalRt,
        })
        .expect("relaxation solves");
        assert!(!sol.goal_attainable);
        assert!((sol.alloc_mb[0] - 2.0).abs() < 1e-6);
        assert!((sol.alloc_mb[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn overly_loose_goal_releases_memory() {
        // Zero dedication predicts 8 ms; goal 15 ms cannot be "reached" from
        // below, so the relaxation gives back everything.
        let pl = planes(vec![-2.0, -2.0], 8.0, vec![1.0, 1.0], 3.0);
        let avail = [2.0, 2.0];
        let sol = solve_partitioning(&PartitionProblem {
            planes: &pl,
            goal_ms: 15.0,
            avail_mb: &avail,
            current_mb: &vec![0.0; avail.len()],
            reallocation_penalty: 0.0,
            objective: Objective::MinNoGoalRt,
        })
        .expect("relaxation solves");
        assert!(!sol.goal_attainable);
        assert!(sol.alloc_mb.iter().all(|&x| x < 1e-6));
    }

    #[test]
    fn respects_per_node_availability() {
        let pl = planes(vec![-4.0, -4.0], 20.0, vec![1.0, 1.0], 3.0);
        // Node 1 almost full with other classes.
        let avail = [0.25, 2.0];
        let sol = solve_partitioning(&PartitionProblem {
            planes: &pl,
            goal_ms: 12.0, // needs Σ4x = 8 → 2 MB total
            avail_mb: &avail,
            current_mb: &vec![0.0; avail.len()],
            reallocation_penalty: 0.0,
            objective: Objective::MinNoGoalRt,
        })
        .expect("feasible");
        assert!(sol.alloc_mb[0] <= 0.25 + 1e-9);
        let total: f64 = sol.alloc_mb.iter().sum();
        assert!((total - 2.0).abs() < 1e-6);
    }

    #[test]
    fn flat_nogoal_plane_prefers_less_memory() {
        // No-goal gradient all clamped to zero: the ε tie-break must pick
        // the cheapest allocation satisfying the equality.
        let pl = planes(vec![-1.0, -4.0], 20.0, vec![0.0, 0.0], 3.0);
        let avail = [2.0, 2.0];
        let sol = solve_partitioning(&PartitionProblem {
            planes: &pl,
            goal_ms: 16.0, // x₁ + 4x₂ = 4
            avail_mb: &avail,
            current_mb: &vec![0.0; avail.len()],
            reallocation_penalty: 0.0,
            objective: Objective::MinNoGoalRt,
        })
        .expect("feasible");
        // 1 MB on node 2 beats 4 MB worth on node 1 (which exceeds avail
        // anyway).
        assert!((sol.alloc_mb[1] - 1.0).abs() < 1e-6);
        assert!(sol.alloc_mb[0] < 1e-6);
    }

    #[test]
    fn balance_objective_spreads_allocation() {
        let pl = planes(vec![-2.0, -2.0, -2.0], 20.0, vec![1.0, 1.0, 1.0], 3.0);
        let avail = [2.0, 2.0, 2.0];
        let sol = solve_partitioning(&PartitionProblem {
            planes: &pl,
            goal_ms: 14.0, // Σ2x = 6 → 3 MB total
            avail_mb: &avail,
            current_mb: &vec![0.0; avail.len()],
            reallocation_penalty: 0.0,
            objective: Objective::BalanceNodes,
        })
        .expect("feasible");
        // Minimizing the max allocation under a symmetric constraint gives
        // the even split.
        for x in &sol.alloc_mb {
            assert!((x - 1.0).abs() < 1e-5, "{:?}", sol.alloc_mb);
        }
    }

    #[test]
    fn min_total_dedicated_objective() {
        let pl = planes(vec![-1.0, -2.0], 20.0, vec![9.0, 1.0], 3.0);
        let avail = [4.0, 4.0];
        let sol = solve_partitioning(&PartitionProblem {
            planes: &pl,
            goal_ms: 16.0, // x₁ + 2x₂ = 4
            avail_mb: &avail,
            current_mb: &vec![0.0; avail.len()],
            reallocation_penalty: 0.0,
            objective: Objective::MinTotalDedicated,
        })
        .expect("feasible");
        // Cheapest total memory: 2 MB on node 2 (its slope is steeper).
        assert!((sol.alloc_mb[1] - 2.0).abs() < 1e-6);
        assert!(sol.alloc_mb[0] < 1e-6);
    }

    #[test]
    fn positive_class_gradient_noise_still_terminates() {
        // Noisy fit claims more memory *hurts* the class; the equality is
        // then infeasible for a tighter goal and the relaxation must still
        // return something sensible (here: x = 0 minimizes the violation).
        let pl = planes(vec![0.5, 0.3], 10.0, vec![1.0, 1.0], 3.0);
        let avail = [2.0, 2.0];
        let sol = solve_partitioning(&PartitionProblem {
            planes: &pl,
            goal_ms: 8.0,
            avail_mb: &avail,
            current_mb: &vec![0.0; avail.len()],
            reallocation_penalty: 0.0,
            objective: Objective::MinNoGoalRt,
        })
        .expect("relaxation solves");
        assert!(!sol.goal_attainable);
        assert!(sol.alloc_mb.iter().all(|&x| x < 1e-6));
    }

    /// One pinned case of the documented tie-break and stickiness
    /// behaviour: the allocation the solver must return.
    struct Pinned {
        name: &'static str,
        w_k: [f64; 3],
        w_0: [f64; 3],
        current: [f64; 3],
        rho: f64,
        objective: Objective,
        expect: [f64; 3],
    }

    #[test]
    fn pinned_tie_breaks_and_stickiness() {
        // Every row: RT_k = 20 + w_k·x, goal 14 ms, 2 MB available per node.
        let rows = [
            Pinned {
                // Equal breakpoints flip in node order: every node starts
                // full and node 0 gives its memory up first.
                name: "symmetric, no stickiness",
                w_k: [-2.0, -2.0, -2.0],
                w_0: [1.0, 1.0, 1.0],
                current: [0.0, 0.0, 0.0],
                rho: 0.0,
                objective: Objective::MinNoGoalRt,
                expect: [0.0, 1.0, 2.0],
            },
            Pinned {
                // Memory above the current split is released first; the
                // 0.5 MB of growth lands by the same node-order rule.
                name: "symmetric, stickiness",
                w_k: [-2.0, -2.0, -2.0],
                w_0: [1.0, 1.0, 1.0],
                current: [1.5, 0.5, 0.5],
                rho: 0.02,
                objective: Objective::MinNoGoalRt,
                expect: [1.5, 0.5, 1.0],
            },
            Pinned {
                // Stickiness never overrides a real preference: nodes 1
                // and 2 buy twice the response time per MB of node 0.
                name: "total dedicated, stickiness",
                w_k: [-1.0, -2.0, -2.0],
                w_0: [9.0, 1.0, 1.0],
                current: [2.0, 0.0, 0.0],
                rho: 0.02,
                objective: Objective::MinTotalDedicated,
                expect: [0.0, 1.0, 2.0],
            },
            Pinned {
                // The level's unit cost outweighs the penalty: even split.
                name: "balance, stickiness",
                w_k: [-2.0, -2.0, -2.0],
                w_0: [1.0, 1.0, 1.0],
                current: [1.5, 1.0, 0.5],
                rho: 0.02,
                objective: Objective::BalanceNodes,
                expect: [1.0, 1.0, 1.0],
            },
        ];
        for row in &rows {
            let pl = planes(row.w_k.to_vec(), 20.0, row.w_0.to_vec(), 3.0);
            let sol = solve_partitioning(&PartitionProblem {
                planes: &pl,
                goal_ms: 14.0,
                avail_mb: &[2.0; 3],
                current_mb: &row.current,
                reallocation_penalty: row.rho,
                objective: row.objective,
            })
            .expect("finite");
            assert!(sol.goal_attainable, "{}", row.name);
            for (x, e) in sol.alloc_mb.iter().zip(&row.expect) {
                assert!((x - e).abs() < 1e-9, "{}: {:?}", row.name, sol.alloc_mb);
            }
        }
    }

    #[test]
    fn non_finite_inputs_are_rejected() {
        let good = planes(vec![-2.0, -2.0], 20.0, vec![1.0, 1.0], 3.0);
        let nan_w = planes(vec![-2.0, f64::NAN], 20.0, vec![1.0, 1.0], 3.0);
        let cases: [(&Planes, f64, [f64; 2]); 3] = [
            (&good, f64::NAN, [2.0, 2.0]),
            (&good, 16.0, [2.0, f64::INFINITY]),
            (&nan_w, 16.0, [2.0, 2.0]),
        ];
        for (pl, goal, avail) in cases {
            let err = solve_partitioning(&PartitionProblem {
                planes: pl,
                goal_ms: goal,
                avail_mb: &avail,
                current_mb: &[0.0, 0.0],
                reallocation_penalty: 0.02,
                objective: Objective::MinNoGoalRt,
            });
            assert_eq!(err, Err(PartitionError::NonFinite));
        }
    }
}
