//! The §4 partitioning program as the paper solves it: a linear program
//! handed to a two-phase simplex (`dmm-lp`, standing in for lp-solve).
//!
//! Production solves the same program in closed form
//! ([`dmm::core::solve_partitioning`]). This formulation is kept as the
//! single reference for that solver: the differential test
//! `tests/partition_oracle.rs` checks the two against each other, and the
//! `table1` bin times it as the paper-faithful optimization column.

use dmm::core::optimize::{Objective, PartitionProblem, Partitioning, EPS_TIEBREAK};
use dmm_lp::{LpError, Problem, Relation};

/// Solves `p` with the simplex, falling back to the goal relaxation when
/// the equality constraint is infeasible within the capacity box.
pub fn solve_partitioning_simplex(p: &PartitionProblem<'_>) -> Result<Partitioning, LpError> {
    let n = p.avail_mb.len();
    assert_eq!(p.planes.class.dim(), n, "plane/node count mismatch");
    assert!(p.avail_mb.iter().all(|&a| a >= 0.0));
    let rhs = p.goal_ms - p.planes.class.c;

    match solve_exact(p, rhs, n) {
        Ok(x) => Ok(finish(p, x, true)),
        Err(LpError::Infeasible) => {
            let x = solve_relaxed(p, rhs, n)?;
            Ok(finish(p, x, false))
        }
        Err(e) => Err(e),
    }
}

fn objective_coeff(p: &PartitionProblem<'_>, i: usize) -> f64 {
    match p.objective {
        Objective::MinNoGoalRt => p.planes.nogoal.w[i] + EPS_TIEBREAK,
        Objective::MinTotalDedicated => 1.0,
        Objective::BalanceNodes => EPS_TIEBREAK, // handled via the max var
    }
}

/// Appends per-node deviation variables `dᵢ ≥ |xᵢ − currentᵢ|` with cost
/// `reallocation_penalty`, starting at column `base`.
fn add_stickiness(lp: &mut Problem, p: &PartitionProblem<'_>, base: usize) {
    if p.reallocation_penalty <= 0.0 {
        return;
    }
    for i in 0..p.current_mb.len() {
        lp.set_objective(base + i, p.reallocation_penalty);
        // dᵢ ≥ xᵢ − curᵢ  and  dᵢ ≥ curᵢ − xᵢ.
        lp.constraint(&[(i, 1.0), (base + i, -1.0)], Relation::Le, p.current_mb[i]);
        lp.constraint(
            &[(i, -1.0), (base + i, -1.0)],
            Relation::Le,
            -p.current_mb[i],
        );
    }
}

fn num_stickiness_vars(p: &PartitionProblem<'_>) -> usize {
    if p.reallocation_penalty > 0.0 {
        p.current_mb.len()
    } else {
        0
    }
}

fn solve_exact(p: &PartitionProblem<'_>, rhs: f64, n: usize) -> Result<Vec<f64>, LpError> {
    let extra = usize::from(p.objective == Objective::BalanceNodes);
    let sticky = num_stickiness_vars(p);
    let mut lp = Problem::minimize(n + extra + sticky);
    for i in 0..n {
        lp.set_objective(i, objective_coeff(p, i));
        lp.set_bounds(i, 0.0, p.avail_mb[i]);
    }
    if extra == 1 {
        // t ≥ xᵢ for all i; minimize t.
        lp.set_objective(n, 1.0);
        for i in 0..n {
            lp.constraint(&[(i, 1.0), (n, -1.0)], Relation::Le, 0.0);
        }
    }
    add_stickiness(&mut lp, p, n + extra);
    let terms: Vec<(usize, f64)> = p.planes.class.w.iter().copied().enumerate().collect();
    lp.constraint(&terms, Relation::Eq, rhs);
    let sol = lp.solve()?;
    Ok(sol.x[..n].to_vec())
}

fn solve_relaxed(p: &PartitionProblem<'_>, rhs: f64, n: usize) -> Result<Vec<f64>, LpError> {
    // Variables: x₀..x_{n−1}, u (over-shoot), v (under-shoot):
    //   ā·x + u − v = rhs, minimize big·(u + v) + primary objective.
    let big = 1e3;
    let sticky = num_stickiness_vars(p);
    let mut lp = Problem::minimize(n + 2 + sticky);
    for i in 0..n {
        lp.set_objective(i, objective_coeff(p, i).min(big / 10.0));
        lp.set_bounds(i, 0.0, p.avail_mb[i]);
    }
    lp.set_objective(n, big);
    lp.set_objective(n + 1, big);
    add_stickiness(&mut lp, p, n + 2);
    let mut terms: Vec<(usize, f64)> = p.planes.class.w.iter().copied().enumerate().collect();
    terms.push((n, 1.0));
    terms.push((n + 1, -1.0));
    lp.constraint(&terms, Relation::Eq, rhs);
    let sol = lp.solve()?;
    Ok(sol.x[..n].to_vec())
}

fn finish(p: &PartitionProblem<'_>, x: Vec<f64>, attainable: bool) -> Partitioning {
    let predicted_class_ms = p.planes.predict_class_ms(&x);
    let predicted_nogoal_ms = p.planes.predict_nogoal_ms(&x);
    Partitioning {
        alloc_mb: x,
        predicted_class_ms,
        predicted_nogoal_ms,
        goal_attainable: attainable,
    }
}
