//! Linear-program builder.

use crate::simplex::StandardForm;
use crate::solution::{LpError, Solution};

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ = b`
    Eq,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
}

#[derive(Debug, Clone)]
pub(crate) struct Row {
    pub coeffs: Vec<f64>, // dense over all variables
    pub rel: Relation,
    pub rhs: f64,
}

/// A minimization problem over non-negative, optionally box-bounded
/// variables. Lower bounds default to 0 and must be finite; upper bounds
/// default to +∞.
#[derive(Debug, Clone)]
pub struct Problem {
    n: usize,
    objective: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    rows: Vec<Row>,
}

impl Problem {
    /// Creates a minimization problem with `n` variables, zero objective,
    /// bounds `[0, +∞)`.
    pub fn minimize(n: usize) -> Self {
        Problem {
            n,
            objective: vec![0.0; n],
            lower: vec![0.0; n],
            upper: vec![f64::INFINITY; n],
            rows: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Sets the objective coefficient of variable `j`.
    pub fn set_objective(&mut self, j: usize, c: f64) {
        assert!(j < self.n, "variable index out of range");
        assert!(c.is_finite());
        self.objective[j] = c;
    }

    /// Sets both bounds of variable `j`. `lo` must be finite, `lo ≤ hi`.
    pub fn set_bounds(&mut self, j: usize, lo: f64, hi: f64) {
        assert!(j < self.n, "variable index out of range");
        assert!(lo.is_finite(), "lower bound must be finite");
        assert!(hi >= lo, "upper bound below lower bound");
        self.lower[j] = lo;
        self.upper[j] = hi;
    }

    /// Sets only the upper bound of variable `j`.
    pub fn set_upper_bound(&mut self, j: usize, hi: f64) {
        let lo = self.lower[j];
        self.set_bounds(j, lo, hi);
    }

    /// Adds the constraint `Σ terms rel rhs`. Terms may repeat a variable
    /// (coefficients accumulate).
    pub fn constraint(&mut self, terms: &[(usize, f64)], rel: Relation, rhs: f64) {
        assert!(rhs.is_finite());
        let mut coeffs = vec![0.0; self.n];
        for &(j, a) in terms {
            assert!(j < self.n, "variable index out of range");
            assert!(a.is_finite());
            coeffs[j] += a;
        }
        self.rows.push(Row { coeffs, rel, rhs });
    }

    /// Solves the problem. Returns the optimal solution, or an error if the
    /// feasible region is empty or the objective is unbounded below.
    pub fn solve(&self) -> Result<Solution, LpError> {
        // Quick bound sanity (empty box ⇒ infeasible before simplex).
        for j in 0..self.n {
            if self.lower[j] > self.upper[j] {
                return Err(LpError::Infeasible);
            }
        }
        if self.n == 0 {
            // Feasible iff every constraint holds with all-zero terms.
            for row in &self.rows {
                let ok = match row.rel {
                    Relation::Le => 0.0 <= row.rhs + 1e-9,
                    Relation::Eq => row.rhs.abs() <= 1e-9,
                    Relation::Ge => 0.0 >= row.rhs - 1e-9,
                };
                if !ok {
                    return Err(LpError::Infeasible);
                }
            }
            return Ok(Solution {
                x: vec![],
                objective: 0.0,
            });
        }
        let sf = StandardForm::build(self);
        sf.solve()
    }

    pub(crate) fn objective_coeffs(&self) -> &[f64] {
        &self.objective
    }
    pub(crate) fn lower_bounds(&self) -> &[f64] {
        &self.lower
    }
    pub(crate) fn upper_bounds(&self) -> &[f64] {
        &self.upper
    }
    pub(crate) fn rows(&self) -> &[Row] {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_duplicate_terms() {
        let mut p = Problem::minimize(2);
        p.constraint(&[(0, 1.0), (0, 2.0), (1, 1.0)], Relation::Le, 6.0);
        assert_eq!(p.rows()[0].coeffs, vec![3.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_index() {
        let mut p = Problem::minimize(1);
        p.set_objective(1, 1.0);
    }

    #[test]
    fn zero_variable_problem() {
        let p = Problem::minimize(0);
        let sol = p.solve().expect("trivially feasible");
        assert_eq!(sol.objective, 0.0);

        let mut p = Problem::minimize(0);
        p.constraint(&[], Relation::Ge, 1.0);
        assert_eq!(p.solve(), Err(LpError::Infeasible));
    }

    #[test]
    fn empty_box_is_infeasible() {
        let mut p = Problem::minimize(1);
        p.set_bounds(0, 2.0, 3.0);
        // Shrink via a second call to an empty interval is rejected by the
        // assert, so emulate contradictory constraints instead.
        p.constraint(&[(0, 1.0)], Relation::Le, 1.0);
        assert_eq!(p.solve(), Err(LpError::Infeasible));
    }
}
