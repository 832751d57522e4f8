//! # dmm-lp — two-phase primal simplex
//!
//! The ICDE'99 coordinator computes each new buffer partitioning by solving a
//! small linear program (paper §4):
//!
//! ```text
//! minimize    Σᵢ ā₀ᵢ · LMᵢ + c̄₀                 (predicted no-goal RT)
//! subject to  Σᵢ āₖᵢ · LMᵢ + c̄ₖ = RTᵏ_goal      (goal class hits its goal)
//!             0 ≤ LMᵢ ≤ SIZEᵢ − Σ_{l≠k} LM_{l,i}  (per-node capacity)
//! ```
//!
//! The paper links against `lp-solve` \[3\]; this crate is a from-scratch dense
//! implementation of the same algorithm family: a two-phase primal simplex
//! with Dantzig pricing and a Bland's-rule fallback for anti-cycling.
//!
//! It is the *reference oracle*, not the production solver. The program
//! above has one coupling equality and separable costs, so `dmm-core`
//! solves it in closed form by a sorted Lagrange threshold, and the `dmm`
//! library does not link this crate. The simplex formulation lives on in
//! `dmm-bench` (`solve_partitioning_simplex`), which the differential test
//! `tests/partition_oracle.rs` and the paper-faithful column of the
//! `table1` experiment of `dmm-repro` use.
//!
//! ```
//! use dmm_lp::{Problem, Relation};
//!
//! // minimize  -x - 2y   s.t.  x + y ≤ 4,  x ≤ 3,  y ≤ 2,  x,y ≥ 0
//! let mut p = Problem::minimize(2);
//! p.set_objective(0, -1.0);
//! p.set_objective(1, -2.0);
//! p.constraint(&[(0, 1.0), (1, 1.0)], Relation::Le, 4.0);
//! p.set_upper_bound(0, 3.0);
//! p.set_upper_bound(1, 2.0);
//! let sol = p.solve().unwrap();
//! assert!((sol.objective - (-6.0)).abs() < 1e-9); // x=2, y=2
//! ```

pub mod problem;
pub mod simplex;
pub mod solution;

pub use problem::{Problem, Relation};
pub use solution::{LpError, Solution};
