//! Differential test of the closed-form §4 partitioning solver against the
//! two-phase simplex formulation of the same program.
//!
//! Seeded random instances cover N ∈ [1, 64], mixed-sign class and no-goal
//! gradients, nodes with nothing available, current allocations above the
//! availability, stickiness on and off, all three objectives, and goals
//! inside, above and below the attainable band. One instance in five is
//! degenerate the way the coordinator's repaired fits are: one class
//! gradient shared by every node and no-goal gradients clamped to zero, so
//! the optimum is a tie. On every instance the two solvers must agree on
//! attainability and on the optimal objective; where the optimum is unique
//! (`MinNoGoalRt`, `MinTotalDedicated` on continuous random data) they must
//! also agree on the allocation.

use dmm::core::optimize::{Partitioning, EPS_TIEBREAK};
use dmm::core::{solve_partitioning, Objective, PartitionProblem, Planes};
use dmm::linalg::Hyperplane;
use dmm::sim::SimRng;
use dmm_bench::solve_partitioning_simplex;

const INSTANCES: u64 = 10_000;

/// Goal-violation weight and cost cap of the relaxation.
const RELAX_WEIGHT: f64 = 1e3;

/// One random instance's inputs.
struct Instance {
    planes: Planes,
    goal_ms: f64,
    avail: Vec<f64>,
    current: Vec<f64>,
    rho: f64,
    objective: Objective,
    /// Every node shares one class gradient: the optimum may be a tie.
    tied: bool,
}

impl Instance {
    fn problem(&self) -> PartitionProblem<'_> {
        PartitionProblem {
            planes: &self.planes,
            goal_ms: self.goal_ms,
            avail_mb: &self.avail,
            current_mb: &self.current,
            reallocation_penalty: self.rho,
            objective: self.objective,
        }
    }
}

fn gradient(rng: &mut SimRng, negative_share: f64) -> f64 {
    let magnitude = rng.uniform(0.05, 8.0);
    if rng.uniform01() < negative_share {
        -magnitude
    } else {
        magnitude
    }
}

fn instance(seed: u64) -> Instance {
    let mut rng = SimRng::seed_from_u64(seed);
    let n = 1 + rng.index(64);
    let tied = rng.index(5) == 0;
    let (w, w0): (Vec<f64>, Vec<f64>) = if tied {
        let (w, w0) = (gradient(&mut rng, 0.75), gradient(&mut rng, 0.0) / 2.0);
        let clamped = (0..n).map(|_| if rng.index(2) == 0 { 0.0 } else { w0 });
        (vec![w; n], clamped.collect())
    } else {
        (
            (0..n).map(|_| gradient(&mut rng, 0.75)).collect(),
            (0..n).map(|_| gradient(&mut rng, 0.2) / 2.0).collect(),
        )
    };
    let avail: Vec<f64> = (0..n)
        .map(|_| {
            if rng.uniform01() < 0.1 {
                0.0
            } else {
                rng.uniform(0.0, 4.0)
            }
        })
        .collect();
    let current: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 5.0)).collect();
    let rho = if rng.index(2) == 0 { 0.0 } else { 0.02 };
    let objective = [
        Objective::MinNoGoalRt,
        Objective::MinTotalDedicated,
        Objective::BalanceNodes,
    ][rng.index(3)];
    // The attainable band of ā·x over the box, then a goal inside it or
    // clearly outside on either side.
    let lo: f64 = w.iter().zip(&avail).map(|(w, a)| (w * a).min(0.0)).sum();
    let hi: f64 = w.iter().zip(&avail).map(|(w, a)| (w * a).max(0.0)).sum();
    let rhs = match rng.index(4) {
        0 => hi + rng.uniform(0.5, 10.0),
        1 => lo - rng.uniform(0.5, 10.0),
        _ => lo + rng.uniform(0.02, 0.98) * (hi - lo),
    };
    let c = rng.uniform(10.0, 40.0);
    Instance {
        planes: Planes {
            class: Hyperplane { w, c },
            nogoal: Hyperplane { w: w0, c: 5.0 },
        },
        goal_ms: c + rhs,
        avail,
        current,
        rho,
        objective,
        tied,
    }
}

/// The objective of the program `sol` claims to solve, evaluated at its
/// allocation: the primary program when the goal was attainable, the
/// relaxation otherwise. Constant terms are kept, so both solvers are
/// scored on the same scale.
fn objective_value(p: &PartitionProblem<'_>, sol: &Partitioning) -> f64 {
    let x = &sol.alloc_mb;
    let coeff = |i: usize| match p.objective {
        Objective::MinNoGoalRt => p.planes.nogoal.w[i] + EPS_TIEBREAK,
        Objective::MinTotalDedicated => 1.0,
        Objective::BalanceNodes => EPS_TIEBREAK,
    };
    let sticky: f64 = x
        .iter()
        .zip(p.current_mb)
        .map(|(x, c)| p.reallocation_penalty * (x - c).abs())
        .sum();
    if sol.goal_attainable {
        let linear: f64 = x.iter().enumerate().map(|(i, x)| coeff(i) * x).sum();
        let level = match p.objective {
            Objective::BalanceNodes => x.iter().fold(0.0, |m: f64, &v| m.max(v)),
            _ => 0.0,
        };
        linear + sticky + level
    } else {
        let rhs = p.goal_ms - p.planes.class.c;
        let reached: f64 = p.planes.class.w.iter().zip(x).map(|(w, x)| w * x).sum();
        let linear: f64 = x
            .iter()
            .enumerate()
            .map(|(i, x)| coeff(i).min(RELAX_WEIGHT / 10.0) * x)
            .sum();
        RELAX_WEIGHT * (reached - rhs).abs() + linear + sticky
    }
}

#[test]
fn closed_form_matches_the_simplex_on_random_instances() {
    let mut worst_obj = [0.0f64; 3];
    let mut worst_alloc = 0.0f64;
    let (mut attainable, mut relaxed) = (0u32, 0u32);
    let (mut sticky, mut zero_avail, mut above_avail) = (0u32, 0u32, 0u32);
    let mut per_objective = [0u32; 3];
    let mut tied = 0u32;
    for seed in 0..INSTANCES {
        let inst = instance(seed);
        let p = inst.problem();
        let fast = solve_partitioning(&p).expect("finite instance");
        let oracle = solve_partitioning_simplex(&p).expect("simplex solves");
        assert_eq!(
            fast.goal_attainable, oracle.goal_attainable,
            "seed {seed}: attainability differs"
        );
        let k = inst.objective as usize;
        per_objective[k] += 1;
        if fast.goal_attainable {
            attainable += 1;
        } else {
            relaxed += 1;
        }
        sticky += u32::from(inst.rho > 0.0);
        tied += u32::from(inst.tied);
        zero_avail += u32::from(inst.avail.contains(&0.0));
        above_avail += u32::from(inst.current.iter().zip(&inst.avail).any(|(c, a)| c > a));

        // A node's two stickiness pieces may sum one rounding step past
        // its cap.
        for (x, a) in fast.alloc_mb.iter().zip(&inst.avail) {
            assert!(
                *x >= 0.0 && *x <= a + 1e-12,
                "seed {seed}: {x} outside [0, {a}]"
            );
        }
        // Relative, on a scale of at least 1 (ms): an objective near zero
        // is compared absolutely.
        let (f, o) = (objective_value(&p, &fast), objective_value(&p, &oracle));
        let gap = (f - o).abs() / f.abs().max(o.abs()).max(1.0);
        assert!(
            gap <= 1e-9,
            "seed {seed} ({:?}, n = {}): objective {f} vs simplex {o}",
            inst.objective,
            inst.avail.len()
        );
        worst_obj[k] = worst_obj[k].max(gap);
        if inst.objective != Objective::BalanceNodes && !inst.tied {
            for (i, (a, b)) in fast.alloc_mb.iter().zip(&oracle.alloc_mb).enumerate() {
                let d = (a - b).abs();
                assert!(
                    d <= 1e-9,
                    "seed {seed} ({:?}): node {i} gets {a} MB vs simplex {b} MB",
                    inst.objective
                );
                worst_alloc = worst_alloc.max(d);
            }
        }
    }
    println!(
        "{INSTANCES} instances ({attainable} attainable, {relaxed} relaxed, {tied} tied): worst objective gap \
         {:.1e} / {:.1e} / {:.1e} (MinNoGoalRt / MinTotalDedicated / BalanceNodes), \
         worst allocation gap {worst_alloc:.1e} MB",
        worst_obj[0], worst_obj[1], worst_obj[2]
    );
    // The generator must exercise every case it claims to.
    assert!(
        attainable > 4_000 && relaxed > 3_000,
        "{attainable} / {relaxed}"
    );
    assert!(
        per_objective.iter().all(|&c| c > 3_000),
        "{per_objective:?}"
    );
    assert!(sticky > 4_000 && zero_avail > 3_000 && above_avail > 5_000);
    assert!(tied > 1_500, "{tied}");
}
