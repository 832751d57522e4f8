//! **Table 1** (paper §5): CPU execution time of the coordinator's three
//! numeric tasks as the number of nodes grows — linear-independence
//! maintenance (incremental Gauss), hyperplane approximation (N+1 point
//! solve), and the LP optimization — timed twice: the paper's plain §4 LP
//! on the two-phase simplex, and the production closed-form solve of the
//! same program with the stickiness penalty on.
//!
//! The paper measured milliseconds on a SUN Sparc 4; 2026 hardware is about
//! three orders of magnitude faster, so we report microseconds. The
//! reproduction target is the *shape*: every task grows with N, the
//! approximation dominates at large N, and the simplex stays roughly linear
//! ("has been proven to be linear in the number of variables and constraints
//! in the mean").

use std::time::Instant;

use dmm::core::{
    fit_planes, solve_partitioning, MeasurePoint, MeasureStore, Objective, PartitionProblem,
};
use dmm::linalg::IndependenceTracker;
use dmm::sim::{SimRng, SimTime};
use dmm_bench::{render_table, solve_partitioning_simplex};

fn synthetic_points(n: usize, rng: &mut SimRng) -> Vec<MeasurePoint> {
    // n+1 points: a base plus one perturbed coordinate each, with a linear
    // response surface plus noise — the shape the coordinator actually sees.
    let mut pts = Vec::with_capacity(n + 1);
    let base: Vec<f64> = (0..n).map(|_| rng.uniform(0.2, 0.8)).collect();
    let w: Vec<f64> = (0..n).map(|_| -rng.uniform(1.0, 5.0)).collect();
    let rt = |x: &[f64], rng: &mut SimRng| {
        20.0 + x.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>() + rng.uniform(-0.2, 0.2)
    };
    let y = rt(&base, rng);
    pts.push(MeasurePoint {
        alloc_mb: base.clone(),
        rt_class_ms: y,
        rt_nogoal_ms: 30.0 - y,
        at: SimTime::ZERO,
    });
    for i in 0..n {
        let mut x = base.clone();
        x[i] += 1.0;
        let y = rt(&x, rng);
        pts.push(MeasurePoint {
            alloc_mb: x,
            rt_class_ms: y,
            rt_nogoal_ms: 30.0 - y,
            at: SimTime::ZERO,
        });
    }
    pts
}

/// Times `f` over enough repetitions for a stable mean; returns µs per call.
fn time_us<F: FnMut()>(mut f: F) -> f64 {
    // Warm up, then measure.
    for _ in 0..3 {
        f();
    }
    let reps = 200;
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / reps as f64
}

fn main() {
    let mut rows = Vec::new();
    for &n in &[5usize, 10, 20, 30, 40, 50] {
        let mut rng = SimRng::seed_from_u64(n as u64);
        let pts = synthetic_points(n, &mut rng);

        // (1) Linear-independence maintenance: test one new difference
        // vector against a full echelon basis (the paper's incremental
        // Gauss step, O(N²)).
        let diffs: Vec<Vec<f64>> = pts[1..]
            .iter()
            .map(|p| {
                p.alloc_mb
                    .iter()
                    .zip(&pts[0].alloc_mb)
                    .map(|(a, b)| a - b)
                    .collect()
            })
            .collect();
        let mut full = IndependenceTracker::new(n, 1e-9);
        for d in &diffs[..n - 1] {
            assert!(full.try_insert(d));
        }
        let probe = &diffs[n - 1];
        let t_indep = time_us(|| {
            std::hint::black_box(full.is_independent(std::hint::black_box(probe)));
        });

        // Also: maintaining the recency-ordered store (our implementation's
        // full reselection path) — reported for transparency.
        let mut store = MeasureStore::new(n);
        for p in &pts {
            store.record(p.alloc_mb.clone(), p.rt_class_ms, p.rt_nogoal_ms, p.at);
        }
        let extra = synthetic_points(n, &mut rng);
        let mut cursor = 0;
        let t_store = time_us(|| {
            let p = &extra[cursor % extra.len()];
            cursor += 1;
            store.record(p.alloc_mb.clone(), p.rt_class_ms, p.rt_nogoal_ms, p.at);
        });

        // (2) Hyperplane approximation: the (N+1)×(N+1) solve.
        let refs: Vec<&MeasurePoint> = pts.iter().collect();
        let t_fit = time_us(|| {
            std::hint::black_box(fit_planes(std::hint::black_box(&refs)).expect("fits"));
        });

        // (3) Optimization: the §4 LP at N variables.
        let planes = fit_planes(&refs).expect("fits");
        let avail = vec![2.0; n];
        let current = vec![0.5; n];
        // The paper's plain §4 LP (no stickiness extension) on the simplex.
        let t_lp = time_us(|| {
            let problem = PartitionProblem {
                planes: &planes,
                goal_ms: 10.0,
                avail_mb: &avail,
                current_mb: &current,
                reallocation_penalty: 0.0,
                objective: Objective::MinNoGoalRt,
            };
            std::hint::black_box(
                solve_partitioning_simplex(std::hint::black_box(&problem)).expect("solves"),
            );
        });
        // The production closed form, stickiness on.
        let t_closed = time_us(|| {
            let problem = PartitionProblem {
                planes: &planes,
                goal_ms: 10.0,
                avail_mb: &avail,
                current_mb: &current,
                reallocation_penalty: 0.02,
                objective: Objective::MinNoGoalRt,
            };
            std::hint::black_box(
                solve_partitioning(std::hint::black_box(&problem)).expect("solves"),
            );
        });

        rows.push(vec![
            n.to_string(),
            format!("{t_indep:.1}"),
            format!("{t_store:.1}"),
            format!("{t_fit:.1}"),
            format!("{t_lp:.1}"),
            format!("{t_closed:.1}"),
            format!("{:.1}", t_indep + t_fit + t_lp),
        ]);
        eprintln!("N = {n}: done");
    }
    println!("Table 1 — coordinator CPU time per task (microseconds, this machine)");
    println!(
        "{}",
        render_table(
            &[
                "nodes",
                "lin.indep (µs)",
                "store upkeep (µs)",
                "approximation (µs)",
                "optimization, simplex (µs)",
                "closed form (µs)",
                "overall (µs)"
            ],
            &rows
        )
    );
    println!("paper (ms, SUN Sparc 4):");
    println!("  nodes         5     10     20     30     40     50");
    println!("  lin.indep   0.1    0.2    0.7    2.4    2.8    4.2");
    println!("  approx     0.24    0.6    2.7    5.5   11.1   14.8");
    println!("  optimize    0.9    1.6    2.3    2.7    3.3    5.4");
    println!("  overall    1.24    2.4    5.7   10.6   17.2   24.4");
}
