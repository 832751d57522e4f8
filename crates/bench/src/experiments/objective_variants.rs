//! **§8 extension** — alternative LP objectives. The paper's future work:
//! "some applications insist on more stringent conditions … a new objective
//! function, like e.g. minimizing the variation, will be needed." We compare
//! the paper's objective (minimize the predicted no-goal response time)
//! against minimizing total dedicated memory and balancing the per-node
//! allocations.

use dmm::buffer::ClassId;
use dmm::cluster::NodeId;
use dmm::core::{ControllerKind, Objective, Simulation, SystemConfig};

use crate::{render_table, steady_state, sweep, workers, BenchArgs, SteadyState};

const OBJECTIVES: [(&str, Objective); 3] = [
    ("min no-goal RT (paper)", Objective::MinNoGoalRt),
    ("min total dedicated", Objective::MinTotalDedicated),
    ("balance nodes", Objective::BalanceNodes),
];

/// The steady state of goal class 1 (goal 8 ms) under `objective` over
/// `intervals` after 10 settling intervals, and the per-node spread (MB)
/// of its final allocation.
fn measure(objective: Objective, seed: u64, intervals: u32) -> (SteadyState, f64) {
    let cfg = SystemConfig::builder()
        .seed(seed)
        .goal_ms(8.0)
        .controller(ControllerKind::Hyperplane { objective })
        .build()
        .expect("valid objective config");
    let mut sim = Simulation::new(cfg);
    sim.run_intervals(10);
    let s = steady_state(&mut sim, ClassId(1), intervals);
    let per_node: Vec<f64> = (0..sim.plane().num_nodes())
        .map(|n| sim.plane().dedicated_pages(NodeId(n as u16), ClassId(1)) as f64 / 256.0)
        .collect();
    let spread = per_node.iter().cloned().fold(f64::MIN, f64::max)
        - per_node.iter().cloned().fold(f64::MAX, f64::min);
    (s, spread)
}

pub fn run(_: &BenchArgs) {
    println!("§8 extension — LP objectives (goal 8 ms, theta 0)\n");
    let runs = sweep(
        &OBJECTIVES,
        workers(),
        |&(_, objective)| measure(objective, 23, 40),
        |(label, _), _| eprintln!("{label}: done"),
    );
    let rows: Vec<Vec<String>> = OBJECTIVES
        .iter()
        .zip(&runs)
        .map(|((label, _), (s, spread))| {
            vec![
                label.to_string(),
                format!("{:.2}", s.class_rt_ms),
                format!("{:.0}", 100.0 * s.satisfied_fraction),
                format!("{:.2}", s.nogoal_rt_ms),
                format!("{:.2}", s.dedicated_mb),
                format!("{spread:.2}"),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "objective",
                "goal RT (ms)",
                "satisfied %",
                "no-goal RT (ms)",
                "dedicated (MB)",
                "node spread (MB)"
            ],
            &rows
        )
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid;

    /// Every field of each run, bit for bit.
    fn bits(runs: &[(SteadyState, f64)]) -> Vec<[u64; 5]> {
        runs.iter()
            .map(|(s, spread)| {
                [
                    s.class_rt_ms,
                    s.nogoal_rt_ms,
                    s.satisfied_fraction,
                    s.dedicated_mb,
                    *spread,
                ]
                .map(f64::to_bits)
            })
            .collect()
    }

    #[test]
    fn sweep_returns_real_runs_in_job_order_for_any_worker_count() {
        // The experiment's three objectives at its seed, then a small
        // objectives × seeds grid, all at 8 measured intervals instead of 40.
        let objectives = OBJECTIVES.map(|(_, objective)| objective);
        let mut jobs = grid(&[23], &objectives);
        jobs.extend(grid(&[24, 25], &objectives[..2]));
        let run = |&(seed, objective): &(u64, Objective)| measure(objective, seed, 8);
        let serial = bits(&jobs.iter().map(run).collect::<Vec<_>>());
        let mut distinct = serial.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            jobs.len(),
            "every job must differ for order to show"
        );
        for threads in [1, 2, 8] {
            let swept = sweep(&jobs, threads, run, |_, _| {});
            assert_eq!(bits(&swept), serial, "threads={threads}");
        }
    }
}
