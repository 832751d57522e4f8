//! **§8 extension** — alternative LP objectives. The paper's future work:
//! "some applications insist on more stringent conditions … a new objective
//! function, like e.g. minimizing the variation, will be needed." We compare
//! the paper's objective (minimize the predicted no-goal response time)
//! against minimizing total dedicated memory and balancing the per-node
//! allocations.

use dmm::buffer::ClassId;
use dmm::cluster::NodeId;
use dmm::core::{ControllerKind, Objective, SystemConfig};

use crate::{fmt2, render_table, study, workers, BenchArgs, Run};

const OBJECTIVES: [(&str, Objective); 3] = [
    ("min no-goal RT (paper)", Objective::MinNoGoalRt),
    ("min total dedicated", Objective::MinTotalDedicated),
    ("balance nodes", Objective::BalanceNodes),
];

fn config(seed: u64, objective: Objective) -> SystemConfig {
    SystemConfig::builder()
        .seed(seed)
        .goal_ms(8.0)
        .controller(ControllerKind::Hyperplane { objective })
        .build()
        .expect("valid objective config")
}

/// The per-node spread (MB) of class 1's final allocation.
fn node_spread(run: &Run) -> f64 {
    let plane = run.sim.plane();
    let mb = (0..plane.num_nodes())
        .map(|n| plane.dedicated_pages(NodeId(n as u16), ClassId(1)) as f64 / 256.0);
    let (lo, hi) = mb.fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)));
    hi - lo
}

pub fn run(_: &BenchArgs) {
    println!("§8 extension — LP objectives (goal 8 ms, theta 0)\n");
    let rows = study(
        &OBJECTIVES,
        ClassId(1),
        10..50,
        workers(),
        |&(_, objective)| config(23, objective),
        |(label, _), run| {
            let w = run.window;
            vec![
                label.to_string(),
                fmt2(w.mean_observed_ms()),
                format!("{:.0}", 100.0 * w.satisfied_of_checked()),
                fmt2(w.mean_nogoal_ms()),
                fmt2(w.mean_dedicated_mb()),
                format!("{:.2}", node_spread(run)),
            ]
        },
    );
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

    #[test]
    fn sweep_returns_real_runs_in_job_order_for_any_worker_count() {
        // The experiment's three objectives at its seed, then a small
        // objectives × seeds grid, all at 8 measured intervals instead of 40.
        let objectives = OBJECTIVES.map(|(_, objective)| objective);
        let mut jobs = grid(&[23], &objectives);
        jobs.extend(grid(&[24, 25], &objectives[..2]));
        // Every summary of each run, bit for bit.
        let bits = |threads| {
            let config = |&(seed, objective): &_| config(seed, objective);
            study(&jobs, ClassId(1), 10..18, threads, config, |_, run| {
                let w = run.window;
                [
                    w.mean_observed_ms().unwrap_or(f64::NAN),
                    w.mean_nogoal_ms().unwrap_or(f64::NAN),
                    w.satisfied_of_checked(),
                    w.mean_dedicated_mb().unwrap_or(f64::NAN),
                    run.disk_reads as f64,
                    node_spread(run),
                ]
                .map(f64::to_bits)
            })
        };
        let serial = bits(1);
        let mut distinct = serial.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            jobs.len(),
            "every job must differ for order to show"
        );
        for threads in [2, 8] {
            assert_eq!(bits(threads), serial, "threads={threads}");
        }
    }
}
