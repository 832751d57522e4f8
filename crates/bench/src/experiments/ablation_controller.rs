//! **Ablation B** — the paper's controller vs. the §2 related work, under
//! identical workloads: fragment fencing \[5\] (RT linear in buffer size),
//! class fencing \[6\] (RT linear in miss rate), a static 1/3 split, and no
//! partitioning at all.
//!
//! Reproduction target (motivating the paper): the goal-oriented methods
//! satisfy the goal where static/no partitioning miss it, and the paper's
//! N-dimensional LP spends the no-goal class's response time more carefully
//! than the equal-split fencing baselines.

use dmm::buffer::ClassId;
use dmm::core::{ControllerKind, Objective, SystemConfig};

use crate::{fmt2, grid, render_table, study, workers, BenchArgs};

const CONTROLLERS: [(&str, ControllerKind); 5] = [
    (
        "hyperplane+LP (paper)",
        ControllerKind::Hyperplane {
            objective: Objective::MinNoGoalRt,
        },
    ),
    ("fragment fencing", ControllerKind::FragmentFencing),
    ("class fencing", ControllerKind::ClassFencing),
    (
        "static 1/3",
        ControllerKind::Static {
            fraction: 1.0 / 3.0,
        },
    ),
    ("no partitioning", ControllerKind::None),
];

/// A controller's config under goal `goal_ms`, with per-node arrivals
/// uniform or skewed.
fn config(goal_ms: f64, skewed_nodes: bool, controller: ControllerKind) -> SystemConfig {
    let mut cfg = SystemConfig::builder()
        .seed(31)
        .goal_ms(goal_ms)
        .controller(controller)
        .build()
        .expect("valid ablation config");
    if skewed_nodes {
        // Operations of the goal class arrive mostly at node 0: the value of
        // a dedicated frame now differs per node, which is exactly what the
        // paper's N-dimensional LP models and the equal-split fencing
        // baselines cannot (§2: "designed for a single server").
        cfg.workload.classes[1].arrival_per_ms = vec![0.012, 0.005, 0.001];
    }
    cfg
}

pub fn run(_: &BenchArgs) {
    let goal_ms = 8.0;
    let rows = study(
        &grid(&[false, true], &CONTROLLERS),
        ClassId(1),
        10..60,
        workers(),
        |&(skewed, (_, controller))| config(goal_ms, skewed, controller),
        |(_, (label, _)), run| {
            let w = run.window;
            vec![
                label.to_string(),
                fmt2(w.mean_observed_ms()),
                format!("{:.0}", 100.0 * w.satisfied_of_checked()),
                fmt2(w.mean_nogoal_ms()),
                fmt2(w.mean_dedicated_mb()),
            ]
        },
    );
    for (skewed_nodes, rows) in [false, true]
        .into_iter()
        .zip(rows.chunks(CONTROLLERS.len()))
    {
        let title = if skewed_nodes {
            "skewed per-node arrivals [0.012, 0.005, 0.001]"
        } else {
            "uniform per-node arrivals"
        };
        println!("Ablation B — controllers, {title} (goal {goal_ms} ms, theta 0)\n");
        println!(
            "{}",
            render_table(
                &[
                    "controller",
                    "goal RT (ms)",
                    "satisfied %",
                    "no-goal RT (ms)",
                    "dedicated (MB)"
                ],
                rows
            )
        );
        println!();
    }
    println!("the goal is a target: 'satisfied' means within the adaptive tolerance band.");
}
