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
use dmm::core::{ControllerKind, Objective, Simulation, SystemConfig};

use crate::{grid, render_table, steady_state, sweep, workers, BenchArgs};

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

/// One controller's table row under goal `goal_ms`, per-node arrivals
/// uniform or skewed.
fn row(goal_ms: f64, skewed_nodes: bool, label: &str, controller: ControllerKind) -> Vec<String> {
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
    let mut sim = Simulation::new(cfg);
    sim.run_intervals(10); // settle
    let s = steady_state(&mut sim, ClassId(1), 50);
    vec![
        label.to_string(),
        format!("{:.2}", s.class_rt_ms),
        format!("{:.0}", 100.0 * s.satisfied_fraction),
        format!("{:.2}", s.nogoal_rt_ms),
        format!("{:.2}", s.dedicated_mb),
    ]
}

pub fn run(_: &BenchArgs) {
    let goal_ms = 8.0;
    let rows = sweep(
        &grid(&[false, true], &CONTROLLERS),
        workers(),
        |&(skewed, (label, controller))| row(goal_ms, skewed, label, controller),
        |(_, (label, _)), _| eprintln!("{label}: done"),
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
