//! **§8 extension** — alternative LP objectives. The paper's future work:
//! "some applications insist on more stringent conditions … a new objective
//! function, like e.g. minimizing the variation, will be needed." We compare
//! the paper's objective (minimize the predicted no-goal response time)
//! against minimizing total dedicated memory and balancing the per-node
//! allocations.

use dmm::buffer::ClassId;
use dmm::cluster::NodeId;
use dmm::core::{ControllerKind, Objective, Simulation, SystemConfig};

use crate::{render_table, steady_state, BenchArgs};

pub fn run(_: &BenchArgs) {
    let goal_ms = 8.0;
    let objectives: [(&str, Objective); 3] = [
        ("min no-goal RT (paper)", Objective::MinNoGoalRt),
        ("min total dedicated", Objective::MinTotalDedicated),
        ("balance nodes", Objective::BalanceNodes),
    ];

    println!("§8 extension — LP objectives (goal {goal_ms} ms, theta 0)\n");
    let mut rows = Vec::new();
    for (label, objective) in objectives {
        let cfg = SystemConfig::builder()
            .seed(23)
            .goal_ms(goal_ms)
            .controller(ControllerKind::Hyperplane { objective })
            .build()
            .expect("valid objective config");
        let mut sim = Simulation::new(cfg);
        sim.run_intervals(10);
        let s = steady_state(&mut sim, ClassId(1), 40);
        // Per-node spread of the final allocation.
        let per_node: Vec<f64> = (0..sim.plane().num_nodes())
            .map(|n| sim.plane().dedicated_pages(NodeId(n as u16), ClassId(1)) as f64 / 256.0)
            .collect();
        let spread = per_node.iter().cloned().fold(f64::MIN, f64::max)
            - per_node.iter().cloned().fold(f64::MAX, f64::min);
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", s.class_rt_ms),
            format!("{:.0}", 100.0 * s.satisfied_fraction),
            format!("{:.2}", s.nogoal_rt_ms),
            format!("{:.2}", s.dedicated_mb),
            format!("{spread:.2}"),
        ]);
        eprintln!("{label}: done");
    }
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
