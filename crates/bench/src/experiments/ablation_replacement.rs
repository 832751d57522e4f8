//! **Ablation A** — the §6 cost-based replacement vs. classical local
//! policies, under the same goal controller and workload.
//!
//! Reproduction target (the \[27, 26\] result the paper builds on): the
//! cost-based policy converts disk reads into remote-memory hits by keeping
//! globally hot last copies cached, cutting both classes' response times at
//! identical memory.

use dmm::buffer::{ClassId, PolicySpec};
use dmm::cluster::NodeId;
use dmm::core::{Simulation, SystemConfig};

use crate::{render_table, steady_state, sweep, workers, BenchArgs};

pub fn run(_: &BenchArgs) {
    let goal_ms = 8.0;
    let policies: [(&str, PolicySpec); 4] = [
        ("cost-based (§6)", PolicySpec::CostBased),
        ("LRU", PolicySpec::Lru),
        ("LRU-2", PolicySpec::LruK(2)),
        ("CLOCK", PolicySpec::Clock),
    ];

    println!("Ablation A — replacement policies (goal {goal_ms} ms, theta 0.6)\n");
    let rows = sweep(
        &policies,
        workers(),
        |&(label, policy)| {
            let mut cfg = SystemConfig::builder()
                .seed(17)
                .theta(0.6)
                .goal_ms(goal_ms)
                .build()
                .expect("valid ablation config");
            cfg.cluster.policy = policy;
            let mut sim = Simulation::new(cfg);
            sim.run_intervals(10);
            let before_reads: u64 = disks(&sim);
            let s = steady_state(&mut sim, ClassId(1), 40);
            let reads = disks(&sim) - before_reads;
            let remote = sim
                .plane()
                .costs()
                .observations(sim.plane().costs().remote_hit_slot());
            vec![
                label.to_string(),
                format!("{:.2}", s.class_rt_ms),
                format!("{:.2}", s.nogoal_rt_ms),
                reads.to_string(),
                remote.to_string(),
                format!("{:.2}", s.dedicated_mb),
            ]
        },
        |(label, _), _| eprintln!("{label}: done"),
    );
    println!(
        "{}",
        render_table(
            &[
                "policy",
                "goal RT (ms)",
                "no-goal RT (ms)",
                "disk reads",
                "remote hits",
                "dedicated (MB)"
            ],
            &rows
        )
    );
}

fn disks(sim: &Simulation) -> u64 {
    (0..sim.plane().num_nodes())
        .map(|n| sim.plane().disk_reads(NodeId(n as u16)))
        .sum()
}
