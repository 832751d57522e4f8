//! **Ablation A** — the §6 cost-based replacement vs. classical local
//! policies, under the same goal controller and workload.
//!
//! Reproduction target (the \[27, 26\] result the paper builds on): the
//! cost-based policy converts disk reads into remote-memory hits by keeping
//! globally hot last copies cached, cutting both classes' response times at
//! identical memory.

use dmm::buffer::{ClassId, PolicySpec};
use dmm::core::SystemConfig;

use crate::{fmt2, render_table, study, workers, BenchArgs};

pub fn run(_: &BenchArgs) {
    let goal_ms = 8.0;
    let policies: [(&str, PolicySpec); 4] = [
        ("cost-based (§6)", PolicySpec::CostBased),
        ("LRU", PolicySpec::Lru),
        ("LRU-2", PolicySpec::LruK(2)),
        ("CLOCK", PolicySpec::Clock),
    ];

    println!("Ablation A — replacement policies (goal {goal_ms} ms, theta 0.6)\n");
    let rows = study(
        &policies,
        ClassId(1),
        10..50,
        workers(),
        |&(_, policy)| {
            let mut cfg = SystemConfig::builder()
                .seed(17)
                .theta(0.6)
                .goal_ms(goal_ms)
                .build()
                .expect("valid ablation config");
            cfg.cluster.policy = policy;
            cfg
        },
        |(label, _), run| {
            let costs = run.sim.plane().costs();
            vec![
                label.to_string(),
                fmt2(run.window.mean_observed_ms()),
                fmt2(run.window.mean_nogoal_ms()),
                run.disk_reads.to_string(),
                costs.observations(costs.remote_hit_slot()).to_string(),
                fmt2(run.window.mean_dedicated_mb()),
            ]
        },
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
