//! **§7.4** — multiple goal classes.
//!
//! Two sections, selectable with `--only`; with no `--only` both run,
//! `disjoint` first.
//!
//! `disjoint`: two goal classes with disjoint page sets and twice the
//! per-node memory. The paper observed the same convergence speed as the
//! single-class Table 2 ("the amount of memory dedicated to one class does
//! not influence the performance of the other").
//!
//! `sharing`: sweep the fraction of pages class k2 shares with the
//! tighter class k1. "Raising the percentage of sharing we have observed
//! that the size of the dedicated buffers of the class k2 decreases
//! gradually … Further increases in the sharing leads to a complete removal
//! of the dedicated buffers of class k2 and eventually — even without any
//! dedicated buffers — class k2 exceeds its goal solely by accessing pages
//! from the buffers of class k1" (the §3 Example 2 effect).

use dmm::buffer::ClassId;
use dmm::core::{calibrate_goal_range, SystemConfig};
use dmm::workload::WorkloadSpec;

use crate::{fmt2, render_table, study, sweep_until_accurate, workers, BenchArgs};

fn config(sharing: f64, seed: u64) -> SystemConfig {
    // §7.4: "twice the amount of cache buffer memory at each node"; a larger
    // database keeps the cache under pressure (three class thirds).
    let mut cfg = SystemConfig::builder()
        .seed(seed)
        .goal_ms(8.0)
        .buffer_pages_per_node(1024)
        .db_pages(3600)
        .build()
        .expect("valid multiclass config");
    cfg.workload = WorkloadSpec::two_goal_classes(
        cfg.cluster.nodes,
        cfg.cluster.db_pages,
        0.0,
        0.005,
        6.0,  // k1: tight goal
        12.0, // k2: looser goal
        sharing,
    );
    cfg
}

fn sharing_sweep() {
    println!("§7.4 — sharing sweep (k1 goal 6 ms, k2 goal 12 ms)\n");
    let runs = study(
        &[0.0, 0.25, 0.5, 0.75, 1.0],
        ClassId(2),
        100..140,
        workers(),
        |&sharing| SystemConfig {
            // Pools must be allowed to vanish for the Example-2 effect.
            release_floor_mb: 0.0,
            ..config(sharing, 97)
        },
        |sharing, run| {
            vec![
                format!("{sharing:.2}"),
                fmt2(run.window_of(ClassId(1)).mean_dedicated_mb()),
                fmt2(run.window.mean_dedicated_mb()),
                fmt2(run.window.mean_observed_ms()),
            ]
        },
    );
    println!(
        "{}",
        render_table(
            &[
                "sharing",
                "k1 dedicated (MB)",
                "k2 dedicated (MB)",
                "k2 observed (ms)"
            ],
            &runs
        )
    );
    println!("paper: k2's dedicated buffers shrink gradually to 0 as sharing rises;");
    println!("       k2 then exceeds its goal through k1's buffers alone.");
}

fn disjoint() {
    println!("§7.4 — two disjoint goal classes (2x memory): convergence speed\n");
    let base = config(0.0, 11);
    let mut rows = Vec::new();
    for class in [ClassId(1), ClassId(2)] {
        let range = calibrate_goal_range(&base, class, 6, 6).expect("calibrate the goal range");
        let configs: Vec<SystemConfig> = (1..=6u64)
            .map(|seed| SystemConfig {
                goal_range: Some(range),
                ..config(0.0, 5000 + seed)
            })
            .collect();
        let episodes = sweep_until_accurate(&configs, class, 300, workers());
        rows.push(vec![
            format!("k{}", class.0),
            format!("{:.2}", episodes.mean_iterations()),
            format!("±{:.2}", episodes.ci99().half_width),
            episodes.episodes().to_string(),
            format!("[{:.1}, {:.1}]", range.min_ms, range.max_ms),
        ]);
        eprintln!("class {class}: done");
    }
    println!(
        "{}",
        render_table(
            &[
                "class",
                "iterations",
                "99% CI",
                "episodes",
                "goal range (ms)"
            ],
            &rows
        )
    );
    println!("paper: with disjoint page sets the convergence speed matches Table 2.");
}

/// The sections `--only` can select, in run order.
pub const SECTIONS: [&str; 2] = ["disjoint", "sharing"];

pub fn run(args: &BenchArgs) {
    if args.wants("disjoint") {
        disjoint();
    }
    if args.wants("sharing") {
        sharing_sweep();
    }
}
