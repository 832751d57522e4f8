//! **Dynamic workload** (paper §1/§7.2: the method "copes with evolving
//! workload characteristics"; the base-experiment claims held "including
//! experiments with … dynamically changing workloads"): the no-goal class's
//! arrival rate jumps 30 % mid-run. The goal class's hit-rate economics change
//! (more competition in the shared pools, more disk contention), so the
//! coordinator must re-converge onto the same goal with a new partitioning.
//! `--json` streams the trace to `results/workload_shift.jsonl` and the
//! closing metrics snapshot to `results/workload_shift_metrics.json`.

use dmm::buffer::{ClassId, NO_GOAL};
use dmm::core::{Simulation, SystemConfig};
use dmm::sim::SimTime;
use dmm::workload::RateShift;

use crate::BenchArgs;

pub fn run(args: &BenchArgs) {
    let goal_ms = 9.0;
    let mut cfg = SystemConfig::builder()
        .seed(19)
        .goal_ms(goal_ms)
        .build()
        .expect("valid shift config");
    // At t = 300 s (interval 60) the background load triples.
    let nodes = cfg.cluster.nodes;
    cfg.workload.classes[NO_GOAL.index()].rate_shifts = vec![RateShift {
        at: SimTime::from_nanos(300 * 1_000_000_000),
        arrival_per_ms: vec![0.018 * 1.3; nodes],
    }];
    let mut sim = Simulation::new(cfg);

    println!("goal {goal_ms} ms; no-goal arrival rate x1.3 at interval 60\n");
    println!("interval  observed_ms  dedicated_MB  satisfied");
    crate::run_traced(&mut sim, "workload_shift", args.json, |sim| {
        for _ in 0..170 {
            sim.run_intervals(1);
            let r = *sim.records(ClassId(1)).last().expect("record");
            if r.interval.is_multiple_of(4) || (55..75).contains(&r.interval) {
                println!(
                    "{:>8}  {:>11}  {:>12.2}  {:>9}",
                    r.interval,
                    r.observed_ms
                        .map_or_else(|| "-".into(), |v| format!("{v:.2}")),
                    r.dedicated_bytes as f64 / (1024.0 * 1024.0),
                    r.satisfied.map_or("-", |s| if s { "yes" } else { "NO" }),
                );
            }
        }
    });
    let before: Vec<_> = sim
        .records(ClassId(1))
        .iter()
        .filter(|r| (40..60).contains(&r.interval))
        .collect();
    let after: Vec<_> = sim
        .records(ClassId(1))
        .iter()
        .filter(|r| r.interval >= 120)
        .collect();
    let ded = |rs: &[&dmm::core::IntervalRecord]| {
        rs.iter().map(|r| r.dedicated_bytes as f64).sum::<f64>()
            / rs.len() as f64
            / (1024.0 * 1024.0)
    };
    let sat = |rs: &[&dmm::core::IntervalRecord]| {
        100.0 * rs.iter().filter(|r| r.satisfied == Some(true)).count() as f64 / rs.len() as f64
    };
    println!(
        "\nbefore shift: {:.2} MB dedicated, {:.0}% satisfied;  after re-convergence: {:.2} MB, {:.0}% satisfied",
        ded(&before), sat(&before), ded(&after), sat(&after)
    );
}
