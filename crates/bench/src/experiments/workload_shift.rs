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

use crate::{fmt2, BenchArgs, Window};

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
                    fmt2(r.observed_ms),
                    r.dedicated_bytes as f64 / (1024.0 * 1024.0),
                    r.satisfied.map_or("-", |s| if s { "yes" } else { "NO" }),
                );
            }
        }
    });
    let records = sim.records(ClassId(1));
    let before = Window::range(records, 40..60);
    let after = Window::range(records, 120..);
    let ded = |w: Window| fmt2(w.mean_dedicated_mb());
    let sat = |w: Window| 100.0 * w.satisfied_of_records();
    println!(
        "\nbefore shift: {} MB dedicated, {:.0}% satisfied;  after re-convergence: {} MB, {:.0}% satisfied",
        ded(before), sat(before), ded(after), sat(after)
    );
}
