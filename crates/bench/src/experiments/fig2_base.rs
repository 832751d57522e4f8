//! **Figure 2** (paper §7.2, the base experiment): the time series of
//! observed response time, response time goal, and system-wide dedicated
//! memory over ~80 observation intervals, with the goal re-randomized after
//! four satisfied intervals.
//!
//! Reproduction targets: the observed response time is "closely related to
//! the size of the dedicated buffer", the partitioning "satisfies the
//! response time goal after only a short number of observation intervals",
//! and rapid goal changes cause the mild oscillation the paper discusses
//! (the tolerance cannot calibrate between changes).
//!
//! Pass `--csv` to emit machine-readable output, `--seed` to change the
//! seed, or `--json` to stream the full structured trace (one record per
//! observation interval, one per optimize phase, plus grants and goal
//! changes) to `results/fig2_base.jsonl` and a closing metrics snapshot to
//! `results/fig2_base_metrics.json`.

use dmm::buffer::ClassId;
use dmm::core::{Simulation, SystemConfig};

use crate::{fmt2, BenchArgs, Window};

pub fn run(args: &BenchArgs) {
    let (csv, json) = (args.csv, args.json);
    let class = ClassId(1);
    let theta = 0.0;
    let seed = args.seed_or(42);

    let (range, schedule) =
        crate::calibrated_goal_schedule(SystemConfig::builder().seed(seed).theta(theta));
    let cfg = schedule
        .goal_ms(range.max_ms * 0.8)
        .build()
        .expect("valid fig2 config");
    let mut sim = Simulation::new(cfg);
    crate::run_traced(&mut sim, "fig2_base", json, |sim| sim.run_intervals(84));

    if csv {
        println!("interval,observed_ms,goal_ms,dedicated_bytes,satisfied");
        for r in sim.records(class) {
            println!(
                "{},{},{},{},{}",
                r.interval,
                r.observed_ms.map_or(f64::NAN, |v| v),
                r.goal_ms,
                r.dedicated_bytes,
                r.satisfied.map_or(-1, i32::from),
            );
        }
        return;
    }

    println!("Figure 2 — base experiment (3 nodes, 2 MB each, theta = {theta})");
    println!(
        "goal range (calibrated): [{:.2}, {:.2}] ms\n",
        range.min_ms, range.max_ms
    );
    println!("interval  observed_ms  goal_ms  dedicated_MB  satisfied");
    for r in sim.records(class) {
        let bar_len = (r.dedicated_bytes as f64 / (6.0 * 1024.0 * 1024.0) * 24.0) as usize;
        println!(
            "{:>8}  {:>11}  {:>7.2}  {:>12.2}  {:>9}  |{}",
            r.interval,
            fmt2(r.observed_ms),
            r.goal_ms,
            r.dedicated_bytes as f64 / (1024.0 * 1024.0),
            r.satisfied.map_or("-", |s| if s { "yes" } else { "NO" }),
            "#".repeat(bar_len),
        );
    }

    let c = sim.convergence(class);
    let window = Window::range(sim.records(class), ..);
    println!(
        "\ngoal changes survived: {}, mean iterations to re-converge: {:.2}, satisfied intervals: {}/{}",
        c.episodes(),
        c.mean_iterations(),
        window.satisfied(),
        window.records()
    );
}
