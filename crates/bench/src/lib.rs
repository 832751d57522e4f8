//! The paper's §7 experiments behind the `dmm-repro` binary (one module per
//! table, figure or ablation, named in [`experiments::EXPERIMENTS`]), their
//! shared helpers, and the microbenchmark harness.

use std::fmt::Write as _;
use std::ops::ControlFlow;

pub mod cli;
pub mod experiments;
pub mod micro;
pub mod partition_simplex;
pub mod pool;

pub use cli::BenchArgs;
pub use partition_simplex::solve_partitioning_simplex;

use dmm::buffer::ClassId;
use dmm::core::{
    calibrate_goal_range, ControllerKind, Simulation, SystemConfig, SystemConfigBuilder,
};
use dmm::obs::JsonLinesSink;
use dmm::sim::stats::Welford;
use dmm::workload::GoalRange;

/// Renders an aligned text table: `header` then one row per entry.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |out: &mut String, cells: &[String]| {
        for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{cell:>w$}", w = w);
        }
        out.push('\n');
    };
    fmt_row(
        &mut out,
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        fmt_row(&mut out, row);
    }
    out
}

/// The §7.3 goal-schedule setup the goal-walk experiments share: calibrates
/// class 1's attainable `[goal_min, goal_max]` on `base` under a 15 ms
/// placeholder goal (6 settling + 6 measured intervals per end), then
/// returns the range and `base` set up for the schedule run — goal at
/// `goal_max`, re-drawn within the range after every satisfied streak.
pub fn calibrated_goal_schedule(base: SystemConfigBuilder) -> (GoalRange, SystemConfigBuilder) {
    let config = base
        .clone()
        .goal_ms(15.0)
        .build()
        .expect("valid base config");
    let range = calibrate_goal_range(&config, ClassId(1), 6, 6).expect("calibrate the goal range");
    (range, base.goal_ms(range.max_ms).goal_range(range))
}

/// Runs `body` on `sim`. With `json`, the run's structured trace streams to
/// `results/<name>.jsonl` and its closing metrics snapshot is written to
/// `results/<name>_metrics.json`, both at the workspace root.
pub fn run_traced(
    sim: &mut Simulation,
    name: &str,
    json: bool,
    body: impl FnOnce(&mut Simulation),
) {
    if json {
        let trace = cli::results_path(&format!("{name}.jsonl"));
        let sink = JsonLinesSink::create(&trace)
            .unwrap_or_else(|e| panic!("create {}: {e}", trace.display()));
        sim.set_trace_sink(Box::new(sink));
    }
    body(sim);
    if json {
        let metrics = cli::results_path(&format!("{name}_metrics.json"));
        std::fs::write(&metrics, sim.metrics_snapshot().to_json().to_string())
            .unwrap_or_else(|e| panic!("write {}: {e}", metrics.display()));
        eprintln!("wrote results/{name}.jsonl and results/{name}_metrics.json");
    }
}

/// Result of one convergence-speed measurement (a Table 2 cell).
#[derive(Debug, Clone, Copy)]
pub struct ConvergenceResult {
    /// Mean iterations of the feedback loop to re-satisfy a changed goal.
    pub mean_iterations: f64,
    /// 99 % CI half-width.
    pub ci99_half_width: f64,
    /// Episodes measured.
    pub episodes: u64,
    /// The calibrated goal range used.
    pub goal_range: GoalRange,
}

/// Runs the §7.1 convergence protocol for the base two-class workload at
/// skew `theta`: calibrate `[goal_min, goal_max]`, enable the goal schedule,
/// and accumulate episodes across `seeds` until the 99 % CI half-width drops
/// below 1 iteration (or the interval budget is exhausted).
///
/// Replication is deterministic in the result regardless of `threads`: each
/// seed's simulation is independent, per-seed statistics are folded in
/// **seed order** by [`pool::replicate_in_order`], and the fold cuts at the
/// first seed whose merge meets the accuracy target — so 1 worker and N
/// workers produce bit-identical [`ConvergenceResult`]s (idle workers steal
/// the next seed immediately instead of waiting on a batch barrier, and any
/// speculative surplus past the cut is discarded identically).
pub fn convergence_speed(
    theta: f64,
    seeds: &[u64],
    max_intervals_per_seed: u32,
    controller: ControllerKind,
    threads: usize,
) -> ConvergenceResult {
    assert!(!seeds.is_empty(), "need at least one seed");
    let class = ClassId(1);
    let (goal_range, schedule) =
        calibrated_goal_schedule(SystemConfig::builder().seed(seeds[0]).theta(theta));

    let run_seed = |seed: u64| -> dmm::core::ConvergenceStats {
        let cfg = schedule
            .clone()
            .seed(seed)
            .controller(controller)
            .build()
            .expect("valid replication config");
        let mut sim = Simulation::new(cfg);
        sim.run_intervals(max_intervals_per_seed);
        sim.convergence(class).clone()
    };

    // Welford merging is order-sensitive in floating point: the pool folds
    // in seed order and cuts at the accuracy target, independent of worker
    // count and OS scheduling.
    let mut merged = dmm::core::ConvergenceStats::new();
    pool::replicate_in_order(
        seeds,
        threads,
        |&seed| run_seed(seed),
        |_, r| {
            merged.merge(&r);
            if merged.episodes() >= 20 && merged.ci99().is_tighter_than(1.0) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        },
    );
    ConvergenceResult {
        mean_iterations: merged.mean_iterations(),
        ci99_half_width: merged.ci99().half_width,
        episodes: merged.episodes(),
        goal_range,
    }
}

/// Summary statistics of a completed steady-state run (for the ablations).
#[derive(Debug, Clone, Copy)]
pub struct SteadyState {
    /// Mean goal-class response time over the measured tail (ms).
    pub class_rt_ms: f64,
    /// Mean no-goal response time over the measured tail (ms).
    pub nogoal_rt_ms: f64,
    /// Fraction of post-warm-up checks that satisfied the goal.
    pub satisfied_fraction: f64,
    /// Mean dedicated memory for the class (MB).
    pub dedicated_mb: f64,
}

/// Runs `intervals` and summarizes the post-warm-up behaviour of `class`.
pub fn steady_state(sim: &mut Simulation, class: ClassId, intervals: u32) -> SteadyState {
    let warmup = sim.intervals();
    sim.run_intervals(intervals);
    let records: Vec<_> = sim
        .records(class)
        .iter()
        .filter(|r| r.interval >= warmup)
        .copied()
        .collect();
    let mut rt = Welford::new();
    let mut nogoal = Welford::new();
    let mut dedicated = Welford::new();
    let mut satisfied = 0u64;
    let mut checked = 0u64;
    for r in &records {
        if let Some(v) = r.observed_ms {
            rt.push(v);
        }
        nogoal.push(r.nogoal_ms);
        dedicated.push(r.dedicated_bytes as f64 / (1024.0 * 1024.0));
        if let Some(s) = r.satisfied {
            checked += 1;
            if s {
                satisfied += 1;
            }
        }
    }
    SteadyState {
        class_rt_ms: rt.mean(),
        nogoal_rt_ms: nogoal.mean(),
        satisfied_fraction: if checked == 0 {
            0.0
        } else {
            satisfied as f64 / checked as f64
        },
        dedicated_mb: dedicated.mean(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["theta", "iters"],
            &[
                vec!["0".into(), "1.84".into()],
                vec!["0.25".into(), "2.41".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("theta"));
        assert!(lines[3].contains("2.41"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn table_rejects_ragged_rows() {
        render_table(&["a"], &[vec!["1".into(), "2".into()]]);
    }
}
