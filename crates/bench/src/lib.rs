//! The paper's §7 experiments behind the `dmm-repro` binary (one module per
//! table, figure or ablation, named in [`experiments::EXPERIMENTS`]), the
//! study layer they share ([`study()`], [`Window`]), and their helpers.

use std::fmt::Write as _;
use std::ops::ControlFlow;

pub mod cli;
pub mod experiments;
pub mod partition_simplex;
mod pool;
mod study;

pub use cli::BenchArgs;
pub use partition_simplex::solve_partitioning_simplex;
pub use study::{study, Run, Window};

use dmm::buffer::ClassId;
use dmm::core::{
    calibrate_goal_range, ControllerKind, ConvergenceStats, Simulation, SystemConfig,
    SystemConfigBuilder,
};
use dmm::obs::JsonLinesSink;
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

/// `v` to two decimals, or `-` when there is none.
pub fn fmt2(v: Option<f64>) -> String {
    v.map_or_else(|| "-".into(), |v| format!("{v:.2}"))
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
/// and accumulate episodes across `seeds` with [`sweep_until_accurate`]
/// until the 99 % CI half-width drops below 1 iteration (or the interval
/// budget is exhausted). The result is bit-identical for every `threads`.
pub fn convergence_speed(
    theta: f64,
    seeds: &[u64],
    max_intervals_per_seed: u32,
    controller: ControllerKind,
    threads: usize,
) -> ConvergenceResult {
    assert!(!seeds.is_empty(), "need at least one seed");
    let (goal_range, schedule) =
        calibrated_goal_schedule(SystemConfig::builder().seed(seeds[0]).theta(theta));
    let configs: Vec<SystemConfig> = seeds
        .iter()
        .map(|&seed| {
            let builder = schedule.clone().seed(seed).controller(controller);
            builder.build().expect("valid replication config")
        })
        .collect();
    let merged = sweep_until_accurate(&configs, ClassId(1), max_intervals_per_seed, threads);
    ConvergenceResult {
        mean_iterations: merged.mean_iterations(),
        ci99_half_width: merged.ci99().half_width,
        episodes: merged.episodes(),
        goal_range,
    }
}

/// Worker threads for a sweep: one per available core.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Every `(a, b)` pair, `a` major: the job list of a variants × seeds grid.
pub fn grid<A: Copy, B: Copy>(a: &[A], b: &[B]) -> Vec<(A, B)> {
    a.iter()
        .flat_map(|&x| b.iter().map(move |&y| (x, y)))
        .collect()
}

/// Runs every job (one independent simulation each, say one cell of a
/// variants × seeds grid) on `threads` workers and returns the results in
/// job order. Built on `pool::replicate_in_order`, so the results are
/// bit-identical for every `threads ≥ 1`.
pub fn sweep<J: Sync, T: Send>(jobs: &[J], threads: usize, run: impl Fn(&J) -> T + Sync) -> Vec<T> {
    let mut results = Vec::with_capacity(jobs.len());
    pool::replicate_in_order(jobs, threads, run, |_, result| {
        results.push(result);
        ControlFlow::Continue(())
    });
    results
}

/// The §7.1 replication: runs each config for `intervals` and merges
/// `class`'s convergence episodes in config order until the merge is
/// [`ConvergenceStats::accurate_enough`] with 20 episodes, or the configs
/// run out. Runs past the cut are never merged, so the result is
/// bit-identical for every `threads ≥ 1`.
pub fn sweep_until_accurate(
    configs: &[SystemConfig],
    class: ClassId,
    intervals: u32,
    threads: usize,
) -> ConvergenceStats {
    let mut merged = ConvergenceStats::new();
    let run = |cfg: &SystemConfig| {
        let mut sim = Simulation::new(cfg.clone());
        sim.run_intervals(intervals);
        sim.convergence(class).clone()
    };
    pool::replicate_in_order(configs, threads, run, |_, stats| {
        merged.merge(&stats);
        if merged.accurate_enough(20) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    merged
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
