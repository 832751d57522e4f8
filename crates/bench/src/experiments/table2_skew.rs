//! **Table 2** (paper §7.3): convergence speed of the feedback loop under
//! varying access skew θ.
//!
//! Protocol (§7.1/§7.3): goals are drawn from the calibrated
//! `[goal_min, goal_max]` (response times at 2/3 resp. 1/3 of the aggregate
//! cache dedicated); after four consecutive satisfied intervals the goal is
//! re-randomized; we report the mean number of feedback-loop iterations to
//! re-satisfy the goal, replicated until the 99 % CI half-width is below one
//! iteration.
//!
//! Paper's row (SUN/ICDE'99): θ 0 → 1.84, 0.25 → 2.41, 0.5 → 3.55,
//! 0.75 → 3.88, 1.0 → 3.95. The reproduction target is the monotone
//! increase with θ and the "< 4 iterations even at θ=1" headline.

use dmm::buffer::ClassId;
use dmm::core::{SystemConfig, SystemConfigBuilder};
use dmm::obs::Json;
use dmm::workload::GoalRange;

use crate::{convergence_speed, render_table, workers, BenchArgs, ConvergenceResult};

/// The Table 2 row at skew `theta`: the base system calibrated at the first
/// seed under a 15 ms placeholder goal, then one replication per seed with
/// its goal at `goal_max` and the goal schedule on.
fn skew_row(theta: f64, seeds: &[u64]) -> ConvergenceResult {
    let base = SystemConfig::builder().theta(theta);
    let build = |builder: SystemConfigBuilder| builder.build().expect("valid config");
    let calibration = build(base.clone().seed(seeds[0]).goal_ms(15.0));
    let replications = |range: GoalRange| {
        let schedule = base.clone().goal_ms(range.max_ms).goal_range(range);
        let replication = |&seed| build(schedule.clone().seed(seed));
        seeds.iter().map(replication).collect()
    };
    convergence_speed(&calibration, ClassId(1), replications, 400, workers())
}

pub fn run(args: &BenchArgs) {
    let json = args.json;
    let thetas = [0.0, 0.25, 0.5, 0.75, 1.0];
    let seeds: Vec<u64> = (1..=8).map(|s| 1000 + s).collect();
    let mut rows = Vec::new();
    let mut json_lines = String::new();
    for &theta in &thetas {
        let r = skew_row(theta, &seeds);
        if json {
            let line = Json::obj()
                .field("bench", "table2_skew")
                .field("theta", theta)
                .field("mean_iterations", r.mean_iterations)
                .field("ci99_half_width", r.ci99_half_width)
                .field("episodes", r.episodes)
                .field("goal_min_ms", r.goal_range.min_ms)
                .field("goal_max_ms", r.goal_range.max_ms);
            json_lines.push_str(&line.to_string());
            json_lines.push('\n');
        }
        rows.push(r.row(format!("{theta:.2}")));
        eprintln!("theta {theta}: done ({} episodes)", r.episodes);
    }
    println!("Table 2 — convergence speed under varying skew");
    println!(
        "{}",
        render_table(&ConvergenceResult::header("theta"), &rows)
    );
    println!("paper:  0 → 1.84, 0.25 → 2.41, 0.5 → 3.55, 0.75 → 3.88, 1.0 → 3.95");
    if json {
        let path = crate::cli::results_path("table2_skew.jsonl");
        std::fs::write(&path, json_lines).expect("write results/table2_skew.jsonl");
        eprintln!("rows: {}", path.display());
    }
}
