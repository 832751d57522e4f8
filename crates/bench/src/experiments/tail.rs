//! **Tail experiment** — the SLO-vs-batch flagship scenario.
//!
//! One latency-critical class carries a *p95* response-time goal (the
//! production-SLO reading of the paper's goals: a tail target, not a mean)
//! while the no-goal batch class grinds through bulk work on the same
//! buffers. The controller must dedicate enough memory to pin the SLO
//! class's p95 at the goal — and no more, because every dedicated frame
//! slows the batch class down. The experiment scores both sides:
//!
//! * **tail compliance** — the settled per-interval p95 of the SLO class
//!   must sit within the controller's tolerance of the goal;
//! * **batch makespan** — the simulated time the batch class needs to
//!   complete a fixed budget of operations must stay within 15 % of the
//!   uncontrolled baseline (the identical workload and seed run with
//!   `ControllerKind::None`, i.e. no memory dedicated to the SLO class).
//!
//! `--quick` shrinks the run for CI smoke use. The summary is written to
//! `BENCH_tail.json` at the workspace root.

use dmm::cluster::SpanMode;
use dmm::core::calibrate_goal_range;
use dmm::obs::Json;
use dmm::prelude::*;

use crate::BenchArgs;

const Q: f64 = 0.95;

/// Runs `total` intervals, recording the batch class's cumulative
/// completion count at every interval boundary.
fn run_counting(cfg: SystemConfig, total: u32) -> (Simulation, Vec<u64>) {
    let mut sim = Simulation::new(cfg);
    let mut batch_cum = Vec::with_capacity(total as usize);
    for _ in 0..total {
        sim.run_intervals(1);
        batch_cum.push(sim.class_completions(ClassId(0)));
    }
    (sim, batch_cum)
}

/// First interval count at which the cumulative completions reach `target`.
fn makespan_intervals(cum: &[u64], target: u64) -> Option<u32> {
    cum.iter().position(|&c| c >= target).map(|i| i as u32 + 1)
}

pub fn run(args: &BenchArgs) {
    let quick = args.quick;
    let class = ClassId(1);
    let seed = args.seed_or(42);
    let (settle, measure, total) = if quick { (3, 3, 24) } else { (6, 6, 60) };

    // Calibrate the reachable p95 band (the §7.3 protocol applied to the
    // goal quantile) and set the goal in the middle: tight enough that the
    // controller must dedicate memory, loose enough that the batch class
    // keeps a workable share.
    let base = SystemConfig::builder()
        .seed(seed)
        .goal_ms(15.0)
        .goal_quantile(Q)
        .build()
        .expect("valid base config");
    let range =
        calibrate_goal_range(&base, class, settle, measure).expect("calibrate the goal range");
    let goal_ms = 0.5 * (range.min_ms + range.max_ms);

    // SLA reading: the p95 goal is an upper bound. The controller still
    // releases memory on clear over-achievement (that is what protects the
    // batch class), but running faster than the goal is compliant.
    let flagship_cfg = SystemConfig::builder()
        .seed(seed)
        .goal_ms(goal_ms)
        .goal_quantile(Q)
        .satisfaction(SatisfactionMode::UpperBound)
        .spans(SpanMode::Histograms)
        .build()
        .expect("valid flagship config");
    let mut baseline_cfg = flagship_cfg.clone();
    baseline_cfg.controller = ControllerKind::None;

    let (sim, flag_cum) = run_counting(flagship_cfg, total);
    let (_, base_cum) = run_counting(baseline_cfg, total);

    // Batch budget: 90 % of what the uncontrolled baseline completed, so
    // both runs cross it comfortably before the horizon.
    let batch_target = base_cum.last().copied().unwrap_or(0) * 9 / 10;
    let base_makespan = makespan_intervals(&base_cum, batch_target);
    let flag_makespan = makespan_intervals(&flag_cum, batch_target);

    let records = sim.records(class);
    let measured: Vec<_> = records
        .iter()
        .filter(|r| r.observed_p_ms.is_some())
        .collect();
    let satisfied = measured
        .iter()
        .filter(|r| r.satisfied == Some(true))
        .count();
    // The score statistic: the settled p95, averaged over the final
    // `measure` intervals (same window calibration used).
    let settled_p95 = sim
        .mean_observed_quantile_ms(class, measure as usize)
        .expect("SLO class produced completions");

    let snap = sim.metrics_snapshot();
    let tolerance_ms = snap
        .get_gauge("core.class1.tolerance_ms")
        .expect("goal class tolerance gauge");
    let last_p95_gauge = snap.get_gauge("core.class1.p95_ms");
    // Whole-run achieved p95 from the data plane's end-to-end histograms
    // (every completion since warm-up, not just the final intervals).
    let overall_p95_ms = snap
        .get_histogram("span.class1.response_time_ns")
        .and_then(|h| h.quantile(Q))
        .map(|ns| ns as f64 / 1e6);

    println!(
        "tail — p95 goal {goal_ms:.2} ms (calibrated band [{:.2}, {:.2}] ms), seed {seed}",
        range.min_ms, range.max_ms
    );
    println!("interval  mean_ms  p95_ms  dedicated_MB  satisfied");
    for r in records {
        let fmt_opt = |v: Option<f64>| v.map_or_else(|| "-".into(), |x| format!("{x:.2}"));
        println!(
            "{:>8}  {:>7}  {:>6}  {:>12.2}  {:>9}",
            r.interval,
            fmt_opt(r.observed_ms),
            fmt_opt(r.observed_p_ms),
            r.dedicated_bytes as f64 / (1024.0 * 1024.0),
            r.satisfied.map_or("-", |s| if s { "yes" } else { "NO" }),
        );
    }
    println!(
        "\nsettled p95 (last {measure} intervals): {settled_p95:.2} ms vs goal {goal_ms:.2} ms (tolerance {tolerance_ms:.2} ms)"
    );
    if let Some(p) = overall_p95_ms {
        println!("whole-run achieved p95 (data plane): {p:.2} ms");
    }
    println!("satisfied intervals: {satisfied}/{}", measured.len());
    let fmt = |v: Option<u32>| v.map_or_else(|| "never".into(), |n| format!("{n} intervals"));
    println!(
        "batch makespan to {batch_target} ops: flagship {}, uncontrolled baseline {}",
        fmt(flag_makespan),
        fmt(base_makespan)
    );

    let makespan_ratio = match (flag_makespan, base_makespan) {
        (Some(f), Some(b)) => Some(f as f64 / b as f64),
        _ => None,
    };
    if let Some(r) = makespan_ratio {
        println!("makespan ratio (flagship / baseline): {r:.3}");
    }

    let doc = Json::obj()
        .field("bench", "tail")
        .field("quick", quick)
        .field("seed", seed)
        .field("goal_metric", "p95")
        .field("q", Q)
        .field("goal_ms", goal_ms)
        .field("calibrated_min_ms", range.min_ms)
        .field("calibrated_max_ms", range.max_ms)
        .field("intervals", total as u64)
        .field("settled_p95_ms", settled_p95)
        .field("last_p95_ms", last_p95_gauge)
        .field("overall_p95_ms", overall_p95_ms)
        .field("tolerance_ms", tolerance_ms)
        .field("satisfied_intervals", satisfied as u64)
        .field("measured_intervals", measured.len() as u64)
        .field("batch_target_ops", batch_target)
        .field("flagship_makespan_intervals", flag_makespan.map(u64::from))
        .field("baseline_makespan_intervals", base_makespan.map(u64::from))
        .field("makespan_ratio", makespan_ratio)
        .field("goal_episodes", sim.convergence(class).episodes());
    crate::cli::write_bench_doc("BENCH_tail.json", &doc);

    // Tail compliance (SLA reading): the settled p95 must not exceed the
    // goal by more than the controller's (quantile-widened) tolerance.
    assert!(
        settled_p95 <= goal_ms + tolerance_ms,
        "settled p95 {settled_p95:.2} ms violates goal {goal_ms:.2} + {tolerance_ms:.2} ms"
    );
    // Batch impact: meeting the SLO may cost the batch class memory, but
    // its makespan must stay within 15 % of the uncontrolled baseline.
    let ratio = makespan_ratio.expect("both runs reach the batch budget");
    assert!(
        ratio <= 1.15,
        "batch makespan ratio {ratio:.3} exceeds the 1.15 budget"
    );
}
