//! **Degradation experiment** — graceful degradation under node failure.
//!
//! The paper's method is a feedback loop; a node crash is the harshest
//! workload shift it can face: a third of the cluster memory vanishes, the
//! directory drops every copy the dead node held (last copies must be
//! re-read from disk), and the LP must re-partition over the survivors. We
//! run the fig2 base experiment with a deterministic fault plan — node 2
//! crashes mid-run and rejoins cold later — and measure how many
//! observation intervals the controller needs to re-satisfy the goal after
//! each topology change, plus the degradation counters (last-copy losses,
//! mirror reads, aborted operations).
//!
//! `--quick` shrinks the run for CI smoke use. The summary is written to
//! `BENCH_degradation.json` at the workspace root.

use dmm::core::calibrate_goal_range;
use dmm::obs::Json;
use dmm::prelude::*;

use crate::{fmt2, BenchArgs, Window};

pub fn run(args: &BenchArgs) {
    let quick = args.quick;
    let class = ClassId(1);
    let seed = args.seed_or(42);

    let base = SystemConfig::builder()
        .seed(seed)
        .goal_ms(15.0)
        .build()
        .expect("valid base config");
    let (settle, measure) = if quick { (3, 3) } else { (6, 6) };
    let range =
        calibrate_goal_range(&base, class, settle, measure).expect("calibrate the goal range");
    let goal_ms = range.max_ms * 0.8;

    // Crash and restart land mid-interval (x.5 intervals) so fault events
    // never tie with interval boundaries in the event queue.
    let (crash_iv, restart_iv, total) = if quick { (18, 36, 48) } else { (30, 60, 84) };
    let interval_ms = 5_000u64;
    let plan = FaultPlan::new(seed)
        .crash_ms(NodeId(2), crash_iv as u64 * interval_ms + interval_ms / 2)
        .restart_ms(NodeId(2), restart_iv as u64 * interval_ms + interval_ms / 2);

    let cfg = SystemConfig::builder()
        .seed(seed)
        .goal_ms(goal_ms)
        .fault_plan(plan)
        .build()
        .expect("valid degradation config");
    let mut sim = Simulation::new(cfg);
    sim.run_intervals(total);

    let records = sim.records(class);
    // Intervals to the first satisfied one after the fault. The crash halves
    // the memory pool so the class converges from above; after the restart
    // the class overshoots (extra memory) and the controller releases
    // frames, so a single in-band interval is the honest convergence marker.
    let window = Window::range(records, ..);
    let reconverge = |t: u32| window.first_satisfied_after(t).map(|i| i - t);
    let (crash_reconv, restart_reconv) = (reconverge(crash_iv), reconverge(restart_iv));

    let snap = sim.metrics_snapshot();
    let counter = |k: &str| snap.get_counter(k).unwrap_or(0);
    let stats = sim.plane().fault_stats();

    println!(
        "degradation — goal {goal_ms:.2} ms, crash @ interval {crash_iv}, restart @ {restart_iv}"
    );
    println!("interval  observed_ms  dedicated_MB  satisfied  live");
    for r in records {
        let live = if (crash_iv..restart_iv).contains(&r.interval) {
            2
        } else {
            3
        };
        let marker = if r.interval == crash_iv {
            "  <- crash"
        } else if r.interval == restart_iv {
            "  <- restart"
        } else {
            ""
        };
        println!(
            "{:>8}  {:>11}  {:>12.2}  {:>9}  {:>4}{}",
            r.interval,
            fmt2(r.observed_ms),
            r.dedicated_bytes as f64 / (1024.0 * 1024.0),
            r.satisfied.map_or("-", |s| if s { "yes" } else { "NO" }),
            live,
            marker,
        );
    }
    let fmt = |v: Option<u32>| v.map_or_else(|| "never".into(), |n| format!("{n} intervals"));
    println!("\nre-converged after crash:   {}", fmt(crash_reconv));
    println!("re-converged after restart: {}", fmt(restart_reconv));
    println!(
        "last-copy losses: {}, mirror reads: {}, ops aborted: {}",
        stats.last_copy_losses, stats.mirror_reads, stats.ops_aborted
    );

    let doc = Json::obj()
        .field("bench", "degradation")
        .field("quick", quick)
        .field("seed", seed)
        .field("goal_ms", goal_ms)
        .field("crash_interval", crash_iv as u64)
        .field("restart_interval", restart_iv as u64)
        .field("intervals", total as u64)
        .field("crash_reconverge_intervals", crash_reconv.map(|v| v as u64))
        .field(
            "restart_reconverge_intervals",
            restart_reconv.map(|v| v as u64),
        )
        .field("crashes", counter("cluster.fault.crashes"))
        .field("restarts", counter("cluster.fault.restarts"))
        .field(
            "last_copy_losses",
            counter("cluster.fault.last_copy_losses"),
        )
        .field("ops_aborted", counter("cluster.fault.ops_aborted"))
        .field("mirror_reads", counter("cluster.fault.mirror_reads"))
        .field("goal_episodes", sim.convergence(class).episodes());
    crate::cli::write_bench_doc("BENCH_degradation.json", &doc);

    assert_eq!(counter("cluster.fault.crashes"), 1);
    assert_eq!(counter("cluster.fault.restarts"), 1);
    assert!(
        crash_reconv.is_some(),
        "the controller must re-converge on the surviving nodes"
    );
}
