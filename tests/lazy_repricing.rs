//! Lazy benefit maintenance: equivalence with the eager sweep, determinism,
//! and the work-reduction evidence (lazy recomputes ≪ eager sweep pages).

use dmm::buffer::{ClassId, PoolStats, NO_GOAL};
use dmm::cluster::{NodeId, RepricingMode};
use dmm::core::{ControllerKind, Simulation, SystemConfig};
use dmm::obs::VecSink;
use dmm::workload::GoalRange;

/// The fig2-style base run, shrunk for test speed, with a selectable
/// repricing mode.
fn config(seed: u64, mode: RepricingMode) -> SystemConfig {
    SystemConfig::builder()
        .seed(seed)
        .goal_ms(8.0)
        .db_pages(600)
        .buffer_pages_per_node(128)
        .repricing(mode)
        .warmup_intervals(3)
        .build()
        .expect("valid test config")
}

#[derive(Debug)]
struct Summary {
    class_rt_ms: f64,
    class_hit_rate: f64,
    nogoal_hit_rate: f64,
    disk_reads: u64,
    completions: u64,
}

fn summarize(sim: &Simulation) -> Summary {
    let mut class_pool = PoolStats::default();
    let mut nogoal_pool = PoolStats::default();
    let mut disk_reads = 0;
    for n in 0..3 {
        let node = NodeId(n as u16);
        class_pool.merge(&sim.plane().pool_stats(node, ClassId(1)));
        nogoal_pool.merge(&sim.plane().pool_stats(node, NO_GOAL));
        disk_reads += sim.plane().disk_reads(node);
    }
    Summary {
        class_rt_ms: sim.mean_observed_ms(ClassId(1), 8).expect("data"),
        class_hit_rate: class_pool.hit_rate(),
        nogoal_hit_rate: nogoal_pool.hit_rate(),
        disk_reads,
        completions: sim.plane().completions(),
    }
}

/// The paper-scale base run (3 nodes × 512-page pools, 2000-page database)
/// in a selectable repricing mode.
fn paper_scale(mode: RepricingMode) -> Simulation {
    let cfg = SystemConfig::builder()
        .seed(42)
        .goal_ms(15.0)
        .repricing(mode)
        .build()
        .expect("valid test config");
    let mut sim = Simulation::new(cfg);
    sim.run_intervals(30);
    sim
}

/// Caching-quality equivalence, measured where it can be measured cleanly:
/// at a *fixed* memory allocation (static controller), so the two modes see
/// identical pool sizes and every difference is down to victim selection.
/// Victim *choices* may differ (lazy evicts on benefits re-priced at
/// eviction time, eager on a once-per-interval snapshot), but hit rates,
/// response times and disk I/O — the metrics the paper's experiments key
/// on — must agree closely. Two rows: the paper-scale base run, and
/// 2 048-page pools over a 6 000-page database, where pages stay resident
/// untouched for many intervals and lazy freshness is tested hardest.
#[test]
fn lazy_matches_eager_at_a_fixed_allocation() {
    for (db_pages, frames) in [(2000, 512), (6000, 2048)] {
        let run = |mode| {
            let cfg = SystemConfig::builder()
                .seed(42)
                .goal_ms(15.0)
                .db_pages(db_pages)
                .buffer_pages_per_node(frames)
                .controller(ControllerKind::Static { fraction: 0.4 })
                .repricing(mode)
                .build()
                .expect("valid test config");
            let mut sim = Simulation::new(cfg);
            sim.run_intervals(30);
            summarize(&sim)
        };
        let eager = run(RepricingMode::Eager);
        let lazy = run(RepricingMode::Lazy);
        let row = format!("{db_pages} pages, {frames} frames");
        println!("{row}: eager: {eager:?}");
        println!("{row}: lazy:  {lazy:?}");
        assert!(
            (lazy.class_hit_rate - eager.class_hit_rate).abs() < 0.02,
            "{row}: class hit rate drifted: eager {:.4} vs lazy {:.4}",
            eager.class_hit_rate,
            lazy.class_hit_rate
        );
        assert!(
            (lazy.nogoal_hit_rate - eager.nogoal_hit_rate).abs() < 0.02,
            "{row}: no-goal hit rate drifted: eager {:.4} vs lazy {:.4}",
            eager.nogoal_hit_rate,
            lazy.nogoal_hit_rate
        );
        let rt_ratio = lazy.class_rt_ms / eager.class_rt_ms;
        assert!(
            (0.9..1.1).contains(&rt_ratio),
            "{row}: class RT drifted: eager {:.2} ms vs lazy {:.2} ms",
            eager.class_rt_ms,
            lazy.class_rt_ms
        );
        let disk_ratio = lazy.disk_reads as f64 / eager.disk_reads as f64;
        assert!(
            (0.85..1.15).contains(&disk_ratio),
            "{row}: disk I/O drifted: eager {} vs lazy {}",
            eager.disk_reads,
            lazy.disk_reads
        );
        // Throughput is workload-driven; both modes complete the same offered
        // load to within a fraction of a percent.
        let thr_ratio = lazy.completions as f64 / eager.completions as f64;
        assert!(
            (0.995..1.005).contains(&thr_ratio),
            "{row}: throughput {thr_ratio:.4}"
        );
    }
}

/// Under the closed-loop controller the two modes need not land on the
/// *same* allocation — small transient differences in victim timing can
/// push the hysteretic controller to a different goal-satisfying fixed
/// point (release is deliberately conservative, so nearby plateaus are all
/// stable). What lazy mode must preserve is the contract: the goal class
/// meets its response-time goal, and throughput is unchanged.
#[test]
fn lazy_satisfies_the_goal_the_controller_holds() {
    const GOAL_MS: f64 = 15.0;
    let eager = summarize(&paper_scale(RepricingMode::Eager));
    let lazy = summarize(&paper_scale(RepricingMode::Lazy));
    println!("eager: {eager:?}");
    println!("lazy:  {lazy:?}");
    for (name, s) in [("eager", &eager), ("lazy", &lazy)] {
        assert!(
            s.class_rt_ms <= GOAL_MS * 1.15,
            "{name}: goal missed ({:.2} ms vs {GOAL_MS} ms)",
            s.class_rt_ms
        );
    }
    let thr_ratio = lazy.completions as f64 / eager.completions as f64;
    assert!((0.995..1.005).contains(&thr_ratio));
}

/// The acceptance evidence for the tentpole: lazy maintenance costs
/// O(evictions · log pool) per interval where the eager sweep costs
/// O(pool pages · log pool). The gap opens at realistic buffer sizes —
/// pools large relative to the eviction churn (the paper-scale test config
/// churns its 1 536 pool pages faster than once per interval, which no
/// maintenance scheme can beat asymptotically) — so this runs 2 048-page
/// pools over a 6 000-page database and checks the counters.
#[test]
fn lazy_recomputes_far_fewer_benefits_than_the_eager_sweep() {
    let large_pools = |mode| {
        let cfg = SystemConfig::builder()
            .seed(42)
            .goal_ms(15.0)
            .db_pages(6000)
            .buffer_pages_per_node(2048)
            .controller(ControllerKind::Static { fraction: 0.4 })
            .repricing(mode)
            .build()
            .expect("valid test config");
        let mut sim = Simulation::new(cfg);
        sim.run_intervals(30);
        sim
    };
    let eager_sim = large_pools(RepricingMode::Eager);
    let mut lazy_sim = large_pools(RepricingMode::Lazy);
    let eager_stats = eager_sim.plane().reprice_stats();
    let lazy_stats = lazy_sim.plane().reprice_stats();
    println!("eager: {eager_stats:?}");
    println!("lazy:  {lazy_stats:?}");
    assert!(eager_stats.sweeps >= 30, "eager sweeps once per interval");
    assert!(eager_stats.sweep_pages > 0);
    assert_eq!(lazy_stats.sweeps, 0, "lazy never runs the full sweep");
    // Total pricing work: both modes price pages on the access path; on top
    // of that eager pays the full per-interval sweep while lazy pays only
    // the stale-min refreshes — the total must shrink substantially.
    assert!(
        lazy_stats.recomputes * 2 < eager_stats.recomputes,
        "lazy total recomputes ({}) must be well below eager's ({})",
        lazy_stats.recomputes,
        eager_stats.recomputes
    );
    // Maintenance-only work (what replaced the sweep): stale-min refreshes
    // plus the rare resize refreshes, versus the sweep's page visits.
    let lazy_maintenance = lazy_stats.heap_retries + lazy_stats.sweep_pages;
    assert!(
        lazy_maintenance * 3 < eager_stats.sweep_pages,
        "lazy maintenance ({lazy_maintenance}) must be ≪ eager sweep pages ({})",
        eager_stats.sweep_pages
    );
    // The counters surface through the metrics snapshot for dashboards.
    let snap = lazy_sim.metrics_snapshot();
    assert_eq!(
        snap.get_counter("cluster.reprice.lazy_recomputes"),
        Some(lazy_stats.lazy_recomputes)
    );
    assert_eq!(snap.get_counter("cluster.reprice.sweeps"), Some(0));
    // A benefit stays fresh until an input changes; age alone re-prices
    // only a last copy past its horizon. So once the pools have filled,
    // victim-loop retries stay below the invalidations that pay for them
    // (a two-epoch freshness window for every page reads ~1.03 retries
    // per invalidation over these intervals).
    let filled = *lazy_sim.plane().reprice_stats();
    lazy_sim.run_intervals(30);
    let later = *lazy_sim.plane().reprice_stats();
    let retries = later.heap_retries - filled.heap_retries;
    let stale_marks = later.stale_marks - filled.stale_marks;
    assert!(
        retries <= stale_marks,
        "victim-loop retries ({retries}) exceed invalidations ({stale_marks})"
    );
}

/// Lazy mode stays deterministic: the same seed yields a byte-identical
/// structured trace.
#[test]
fn lazy_traces_are_byte_identical_per_seed() {
    let traced = |seed: u64| {
        let mut cfg = config(seed, RepricingMode::Lazy);
        cfg.goal_range = Some(GoalRange::new(4.0, 40.0));
        let sink = VecSink::new();
        let mut sim = Simulation::new(cfg);
        sim.set_trace_sink(Box::new(sink.handle()));
        sim.run_intervals(25);
        sink.to_jsonl()
    };
    let a = traced(7);
    let b = traced(7);
    assert!(!a.is_empty());
    assert_eq!(a.as_bytes(), b.as_bytes(), "same seed, same bytes");
    assert_ne!(a, traced(8), "different seed, different trace");
}
