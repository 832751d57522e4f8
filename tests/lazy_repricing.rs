//! Lazy benefit maintenance judged against §6's exact victim: victim regret
//! within measured bounds, goal satisfaction, determinism, and the
//! work-reduction evidence (victim-loop work ≪ a full pricing sweep).

use dmm::buffer::{ClassId, PoolStats, NO_GOAL};
use dmm::cluster::NodeId;
use dmm::core::{ControllerKind, Simulation, SystemConfig};
use dmm::obs::VecSink;
use dmm::workload::GoalRange;

/// The fig2-style base run, shrunk for test speed.
fn config(seed: u64) -> SystemConfig {
    SystemConfig::builder()
        .seed(seed)
        .goal_ms(8.0)
        .db_pages(600)
        .buffer_pages_per_node(128)
        .warmup_intervals(3)
        .build()
        .expect("valid test config")
}

/// A pinned-allocation run (static controller), so pool sizes are fixed and
/// every difference is down to victim selection: `db_pages` over three
/// nodes of `frames` buffer frames each.
fn pinned(db_pages: u32, frames: usize) -> SystemConfig {
    SystemConfig::builder()
        .seed(42)
        .goal_ms(15.0)
        .db_pages(db_pages)
        .buffer_pages_per_node(frames)
        .controller(ControllerKind::Static { fraction: 0.4 })
        .build()
        .expect("valid test config")
}

/// Victim-regret totals over every audited pool of a run.
#[derive(Debug, Default)]
struct Regret {
    audits: usize,
    exact: usize,
    rank_sum: usize,
    regret_sum: f64,
    max_regret: f64,
}

impl Regret {
    fn exact_frac(&self) -> f64 {
        self.exact as f64 / self.audits as f64
    }
    fn mean_rank(&self) -> f64 {
        self.rank_sum as f64 / self.audits as f64
    }
    fn mean_regret(&self) -> f64 {
        self.regret_sum / self.audits as f64
    }
}

/// Runs 30 observation intervals and audits every full pool's victim at
/// the midpoint of intervals 6–30 (`run_intervals` stops half an interval
/// past the boundary), once the pools have filled.
fn audited(cfg: SystemConfig) -> Regret {
    let mut sim = Simulation::new(cfg);
    let mut r = Regret::default();
    for i in 1..=30 {
        sim.run_intervals(1);
        if i < 6 {
            continue;
        }
        for a in sim.plane().victim_regret(sim.now()) {
            r.audits += 1;
            r.exact += usize::from(a.is_exact());
            r.rank_sum += a.rank;
            r.regret_sum += a.regret;
            r.max_regret = r.max_regret.max(a.regret);
        }
    }
    assert!(r.audits > 0, "no pool filled");
    r
}

/// §6 defines the victim as the locally lowest-benefit page. Audited
/// against that definition, the victim loop's choices stay within bounds
/// read off its own measurement at a pinned allocation. Two rows: the
/// paper-scale base run, and 2 048-page pools over a 6 000-page database,
/// where pages stay resident untouched for many intervals and freshness is
/// tested hardest. Seed 42 reads exact 0.29, mean rank 29, mean regret
/// 5.1e-4 (paper-scale) and 0.035, 117, 5.2e-5 (large-pool); skipping the
/// victim loop reads 0.12, 86, 1.9e-3 and 0.007, 292, 2.6e-4, outside the
/// bounds.
#[test]
fn victim_regret_stays_within_its_measured_bounds() {
    for (db_pages, frames, max_rank, max_regret) in
        [(2000, 512, 45.0, 8e-4), (6000, 2048, 175.0, 8e-5)]
    {
        let row = format!("{db_pages} pages, {frames} frames");
        let r = audited(pinned(db_pages, frames));
        println!(
            "{row}: {} audits, exact {:.3}, mean rank {:.1}, mean regret {:.2e}, max {:.2e}",
            r.audits,
            r.exact_frac(),
            r.mean_rank(),
            r.mean_regret(),
            r.max_regret
        );
        assert!(
            r.mean_rank() <= max_rank,
            "{row}: mean victim rank {:.1} exceeds {max_rank}",
            r.mean_rank()
        );
        assert!(
            r.mean_regret() <= max_regret,
            "{row}: mean regret {:.2e} exceeds {max_regret:.0e}",
            r.mean_regret()
        );
    }
}

/// The audit is read-only: a run audited at every interval emits the same
/// trace bytes as the same run unaudited.
#[test]
fn auditing_every_interval_leaves_the_trace_byte_identical() {
    let traced = |audit: bool| {
        let sink = VecSink::new();
        let mut sim = Simulation::new(config(7));
        sim.set_trace_sink(Box::new(sink.handle()));
        let mut audits = 0;
        for _ in 0..20 {
            sim.run_intervals(1);
            if audit {
                audits += sim.plane().victim_regret(sim.now()).len();
            }
        }
        (sink.to_jsonl(), audits)
    };
    let (plain, _) = traced(false);
    let (audited, audits) = traced(true);
    assert!(audits > 0, "no pool was audited");
    assert_eq!(plain.as_bytes(), audited.as_bytes());
}

/// Under the closed-loop controller the contract is the goal itself: the
/// paper-scale base run (3 nodes × 512-page pools, 2000-page database)
/// meets its response-time goal.
#[test]
fn lazy_satisfies_the_goal_the_controller_holds() {
    const GOAL_MS: f64 = 15.0;
    let cfg = SystemConfig::builder()
        .seed(42)
        .goal_ms(GOAL_MS)
        .build()
        .expect("valid test config");
    let mut sim = Simulation::new(cfg);
    sim.run_intervals(30);
    let mut class_pool = PoolStats::default();
    let mut nogoal_pool = PoolStats::default();
    for n in 0..3 {
        class_pool.merge(&sim.plane().pool_stats(NodeId(n), ClassId(1)));
        nogoal_pool.merge(&sim.plane().pool_stats(NodeId(n), NO_GOAL));
    }
    let class_rt_ms = sim.mean_observed_ms(ClassId(1), 8).expect("data");
    println!(
        "class RT {class_rt_ms:.2} ms, hit rates {:.4} / {:.4}",
        class_pool.hit_rate(),
        nogoal_pool.hit_rate()
    );
    assert!(
        class_rt_ms <= GOAL_MS * 1.15,
        "goal missed ({class_rt_ms:.2} ms vs {GOAL_MS} ms)"
    );
}

/// The acceptance evidence for lazy maintenance: it costs
/// O(evictions · log pool) per interval where a full pricing sweep costs
/// O(pool pages · log pool). The gap opens at realistic buffer sizes —
/// pools large relative to the eviction churn — so this runs 2 048-page
/// pools over a 6 000-page database and checks the counters.
#[test]
fn victim_loop_recomputes_far_fewer_benefits_than_a_full_sweep() {
    let mut sim = Simulation::new(pinned(6000, 2048));
    sim.run_intervals(30);
    let stats = *sim.plane().reprice_stats();
    println!("{stats:?}");
    // What one pricing sweep per interval over the resident pages would
    // visit; the resident set is the full 3 × 2 048 frames once filled.
    let sweep_pages = 30 * 3 * 2048;
    // Maintenance-only work: stale-min refreshes plus the rare resize
    // walks, versus the sweep's page visits.
    let maintenance = stats.heap_retries + stats.sweep_pages;
    assert!(
        maintenance * 3 < sweep_pages,
        "maintenance ({maintenance}) must be ≪ a per-interval sweep ({sweep_pages} pages)"
    );
    // The counters surface through the metrics snapshot for dashboards.
    let snap = sim.metrics_snapshot();
    assert_eq!(
        snap.get_counter("cluster.reprice.recomputes"),
        Some(stats.recomputes)
    );
    assert_eq!(
        snap.get_counter("cluster.reprice.heap_retries"),
        Some(stats.heap_retries)
    );
    // A benefit stays fresh until an input changes; age alone re-prices
    // only a last copy past its horizon. So once the pools have filled,
    // victim-loop retries stay below the invalidations that pay for them
    // (a two-epoch freshness window for every page reads ~1.03 retries
    // per invalidation over these intervals).
    sim.run_intervals(30);
    let later = *sim.plane().reprice_stats();
    let retries = later.heap_retries - stats.heap_retries;
    let stale_marks = later.stale_marks - stats.stale_marks;
    assert!(
        retries <= stale_marks,
        "victim-loop retries ({retries}) exceed invalidations ({stale_marks})"
    );
}

/// Lazy maintenance stays deterministic: the same seed yields a
/// byte-identical structured trace.
#[test]
fn lazy_traces_are_byte_identical_per_seed() {
    let traced = |seed: u64| {
        let mut cfg = config(seed);
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
