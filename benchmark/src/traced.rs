//! The traced run: after the untraced repeats, one pass per workload that
//! says where the time and the work went, layer by layer.
//!
//! Three parts (see the README for how to read their output):
//! (a) the *full pass* — the real `Simulation` with spans around each
//!     interval, each metrics snapshot and each sink drain, a streaming sink
//!     attached on every workload, and the system's own counters harvested
//!     before and after;
//! (b) the *shadow pass* ([`crate::shadow`]) — per-call spans over the
//!     public engine, generator and data plane;
//! (c) the *kernel pass* ([`crate::kernels`]) — direct timed calls on
//!     inputs harvested from (a) and (b).
//! End-to-end metrics never come from here: tracing costs time.

use std::hint::black_box;
use std::time::Instant;

use dmm::buffer::{PoolStats, NO_GOAL};
use dmm::cluster::{CostSlot, NodeId, RepriceStats, SpanMode};
use dmm::core::{ControllerKind, Simulation};
use dmm::obs::Json;
use dmm::sim::SchedStats;

use crate::kernels;
use crate::measure::{
    dedicated_pages, divergence, median, min_f64, percentile, quality, warm_up, Repeat,
    SegmentStart,
};
use crate::report::{Values, PER_LAYER};
use crate::shadow;
use crate::spans::{SpanCost, Tracer};
use crate::workloads::{instantiate, Prepared, Workload, GOAL};
use crate::{alloc, Untraced};

const FULL_NAMES: &[&str] = &[
    "core.run_interval",
    "obs.sink_drain",
    "obs.metrics_snapshot",
];
const RUN_INTERVAL: usize = 0;
const SINK_DRAIN: usize = 1;
const SNAPSHOT: usize = 2;

/// Cumulative counters the system keeps about itself, read before and
/// after the full pass's timed segment.
struct Harvest {
    /// Cost-estimator observations per storage slot.
    level: Vec<u64>,
    net_bytes: u64,
    disk_reads: u64,
    reprice: RepriceStats,
    pool_goal: PoolStats,
    pool_nogoal: PoolStats,
    promotions: u64,
    demotions: u64,
    home_reads: Vec<u64>,
    sched: SchedStats,
    checks: u64,
    optimizations: u64,
}

impl Harvest {
    fn read(sim: &Simulation) -> Self {
        let plane = sim.plane();
        let nodes = (0..plane.num_nodes()).map(|n| NodeId(n as u16));
        let slots = plane.params().tiers.num_slots();
        let snap = sim.metrics_snapshot();
        let counter = |name: &str| snap.get_counter(name).unwrap_or(0);
        let mut pool_goal = PoolStats::default();
        let mut pool_nogoal = PoolStats::default();
        let (mut promotions, mut demotions) = (0, 0);
        for node in nodes.clone() {
            pool_goal.merge(&plane.pool_stats(node, GOAL));
            pool_nogoal.merge(&plane.pool_stats(node, NO_GOAL));
            for t in 0..plane.params().tiers.num_memory_tiers() {
                let key = format!("cluster.node{}.tier{t}", node.index());
                promotions += counter(&format!("{key}.promotions"));
                demotions += counter(&format!("{key}.demotions"));
            }
        }
        Harvest {
            level: (0..slots)
                .map(|i| plane.costs().observations(CostSlot(i as u8)))
                .collect(),
            net_bytes: plane.network().data_bytes() + plane.network().control_bytes(),
            disk_reads: nodes.map(|n| plane.disk_reads(n)).sum(),
            reprice: *plane.reprice_stats(),
            pool_goal,
            pool_nogoal,
            promotions,
            demotions,
            home_reads: plane.home_load().home_reads,
            sched: sim.sched_stats(),
            checks: counter("core.class1.checks"),
            optimizations: counter("core.class1.optimizations"),
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn hit_frac(after: &PoolStats, before: &PoolStats) -> f64 {
    let hits = after.hits - before.hits;
    ratio(hits, hits + after.misses - before.misses)
}

/// Same configuration with spans off vs histogram spans, stepped
/// alternately one interval at a time so host noise hits both alike.
/// Returns `wall(histograms) / wall(off) − 1`.
fn span_overhead_frac(w: &Workload, prepared: &Prepared, intervals: u32) -> f64 {
    let variant = |spans: SpanMode| {
        let mut config = prepared.config.clone();
        config.cluster.spans = spans;
        let p = Prepared {
            config,
            warm: prepared.warm.clone(),
            stream: false,
            script: prepared.script,
        };
        let mut run = instantiate(&p, false);
        for _ in 0..w.warmup.min(50) {
            black_box(run.step());
        }
        run
    };
    let mut runs = [variant(SpanMode::Off), variant(SpanMode::Histograms)];
    let mut wall = [0u64; 2];
    for i in 0..intervals as usize {
        for k in [i % 2, 1 - i % 2] {
            let t = Instant::now();
            black_box(runs[k].step());
            wall[k] += t.elapsed().as_nanos() as u64;
        }
    }
    wall[1] as f64 / wall[0].max(1) as f64 - 1.0
}

/// What the traced run produced.
pub struct Traced {
    pub values: Values,
    /// Correctness violations found along the way (empty = none).
    pub violations: Vec<String>,
    /// Contents of `out/trace_<workload>.json`.
    pub trace_file: Json,
}

pub fn run(
    w: &Workload,
    seed: u64,
    prepared: &Prepared,
    intervals: u32,
    untraced: &Untraced,
) -> Traced {
    let mut violations = Vec::new();
    let mut v = Values::new(PER_LAYER);
    let cost: SpanCost = Tracer::calibrate();
    let reference: &Repeat = &untraced.repeats[0];

    // -- (a) full pass -------------------------------------------------------
    let (mut run, warm_s) = warm_up(w, prepared, true);
    let start = SegmentStart::mark(&run);
    let before = Harvest::read(&run.sim);
    let mut full = Tracer::new(FULL_NAMES);
    let mut lines: Vec<String> = Vec::new();
    let mut wall_ns = Vec::with_capacity(intervals as usize);
    let allocs_before = alloc::count();
    for _ in 0..intervals {
        let t = Instant::now();
        run.apply_script();
        full.enter(RUN_INTERVAL);
        run.sim.run_intervals(1);
        full.exit();
        full.enter(SINK_DRAIN);
        let drained = run.drain();
        full.exit();
        wall_ns.push(t.elapsed().as_nanos() as u64);
        lines.extend(drained);
        full.enter(SNAPSHOT);
        black_box(run.sim.metrics_snapshot());
        full.exit();
    }
    let allocs = alloc::count() - allocs_before;
    let after = Harvest::read(&run.sim);
    let now = run.sim.now();
    let pinned = dedicated_pages(&run.sim);
    let plane = run.sim.plane();
    let net_utilization = plane.network().utilization(now);
    let max_link = (0..plane.num_nodes())
        .filter_map(|n| plane.network().link_utilization(n, now))
        .map(|u| u.tx.max(u.rx))
        .fold(f64::NAN, f64::max);
    let dropped = run.stream.as_ref().map_or(0, |s| s.dropped_records());
    let mut pass = start.finish(&run, warm_s, wall_ns, allocs);
    drop(run);

    // The traced pass must have simulated the very same system. Its
    // allocation count is exempt: emitting a trace allocates.
    pass.allocs = reference.allocs;
    if let Some(d) = divergence(reference, &pass) {
        violations.push(format!("traced full pass diverged from repeat 0: {d}"));
    }
    if dropped > 0 {
        violations.push(format!("the harvesting sink dropped {dropped} records"));
    }

    let ops = pass.ops;
    let level = |i: usize| after.level[i] - before.level[i];
    let mem_tiers = prepared.config.cluster.tiers.num_memory_tiers();
    let accesses: u64 = (0..after.level.len()).map(level).sum();
    let local: u64 = (0..mem_tiers).map(level).sum();
    v.set("sim.events_per_op", ratio(pass.events, ops));
    v.set("sim.sched_peak_pending", after.sched.peak_pending as f64);
    v.set(
        "sim.sched_cascades_per_event",
        ratio(after.sched.cascaded - before.sched.cascaded, pass.events),
    );
    v.set_n(
        "cluster.local_hit_frac",
        ratio(local, accesses),
        format!("{accesses} accesses"),
    );
    v.set("cluster.remote_hit_frac", ratio(level(mem_tiers), accesses));
    v.set(
        "cluster.disk_frac",
        ratio(level(mem_tiers + 1) + level(mem_tiers + 2), accesses),
    );
    v.set(
        "cluster.net_bytes_per_op",
        ratio(after.net_bytes - before.net_bytes, ops),
    );
    v.set("cluster.net_utilization", net_utilization);
    v.set(
        "cluster.max_link_utilization",
        if max_link.is_nan() {
            net_utilization
        } else {
            max_link
        },
    );
    v.set(
        "cluster.disk_reads_per_op",
        ratio(after.disk_reads - before.disk_reads, ops),
    );
    let home: Vec<u64> = after
        .home_reads
        .iter()
        .zip(&before.home_reads)
        .map(|(a, b)| a - b)
        .collect();
    let home_total: u64 = home.iter().sum();
    v.set(
        "cluster.home_read_imbalance",
        if home_total == 0 {
            1.0
        } else {
            *home.iter().max().expect("at least one node") as f64 * home.len() as f64
                / home_total as f64
        },
    );
    let (r1, r0) = (&after.reprice, &before.reprice);
    let evictions = (after.pool_goal.evictions - before.pool_goal.evictions)
        + (after.pool_nogoal.evictions - before.pool_nogoal.evictions);
    v.set(
        "cluster.reprice_recomputes_per_op",
        ratio(r1.recomputes - r0.recomputes, ops),
    );
    v.set_n(
        "cluster.heap_retries_per_eviction",
        ratio(r1.heap_retries - r0.heap_retries, evictions),
        format!("{evictions} evictions"),
    );
    let heat_hits = r1.heat_cache_hits - r0.heat_cache_hits;
    v.set(
        "cluster.heat_cache_hit_frac",
        ratio(
            heat_hits,
            heat_hits + r1.heat_cache_misses - r0.heat_cache_misses,
        ),
    );
    v.set(
        "cluster.sweep_pages_per_interval",
        ratio(r1.sweep_pages - r0.sweep_pages, u64::from(intervals)),
    );
    v.set_n(
        "cluster.op_fail_frac",
        ratio(pass.aborted, pass.started),
        format!("{} failed of {} started", pass.aborted, pass.started),
    );
    v.set(
        "buffer.hit_frac.goal",
        hit_frac(&after.pool_goal, &before.pool_goal),
    );
    v.set(
        "buffer.hit_frac.nogoal",
        hit_frac(&after.pool_nogoal, &before.pool_nogoal),
    );
    v.set("buffer.evictions_per_op", ratio(evictions, ops));
    v.set(
        "buffer.promotions_per_op",
        ratio(after.promotions - before.promotions, ops),
    );
    v.set(
        "buffer.demotions_per_op",
        ratio(after.demotions - before.demotions, ops),
    );
    v.set(
        "buffer.resizes",
        ((after.pool_goal.resizes - before.pool_goal.resizes)
            + (after.pool_nogoal.resizes - before.pool_nogoal.resizes)) as f64,
    );
    let checks = after.checks - before.checks;
    let optimizations = after.optimizations - before.optimizations;
    v.set("core.checks", checks as f64);
    v.set("core.optimizations", optimizations as f64);
    v.set("core.episodes", quality(&pass.records).episodes as f64);
    v.set_n(
        "obs.snapshot_ms",
        full.mean_ns(SNAPSHOT, cost) / 1e6,
        format!("{} snapshots", full.agg(SNAPSHOT).count),
    );
    v.set_n(
        "obs.trace_records_per_interval",
        lines.len() as f64 / f64::from(intervals),
        format!("{} records", lines.len()),
    );
    let traced_wall: u64 = pass.wall_ns.iter().sum();
    v.set_n(
        "bench.trace_overhead_frac",
        traced_wall as f64 / untraced.quiet_ns() as f64 - 1.0,
        "one traced pass vs the quiet wall; sink on, host noise not folded",
    );

    // -- (b) shadow pass -----------------------------------------------------
    let sh = shadow::run(&prepared.config, &pinned, w.warmup, intervals);
    if !sh.conserved {
        violations.push("shadow pass: started != completed + in flight".to_string());
    }
    let st = &sh.tracer;
    let children = st.agg(shadow::RUN_UNTIL).children.max(1);
    v.set_n(
        "sim.dispatch_ns_per_event",
        st.self_ns(shadow::RUN_UNTIL, cost) / sh.events.max(1) as f64,
        format!(
            "{} events, {children} child spans, {} ops completed",
            sh.events, sh.completed
        ),
    );
    v.set_n(
        "workload.make_op_ns",
        st.mean_ns(shadow::MAKE_OP, cost),
        format!("{} ops", st.agg(shadow::MAKE_OP).count),
    );
    v.set("workload.pages_per_op", ratio(sh.pages, sh.started));
    v.set("cluster.start_op_ns", st.mean_ns(shadow::START_OP, cost));
    let mut step_ns = 0.0;
    for (i, suffix) in shadow::STEP_SUFFIXES.iter().enumerate() {
        let name = shadow::STEP0 + i;
        let count = st.agg(name).count;
        step_ns += st.mean_ns(name, cost) * count as f64;
        v.set_n(
            &format!("cluster.step_ns.{suffix}"),
            st.mean_ns(name, cost),
            format!("{count} steps"),
        );
    }
    v.set("cluster.step_share", step_ns / sh.wall_ns.max(1) as f64);
    v.set(
        "cluster.on_interval_ms",
        st.mean_ns(shadow::ON_INTERVAL, cost) / 1e6,
    );
    v.set(
        "cluster.fill_metrics_ms",
        st.mean_ns(shadow::FILL_METRICS, cost) / 1e6,
    );
    v.set_n(
        "cluster.apply_allocation_us",
        st.mean_ns(shadow::APPLY_ALLOCATION, cost) / 1e3,
        format!("{} calls", st.agg(shadow::APPLY_ALLOCATION).count),
    );
    let explained = st.total_self_ns() - st.agg(shadow::APPLY_ALLOCATION).self_ns;
    v.set_n(
        "bench.shadow_coverage_frac",
        explained as f64 / sh.wall_ns.max(1) as f64,
        format!(
            "shadow wall {:.3} s for {} intervals",
            sh.wall_ns as f64 / 1e9,
            intervals
        ),
    );
    v.set("bench.span_cost_ns", cost.inner_ns + cost.outer_ns);
    v.set(
        "bench.spans_recorded",
        (st.spans_recorded() + full.spans_recorded()) as f64,
    );

    // -- (c) kernel pass -----------------------------------------------------
    let goal_classes = prepared.config.workload.classes.len() - 1;
    let buf = kernels::buffer_replay(
        &prepared.config.cluster,
        goal_classes,
        pinned[0] as usize,
        &sh.refs,
    );
    v.set_n(
        "buffer.access_ns",
        buf.mean_ns(kernels::BUF_ACCESS, cost),
        format!("{} accesses of node 0", buf.agg(kernels::BUF_ACCESS).count),
    );
    v.set_n(
        "buffer.install_ns",
        buf.mean_ns(kernels::BUF_INSTALL, cost),
        format!("{} installs", buf.agg(kernels::BUF_INSTALL).count),
    );
    v.set(
        "buffer.set_dedicated_us",
        buf.mean_ns(kernels::BUF_SET_DEDICATED, cost) / 1e3,
    );
    v.set_n(
        "sim.wheel_hold_ns",
        kernels::wheel_hold_ns(after.sched.peak_pending, seed),
        format!("{} pending", after.sched.peak_pending),
    );
    let nodes = prepared.config.cluster.nodes;
    let ctl = kernels::controller_costs(nodes, seed);
    v.set_n(
        "core.store_record_us",
        ctl.store_record_us,
        format!("N = {nodes}"),
    );
    v.set("linalg.independence_us", ctl.independence_us);
    v.set("linalg.fit_us", ctl.fit_us);
    v.set("lp.solve_us", ctl.lp_solve_us);
    // Only the hyperplane controller records measure points, fits and
    // solves; under any other kind a check costs none of these.
    let hyperplane = matches!(
        prepared.config.controller,
        ControllerKind::Hyperplane { .. }
    );
    v.set(
        "core.controller_us_per_interval",
        if hyperplane {
            (checks as f64 * (ctl.store_record_us + ctl.independence_us)
                + optimizations as f64 * (ctl.fit_us + ctl.lp_solve_us))
                / f64::from(intervals)
        } else {
            0.0
        },
    );
    let (emit_ns, emitted) = kernels::emit_ns_per_record(&lines);
    v.set_n(
        "obs.emit_ns_per_record",
        emit_ns,
        format!("{emitted} records"),
    );
    let (hist_ns, recorded) = kernels::hist_record_ns(&sh.response_ns);
    v.set_n(
        "obs.hist_record_ns",
        hist_ns,
        format!("{recorded} response times"),
    );
    v.set(
        "obs.span_overhead_frac",
        span_overhead_frac(w, prepared, (intervals / 4).max(8)),
    );
    let replay_intervals = (intervals / 8).clamp(4, 64);
    let tr = kernels::trace_costs(&lines, &prepared.config, replay_intervals);
    v.set_n(
        "trace.parse_records_per_s",
        tr.parse_records_per_s,
        format!("{} records", tr.parsed_records),
    );
    v.set("trace.report_ms", tr.report_ms);
    v.set_n(
        "trace.replay_s",
        tr.replay_s,
        format!("{replay_intervals} cold intervals"),
    );
    v.set(
        "trace.replay_identical",
        f64::from(u8::from(tr.replay_identical)),
    );
    if !tr.replay_identical {
        violations.push(format!("trace replay diverged: {}", tr.replay_note));
    }

    // -- diagnostics from the untraced repeats -------------------------------
    let quiet = &untraced.quiet;
    let to_ms = |ns: Option<u64>| ns.map_or(f64::NAN, |n| n as f64 / 1e6);
    v.set_n(
        "core.interval_host_ms_p50",
        to_ms(percentile(quiet, 0.5)),
        format!("{} intervals, per-interval minima", quiet.len()),
    );
    // A p99 needs ten samples beyond it; below 1000 intervals report the max.
    let (tail, tail_note) = if quiet.len() >= 1000 {
        (percentile(quiet, 0.99), "p99")
    } else {
        (
            quiet.iter().copied().max(),
            "max: fewer than 1000 intervals",
        )
    };
    v.set_n("core.interval_host_ms_p99", to_ms(tail), tail_note);
    let walls: Vec<f64> = untraced
        .repeats
        .iter()
        .map(|r| r.wall_ns.iter().sum::<u64>() as f64)
        .collect();
    let (lo, hi) = walls.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &w| {
        (lo.min(w), hi.max(w))
    });
    v.set_n(
        "bench.repeat_spread_frac",
        hi / lo - 1.0,
        format!("{} repeats", walls.len()),
    );
    let refs = &untraced.host_ref_ms;
    v.set_n(
        "bench.host_ref_ms",
        min_f64(refs.iter().copied()),
        format!("min of {}", refs.len()),
    );
    v.set("bench.host_ref_median_ms", median(refs));

    let trace_file = Json::obj()
        .field("workload", w.name)
        .field("seed", seed)
        .field("timed_intervals", u64::from(intervals))
        .field(
            "span_cost_ns",
            Json::obj()
                .field("inner", cost.inner_ns)
                .field("outer", cost.outer_ns),
        )
        .field("full_pass", full.to_json())
        .field("shadow_pass", sh.tracer.to_json())
        .field("buffer_kernel", buf.to_json());
    Traced {
        values: v,
        violations,
        trace_file,
    }
}
