//! Scheduler benchmark: the hierarchical timing wheel versus the binary-heap
//! reference backend.
//!
//! Two layers of evidence, written to `BENCH_scheduler.json` at the
//! workspace root:
//!
//! 1. **Micro**: steady-state push/pop throughput under the classic *hold*
//!    model — the queue is prefilled to a fixed depth (1 k / 64 k / 1 M
//!    pending events) and every delivered event schedules exactly one
//!    follow-up with a mixed-magnitude delay, so each measured iteration is
//!    one pop plus one push at constant depth. The heap pays O(log n)
//!    comparator walks per operation; the wheel pays O(1) near-future
//!    bitmask scans, so the gap widens with depth.
//! 2. **End-to-end**: wall-clock of the fig2_base experiment, the
//!    crash/restart degradation run, and the event-dense 16×-pool
//!    configuration from the hot-path work, each under both backends with
//!    the reps interleaved (A/B/A/B) and the minimum kept per backend. The
//!    run also cross-checks that both backends deliver the same number of
//!    events and accesses — the wall-clock comparison is only meaningful
//!    because the simulations are identical.
//!
//! `--quick` shrinks the end-to-end runs for CI smoke use; the acceptance
//! numbers quoted in the README come from the full run.

use std::time::Instant;

use dmm::buffer::ClassId;
use dmm::cluster::{FaultPlan, NodeId};
use dmm::core::{calibrate_goal_range, Simulation, SystemConfig};
use dmm::obs::Json;
use dmm::sim::{
    Engine, Handler, SchedStats, Scheduler, SchedulerBackend, SimDuration, SimParams, SimRng,
    SimTime,
};
use dmm_bench::micro::{bench_micro, MicroResult};

/// The hold-model workload: every delivered event schedules one follow-up,
/// keeping the pending depth constant. Delays mix magnitudes the way the
/// cluster protocol does — mostly near-future (network/CPU steps), a tail
/// of far-future ones (interval timers, retries).
struct Hold {
    rng: SimRng,
}

impl Handler<u64> for Hold {
    fn handle(&mut self, _now: SimTime, event: u64, sched: &mut Scheduler<u64>) {
        let ns = if self.rng.index(10) == 0 {
            1 + self.rng.next_u64() % (1 << 27) // ~134 ms outliers
        } else {
            1 + self.rng.next_u64() % 100_000 // ≤100 µs protocol steps
        };
        sched.after(SimDuration::from_nanos(ns), event + 1);
    }
}

fn hold_bench(backend: SchedulerBackend, pending: usize) -> (MicroResult, SchedStats) {
    let mut eng = Engine::with_params(SimParams { scheduler: backend });
    let mut rng = SimRng::seed_from_u64(0xD15C_0000 + pending as u64);
    for i in 0..pending {
        let t = rng.next_u64() % 1_000_000_000;
        eng.scheduler().at(SimTime::from_nanos(t), i as u64);
    }
    let mut hold = Hold {
        rng: SimRng::seed_from_u64(77),
    };
    // Warm up past the prefill transient so the measured region is pure
    // steady-state hold.
    eng.run_events(pending as u64, &mut hold);
    let name = format!("hold/{backend:?}/{pending}");
    let result = bench_micro(&name, || {
        eng.run_events(1, &mut hold);
    });
    assert_eq!(eng.scheduler().pending(), pending, "hold model must hold");
    (result, eng.sched_stats())
}

struct E2eRun {
    name: &'static str,
    intervals: u32,
    reps: u32,
    wheel_secs: f64,
    heap_secs: f64,
    events: u64,
    wheel_stats: SchedStats,
}

impl E2eRun {
    fn improvement_pct(&self) -> f64 {
        100.0 * (self.heap_secs - self.wheel_secs) / self.heap_secs
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .field("config", self.name)
            .field("intervals", self.intervals as u64)
            .field("reps", self.reps as u64)
            .field("wheel_secs", self.wheel_secs)
            .field("heap_secs", self.heap_secs)
            .field("improvement_pct", self.improvement_pct())
            .field("events", self.events)
            .field("peak_pending", self.wheel_stats.peak_pending)
            .field("cascaded", self.wheel_stats.cascaded)
    }
}

/// Runs `cfg` per backend per rep, interleaved (A/B/A/B so host noise hits
/// both alike), keeping the best wall-clock per backend, and cross-checks
/// that both backends simulate the identical system.
fn e2e(name: &'static str, cfg: &SystemConfig, intervals: u32, reps: u32) -> E2eRun {
    let timed = |backend: SchedulerBackend| -> (f64, u64, u64, SchedStats) {
        let mut cfg = cfg.clone();
        cfg.sim.scheduler = backend;
        let mut sim = Simulation::new(cfg);
        let start = Instant::now();
        sim.run_intervals(intervals);
        let snap = sim.metrics_snapshot();
        (
            start.elapsed().as_secs_f64(),
            snap.get_counter("sim.events").unwrap_or(0),
            snap.get_counter("cluster.accesses").unwrap_or(0),
            sim.sched_stats(),
        )
    };
    let mut wheel_secs = f64::INFINITY;
    let mut heap_secs = f64::INFINITY;
    let mut wheel_out = (0u64, 0u64);
    let mut heap_out = (0u64, 0u64);
    let mut wheel_stats = SchedStats::default();
    for _ in 0..reps {
        let (secs, events, accesses, stats) = timed(SchedulerBackend::Wheel);
        wheel_secs = wheel_secs.min(secs);
        wheel_out = (events, accesses);
        wheel_stats = stats;
        let (secs, events, accesses, _) = timed(SchedulerBackend::Heap);
        heap_secs = heap_secs.min(secs);
        heap_out = (events, accesses);
    }
    assert_eq!(wheel_out, heap_out, "backends simulated different systems");
    let run = E2eRun {
        name,
        intervals,
        reps,
        wheel_secs,
        heap_secs,
        events: wheel_out.0,
        wheel_stats,
    };
    println!(
        "{:<12} wheel {:.3} s  heap {:.3} s  improvement {:+.1} %  \
         ({} events, peak pending {}, cascaded {})",
        run.name,
        run.wheel_secs,
        run.heap_secs,
        run.improvement_pct(),
        run.events,
        run.wheel_stats.peak_pending,
        run.wheel_stats.cascaded,
    );
    run
}

fn main() {
    let quick = dmm_bench::BenchArgs::parse().quick;
    let class = ClassId(1);

    println!("== micro: hold-model push/pop throughput ==");
    let depths: &[usize] = if quick {
        &[1_000, 64_000]
    } else {
        &[1_000, 64_000, 1_000_000]
    };
    let mut micro = Vec::new();
    for &pending in depths {
        let (heap, _) = hold_bench(SchedulerBackend::Heap, pending);
        let (wheel, stats) = hold_bench(SchedulerBackend::Wheel, pending);
        let speedup = heap.ns_per_iter / wheel.ns_per_iter;
        println!(
            "pending {:>9}: wheel {:8.1} ns/op  heap {:8.1} ns/op  speedup {:.2}x  \
             (cascaded {})",
            pending, wheel.ns_per_iter, heap.ns_per_iter, speedup, stats.cascaded,
        );
        micro.push(
            Json::obj()
                .field("pending", pending as u64)
                .field("wheel_ns_per_op", wheel.ns_per_iter)
                .field("heap_ns_per_op", heap.ns_per_iter)
                .field("speedup", speedup),
        );
    }

    println!("\n== end-to-end: wheel vs heap backend ==");
    let (intervals, reps) = if quick { (24, 2) } else { (84, 7) };

    // Figure 2 base experiment (goal schedule active).
    let base = SystemConfig::builder()
        .seed(42)
        .goal_ms(15.0)
        .build()
        .expect("valid base config");
    let range = calibrate_goal_range(&base, class, 6, 6);
    let fig2 = SystemConfig::builder()
        .seed(42)
        .goal_ms(range.max_ms * 0.8)
        .goal_range(range)
        .build()
        .expect("valid fig2 config");
    let fig2_run = e2e("fig2_base", &fig2, intervals, reps);

    // Crash/restart degradation run: the fault machinery (retransmits,
    // failover re-announces) adds scheduler churn. Fault times scale with
    // the run so the crash fires in --quick mode too.
    let plan = FaultPlan::new(42)
        .crash_ms(NodeId(2), (intervals as u64 / 3 * 5_000) + 2_500)
        .restart_ms(NodeId(2), (2 * intervals as u64 / 3 * 5_000) + 2_500);
    let degraded = SystemConfig::builder()
        .seed(42)
        .goal_ms(range.max_ms * 0.8)
        .goal_range(range)
        .fault_plan(plan)
        .build()
        .expect("valid degradation config");
    let degradation_run = e2e("degradation", &degraded, intervals, reps);

    // The event-dense 16×-pool configuration from the hot-path work: more
    // pages in flight per interval, deeper pending queues.
    let large = SystemConfig::builder()
        .seed(42)
        .goal_ms(15.0)
        .db_pages(24_000)
        .buffer_pages_per_node(8192)
        .goal_range(dmm::workload::GoalRange::new(5.0, 30.0))
        .build()
        .expect("valid large-pool config");
    let large_run = e2e("large_pool", &large, intervals, reps);

    let doc = Json::obj()
        .field("bench", "scheduler")
        .field("quick", quick)
        .field("micro", Json::Arr(micro))
        .field(
            "e2e",
            Json::Arr(vec![
                fig2_run.to_json(),
                degradation_run.to_json(),
                large_run.to_json(),
            ]),
        );
    dmm_bench::cli::write_bench_doc("BENCH_scheduler.json", &doc);
}
