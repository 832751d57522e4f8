//! The kernel pass: direct timed calls into single layers, on inputs
//! harvested from the traced full pass and the shadow pass (or, for the
//! controller's numeric tasks, on `table1`'s seeded synthetic surface at the
//! workload's N). Every timing is the best of a few batches — the work is
//! identical each batch, so the minimum is the quietest reading.

use std::hint::black_box;
use std::time::Instant;

use dmm::buffer::{ClassId, PageId, TieredAccess, TieredBuffer};
use dmm::cluster::ClusterParams;
use dmm::core::{
    fit_planes, solve_partitioning, verify_jsonl, MeasurePoint, MeasureStore, Objective,
    PartitionProblem, Simulation, SystemConfig,
};
use dmm::linalg::IndependenceTracker;
use dmm::obs::{Histogram, Json, StreamSink, TraceSink, VecSink};
use dmm::sim::{Engine, Handler, Scheduler, SimDuration, SimRng, SimTime};

use crate::spans::Tracer;
use crate::workloads::GOAL;

/// Seconds per call of `f`, best of `batches` batches of `calls` calls.
fn best_secs_per_call(batches: u32, calls: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() / f64::from(calls));
    }
    best
}

// -- buffer ------------------------------------------------------------------

pub const BUFFER_NAMES: &[&str] = &["buffer.access", "buffer.install", "buffer.set_dedicated"];
pub const BUF_ACCESS: usize = 0;
pub const BUF_INSTALL: usize = 1;
pub const BUF_SET_DEDICATED: usize = 2;

/// Replays node 0's page reference string against a [`TieredBuffer`] of the
/// workload's shape (miss → install, as the data plane does), then times
/// shrink/grow resizes of the goal class's pool on the filled buffer,
/// refilling between rounds.
pub fn buffer_replay(
    params: &ClusterParams,
    goal_classes: usize,
    pinned: usize,
    refs: &[(ClassId, PageId)],
) -> Tracer {
    let frames = params.memory_tier_frames();
    let total: usize = frames.iter().sum();
    let pinned = pinned.clamp(total / 4, total);
    let mut buf = TieredBuffer::new(&frames, goal_classes, params.policy, params.tier_policy);
    buf.set_dedicated(GOAL, pinned);
    let mut tracer = Tracer::new(BUFFER_NAMES);
    let mut tick = 0u64;
    let mut touch = |buf: &mut TieredBuffer, tracer: &mut Tracer, class: ClassId, page: PageId| {
        tick += 1;
        let now = SimTime::from_nanos(tick * 1_000_000);
        tracer.enter(BUF_ACCESS);
        let hit = !matches!(buf.access(class, page, now), TieredAccess::Miss);
        tracer.exit();
        if !hit {
            tracer.enter(BUF_INSTALL);
            black_box(buf.install(class, page, now));
            tracer.exit();
        }
    };
    for &(class, page) in refs {
        touch(&mut buf, &mut tracer, class, page);
    }
    let refill = refs.len().min(4096);
    for round in 0..8 {
        for size in [pinned / 2, pinned] {
            tracer.enter(BUF_SET_DEDICATED);
            black_box(buf.set_dedicated(GOAL, size));
            tracer.exit();
        }
        let from = (round * refill) % refs.len().max(1);
        for &(class, page) in refs.iter().cycle().skip(from).take(refill) {
            touch(&mut buf, &mut tracer, class, page);
        }
    }
    buf.check_invariants();
    tracer
}

// -- sim ---------------------------------------------------------------------

struct Hold {
    rng: SimRng,
}

impl Handler<u32> for Hold {
    fn handle(&mut self, _now: SimTime, event: u32, sched: &mut Scheduler<u32>) {
        // Delays spread from a CPU step (30 µs) to a disk read (~10 ms),
        // the range the protocol schedules over.
        let delay = 30_000 + self.rng.next_u64() % 10_000_000;
        sched.after(SimDuration::from_nanos(delay), event);
    }
}

/// The classic hold model on the event queue: `pending` events, each pop
/// followed by one push a random delay ahead. Nanoseconds per hold.
pub fn wheel_hold_ns(pending: u64, seed: u64) -> f64 {
    const HOLDS: u64 = 200_000;
    let mut hold = Hold {
        rng: SimRng::seed_from_u64(seed),
    };
    let mut engine: Engine<u32> = Engine::new();
    for i in 0..pending.max(1) {
        let at = SimTime::from_nanos(hold.rng.next_u64() % 10_000_000);
        engine.scheduler().at(at, i as u32);
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        black_box(engine.run_events(HOLDS, &mut hold));
        best = best.min(t.elapsed().as_secs_f64() * 1e9 / HOLDS as f64);
    }
    best
}

// -- core / linalg / lp ------------------------------------------------------

/// The coordinator's numeric tasks at `n` nodes, microseconds per call —
/// the paper's Table 1, per workload.
pub struct ControllerCosts {
    pub store_record_us: f64,
    pub independence_us: f64,
    pub fit_us: f64,
    pub lp_solve_us: f64,
}

/// `n + 1` points: a base plus one perturbed coordinate each, on a linear
/// response surface with noise — the shape the coordinator actually sees
/// (`table1`'s generator).
fn synthetic_points(n: usize, rng: &mut SimRng) -> Vec<MeasurePoint> {
    let base: Vec<f64> = (0..n).map(|_| rng.uniform(0.2, 0.8)).collect();
    let w: Vec<f64> = (0..n).map(|_| -rng.uniform(1.0, 5.0)).collect();
    let point = |x: Vec<f64>, rng: &mut SimRng| {
        let y = 20.0 + x.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>() + rng.uniform(-0.2, 0.2);
        MeasurePoint {
            alloc_mb: x,
            rt_class_ms: y,
            rt_nogoal_ms: 30.0 - y,
            at: SimTime::ZERO,
        }
    };
    let mut pts = vec![point(base.clone(), rng)];
    for i in 0..n {
        let mut x = base.clone();
        x[i] += 1.0;
        pts.push(point(x, rng));
    }
    pts
}

pub fn controller_costs(n: usize, seed: u64) -> ControllerCosts {
    let mut rng = SimRng::seed_from_u64(seed ^ n as u64);
    let pts = synthetic_points(n, &mut rng);
    let (batches, calls) = (5, if n > 16 { 20 } else { 200 });

    let diffs: Vec<Vec<f64>> = pts[1..]
        .iter()
        .map(|p| {
            p.alloc_mb
                .iter()
                .zip(&pts[0].alloc_mb)
                .map(|(a, b)| a - b)
                .collect()
        })
        .collect();
    let mut basis = IndependenceTracker::new(n, 1e-9);
    for d in &diffs[..n - 1] {
        assert!(basis.try_insert(d), "synthetic directions are independent");
    }
    let probe = &diffs[n - 1];
    let independence = best_secs_per_call(batches, calls, || {
        black_box(basis.is_independent(black_box(probe)));
    });

    let mut store = MeasureStore::new(n);
    for p in &pts {
        store.record(p.alloc_mb.clone(), p.rt_class_ms, p.rt_nogoal_ms, p.at);
    }
    let extra = synthetic_points(n, &mut rng);
    let mut cursor = 0usize;
    let record = best_secs_per_call(batches, calls, || {
        let p = &extra[cursor % extra.len()];
        cursor += 1;
        store.record(p.alloc_mb.clone(), p.rt_class_ms, p.rt_nogoal_ms, p.at);
    });

    let refs: Vec<&MeasurePoint> = pts.iter().collect();
    let fit = best_secs_per_call(batches, calls, || {
        black_box(fit_planes(black_box(&refs)).expect("synthetic surface fits"));
    });

    let planes = fit_planes(&refs).expect("synthetic surface fits");
    let avail = vec![2.0; n];
    let current = vec![0.5; n];
    let lp = best_secs_per_call(batches, calls, || {
        // The production variant: the coordinator's stickiness penalty on.
        let problem = PartitionProblem {
            planes: &planes,
            goal_ms: 10.0,
            avail_mb: &avail,
            current_mb: &current,
            reallocation_penalty: 0.02,
            objective: Objective::MinNoGoalRt,
        };
        black_box(solve_partitioning(black_box(&problem)).expect("synthetic LP solves"));
    });

    ControllerCosts {
        store_record_us: record * 1e6,
        independence_us: independence * 1e6,
        fit_us: fit * 1e6,
        lp_solve_us: lp * 1e6,
    }
}

// -- obs ---------------------------------------------------------------------

/// Nanoseconds per [`StreamSink::emit`] of the harvested trace records
/// (serialization + ring push), with the ring drained every 256 records.
pub fn emit_ns_per_record(lines: &[String]) -> (f64, usize) {
    let records: Vec<Json> = lines
        .iter()
        .take(4096)
        .filter_map(|l| Json::parse(l).ok())
        .collect();
    if records.is_empty() {
        return (0.0, 0);
    }
    let drain = StreamSink::bounded(1024);
    let mut sink = drain.handle();
    let secs = best_secs_per_call(3, 1, || {
        for (i, r) in records.iter().enumerate() {
            sink.emit(r);
            if i % 256 == 255 {
                black_box(drain.drain());
            }
        }
        black_box(drain.drain());
    });
    (secs * 1e9 / records.len() as f64, records.len())
}

/// Nanoseconds per [`Histogram::record`] of the harvested response times,
/// on the response-time layout the agents and the data plane use.
pub fn hist_record_ns(response_ns: &[u64]) -> (f64, usize) {
    if response_ns.is_empty() {
        return (0.0, 0);
    }
    let mut hist = Histogram::log_linear(10_000, 10_000_000_000, 8);
    let secs = best_secs_per_call(3, 1, || {
        for &v in response_ns {
            hist.record(black_box(v));
        }
    });
    black_box(hist.count());
    (secs * 1e9 / response_ns.len() as f64, response_ns.len())
}

// -- trace -------------------------------------------------------------------

pub struct TraceCosts {
    pub parse_records_per_s: f64,
    pub parsed_records: usize,
    pub report_ms: f64,
    pub replay_s: f64,
    pub replay_identical: bool,
    /// First divergence, for the failure message.
    pub replay_note: String,
}

/// `dmm-trace` tooling latency on the harvested JSONL, and a replay check:
/// a cold recording of `config` (the benchmark's own interventions — goal
/// scripts, warm starts — are not part of a trace's replay closure) is
/// re-run from its leading `run_config` record and byte-compared.
pub fn trace_costs(lines: &[String], config: &SystemConfig, replay_intervals: u32) -> TraceCosts {
    let mut jsonl = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for l in lines {
        jsonl.push_str(l);
        jsonl.push('\n');
    }
    let mut parsed = None;
    let parse_secs = best_secs_per_call(2, 1, || {
        parsed = Some(dmm_trace::read_str(&jsonl).expect("harvested trace parses"));
    });
    let trace = parsed.expect("parsed at least once");
    let report_secs = best_secs_per_call(2, 1, || {
        black_box(dmm_trace::report::report(&trace));
    });

    let sink = VecSink::new();
    let mut sim = Simulation::new(config.clone());
    sim.set_trace_sink(Box::new(sink.handle()));
    sim.run_intervals(replay_intervals);
    let recording = sink.to_jsonl();
    let t = Instant::now();
    let verdict = verify_jsonl(&recording, 1);
    let replay_s = t.elapsed().as_secs_f64();
    let (replay_identical, replay_note) = match verdict {
        Ok(report) => (
            report.identical(),
            report
                .divergences
                .first()
                .map_or_else(String::new, |d| format!("{d:?}")),
        ),
        Err(e) => (false, e),
    };
    TraceCosts {
        parse_records_per_s: trace.records.len() as f64 / parse_secs,
        parsed_records: trace.records.len(),
        report_ms: report_secs * 1e3,
        replay_s,
        replay_identical,
        replay_note,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SystemConfig {
        SystemConfig::builder()
            .seed(3)
            .db_pages(400)
            .buffer_pages_per_node(96)
            .goal_rate_per_ms(0.008)
            .build()
            .expect("valid test config")
    }

    #[test]
    fn buffer_replay_installs_on_miss_and_resizes() {
        let refs: Vec<(ClassId, PageId)> = (0..600u32)
            .map(|i| (ClassId((i % 2) as u16), PageId(i % 150)))
            .collect();
        let cfg = small();
        let t = buffer_replay(&cfg.cluster, 1, 40, &refs);
        let accesses = t.agg(BUF_ACCESS).count;
        assert!(accesses >= 600);
        let installs = t.agg(BUF_INSTALL).count;
        assert!(installs >= 150 && installs <= accesses);
        assert_eq!(t.agg(BUF_SET_DEDICATED).count, 16);
    }

    #[test]
    fn kernels_return_positive_finite_costs() {
        assert!(wheel_hold_ns(24, 1) > 0.0);
        let c = controller_costs(3, 42);
        for v in [
            c.store_record_us,
            c.independence_us,
            c.fit_us,
            c.lp_solve_us,
        ] {
            assert!(v.is_finite() && v > 0.0);
        }
        let (ns, n) = hist_record_ns(&[12_000, 5_000_000, 80_000_000]);
        assert!(ns > 0.0 && n == 3);
        assert_eq!(hist_record_ns(&[]), (0.0, 0));
        assert_eq!(emit_ns_per_record(&[]), (0.0, 0));
    }

    #[test]
    fn trace_kernels_parse_report_and_replay() {
        let sink = VecSink::new();
        let mut sim = Simulation::new(small());
        sim.set_trace_sink(Box::new(sink.handle()));
        sim.run_intervals(6);
        let lines = sink.lines();
        let (ns, n) = emit_ns_per_record(&lines);
        assert!(ns > 0.0 && n == lines.len());
        let costs = trace_costs(&lines, &small(), 5);
        assert_eq!(costs.parsed_records, lines.len());
        assert!(costs.replay_identical, "{}", costs.replay_note);
        assert!(costs.parse_records_per_s > 0.0 && costs.report_ms > 0.0);
    }
}
