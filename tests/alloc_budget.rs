//! Allocation budget of the steady-state operation path: once pools, heat
//! tables and the directory are warm, generating an operation and carrying
//! it through every protocol step to completion touches the heap (almost)
//! never. What is allowed to remain is per-interval work — agent reports,
//! the controller's fit and LP, amortised growth of tables and the event
//! wheel — never an object per protocol step.
//!
//! An integration test is its own binary, so it installs its own counting
//! `#[global_allocator]`. Counts are per thread (the harness runs tests on
//! parallel threads; each simulation runs on the thread of its test).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dmm::buffer::{ClassId, TierPolicy};
use dmm::cluster::{
    ClusterEvent, DataPlane, FabricSpec, HotRingSpec, NodeId, PlacementSpec, StepOutput, TierSpec,
};
use dmm::core::{SatisfactionMode, Simulation, SystemConfig, SystemConfigBuilder};
use dmm::obs::{SpanMode, StreamSink};
use dmm::sim::{Engine, Handler, Scheduler, SimDuration, SimTime};
use dmm::workload::WorkloadGenerator;

thread_local! {
    // Const-initialised and without a destructor: reading it from inside
    // the allocator neither allocates nor registers a TLS destructor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// integer and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr`/`layout` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn bump() {
    // A thread being torn down has no counter left; nothing measures there.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocation calls (alloc + alloc_zeroed + realloc) made by this thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// What a measured segment of a full simulation did.
struct Segment {
    /// Allocation calls over the segment.
    allocs: u64,
    /// Operations completed.
    ops: u64,
    /// Trace records drained from the streaming sink.
    records: u64,
    /// Intervals run.
    intervals: u32,
}

impl Segment {
    fn per_op(&self) -> f64 {
        self.allocs as f64 / self.ops as f64
    }
}

/// Allocations over `measured` intervals of a full simulation, after
/// `warmup` intervals. With a `stream` sink, it is attached from the start
/// and drained after every interval, as a live reader drains it; without
/// one the default no-op sink stays.
fn allocs_per_op(
    config: SystemConfig,
    warmup: u32,
    measured: u32,
    stream: Option<&StreamSink>,
) -> Segment {
    let mut sim = Simulation::new(config);
    if let Some(stream) = stream {
        sim.set_trace_sink(Box::new(stream.handle()));
    }
    let drain = || stream.map_or(0, |s| s.drain().len() as u64);
    for _ in 0..warmup {
        sim.run_intervals(1);
        drain();
    }
    let (a0, c0) = (allocs(), sim.plane().completions());
    let mut records = 0;
    for _ in 0..measured {
        sim.run_intervals(1);
        records += drain();
    }
    let segment = Segment {
        allocs: allocs() - a0,
        ops: sim.plane().completions() - c0,
        records,
        intervals: measured,
    };
    assert!(
        segment.ops > 1_000,
        "the measured segment completed only {} ops",
        segment.ops
    );
    segment
}

#[test]
fn paper_base_config_stays_within_half_an_allocation_per_op() {
    let config = SystemConfig::builder()
        .seed(42)
        .build()
        .expect("the paper's base configuration");
    let per_op = allocs_per_op(config, 40, 60, None).per_op();
    assert!(per_op <= 0.5, "{per_op:.3} allocations per operation");
}

/// Four memory-ladder rungs under hotness tiering, with a p95 goal.
fn four_rung_ladder_with_a_p95_goal() -> SystemConfigBuilder {
    SystemConfig::builder()
        .seed(42)
        .theta(0.8)
        .goal_quantile(0.95)
        .db_pages(800)
        .buffer_pages_per_node(48)
        .tiers(vec![
            TierSpec::new("dram", 0.03),
            TierSpec::new("cxl", 0.25)
                .frames(48)
                .bandwidth(2_000_000_000),
            TierSpec::new("remote", 0.5),
            TierSpec::new("disk", 12.6),
        ])
        .tier_policy(TierPolicy::Hotness)
        .satisfaction(SatisfactionMode::UpperBound)
}

#[test]
fn four_rung_hotness_ladder_with_a_p95_goal_stays_within_budget() {
    let config = four_rung_ladder_with_a_p95_goal()
        .build()
        .expect("valid ladder configuration");
    let per_op = allocs_per_op(config, 40, 60, None).per_op();
    assert!(per_op <= 0.5, "{per_op:.3} allocations per operation");
}

/// What the goal class's check phase of the streamed ladder below still
/// allocates per interval, by site (60 intervals at seed 42, 30 of them
/// optimizing): the measure store's rank reselection (incremental Gauss
/// elimination over the stored points) 25, probe planning 6, the pool
/// resizes an allocation message triggers 5, the optimize phase's
/// allocation vectors 2, and the growth of the per-check record list.
const CHECK_ALLOCS_PER_INTERVAL: u64 = 40;

/// The benchmark's `tiered_tail` shape: the ladder above plus histogram
/// spans and a streaming sink drained every interval. Records are written
/// into one reused line and the quantile histograms are swapped and merged
/// in reused buffers, so the boundary allocates the sink's copy of each
/// record, the drain's `Vec` and what the check phase still allocates.
#[test]
fn a_streamed_p95_ladder_allocates_a_line_per_record_and_little_else() {
    let config = four_rung_ladder_with_a_p95_goal()
        .spans(SpanMode::Histograms)
        .build()
        .expect("valid ladder configuration");
    let stream = StreamSink::bounded(1 << 12);
    let segment = allocs_per_op(config, 40, 60, Some(&stream));
    let intervals = u64::from(segment.intervals);
    let budget = segment.records + intervals * (1 + CHECK_ALLOCS_PER_INTERVAL);
    assert!(
        segment.allocs <= budget,
        "{} allocations over {intervals} intervals ({:.1} per interval) exceed {} records \
         drained + {intervals} drains + {CHECK_ALLOCS_PER_INTERVAL} per check",
        segment.allocs,
        segment.allocs as f64 / intervals as f64,
        segment.records,
    );
}

#[test]
fn sixteen_node_hot_ring_on_a_switched_fabric_stays_within_budget() {
    let config = SystemConfig::builder()
        .seed(42)
        .theta(0.8)
        .nodes(16)
        .db_pages(1600)
        .buffer_pages_per_node(64)
        .goal_rate_per_ms(0.004)
        .net_bits_per_sec(1_000_000_000)
        .satisfaction(SatisfactionMode::UpperBound)
        .placement(PlacementSpec::HotRing(HotRingSpec::default()))
        .fabric(FabricSpec::Switched {
            bisection_bits_per_sec: None,
        })
        .build()
        .expect("valid scaled configuration");
    let per_op = allocs_per_op(config, 20, 50, None).per_op();
    assert!(per_op <= 0.5, "{per_op:.3} allocations per operation");
}

// -- the strict row: generator + data plane, nothing else ---------------------

enum Ev {
    Data(ClusterEvent),
    Arrival { node: NodeId, class: ClassId },
    IntervalEnd,
}

/// The Arrival / Data / IntervalEnd arms of the real handler, without
/// agents, controller or metrics.
struct Loop {
    plane: DataPlane,
    gen: WorkloadGenerator,
    interval: SimDuration,
    arrivals: u64,
}

impl Loop {
    fn follow_up(&mut self, out: StepOutput, sched: &mut Scheduler<Ev>) {
        if let Some((t, e)) = out.schedule {
            sched.at(t, Ev::Data(e));
        }
    }
}

impl Handler<Ev> for Loop {
    fn handle(&mut self, now: SimTime, event: Ev, sched: &mut Scheduler<Ev>) {
        match event {
            Ev::Data(e) => {
                let out = self.plane.handle(now, e);
                self.follow_up(out, sched);
            }
            Ev::Arrival { node, class } => {
                self.arrivals += 1;
                let op = self.gen.make_op(node, class, now);
                let gap = self.gen.next_gap(node, class, now);
                let out = self.plane.start_operation(op, now);
                self.follow_up(out, sched);
                sched.after(gap, Ev::Arrival { node, class });
            }
            Ev::IntervalEnd => {
                sched.after(self.interval, Ev::IntervalEnd);
                self.plane.on_interval(now);
            }
        }
    }
}

#[test]
fn operation_path_allocates_nothing_once_every_node_has_seen_every_page() {
    // A database small enough that every node touches every page during
    // warm-up, pools small enough that installs keep evicting, and a
    // dedicated pool so the per-class heat path runs.
    let config = SystemConfig::builder()
        .seed(7)
        .db_pages(120)
        .buffer_pages_per_node(32)
        .build()
        .expect("valid small configuration");
    let mut cluster = config.cluster.clone();
    cluster.goal_classes = config.workload.classes.len() - 1;
    let nodes = cluster.nodes;
    let mut state = Loop {
        plane: DataPlane::new(cluster),
        gen: WorkloadGenerator::new(config.workload.clone(), nodes, config.seed),
        interval: config.interval,
        arrivals: 0,
    };
    for n in 0..nodes {
        state
            .plane
            .apply_allocation(NodeId(n as u16), ClassId(1), 12, SimTime::ZERO);
    }
    let mut engine: Engine<Ev> = Engine::new();
    for (node, class) in state.gen.active_streams() {
        let gap = state.gen.next_gap(node, class, SimTime::ZERO);
        engine
            .scheduler()
            .at(SimTime::ZERO + gap, Ev::Arrival { node, class });
    }
    engine
        .scheduler()
        .at(SimTime::ZERO + config.interval, Ev::IntervalEnd);

    let mut run_arrivals = |state: &mut Loop, n: u64| {
        let target = state.arrivals + n;
        while state.arrivals < target {
            engine.run_events(64, state);
        }
    };
    run_arrivals(&mut state, 20_000);
    let (a0, n0, c0) = (allocs(), state.arrivals, state.plane.completions());
    run_arrivals(&mut state, 10_000);
    let arrivals = state.arrivals - n0;
    let allocations = allocs() - a0;
    assert!(
        state.plane.completions() - c0 > 9_000,
        "operations complete"
    );
    assert!(
        allocations as f64 <= 0.01 * arrivals as f64,
        "{allocations} allocations across {arrivals} arrivals"
    );
    state.plane.check_invariants();
}
