//! The shadow pass: a benchmark-owned event loop over the *public* engine,
//! workload generator and data plane, with a span around every call into a
//! layer.
//!
//! It mirrors the Arrival / Data / IntervalEnd arms of the real
//! `Simulation`'s handler (same arrival seeding, same interval clock) but
//! runs no agents and no controller: dedicated pools are pinned to what the
//! traced full pass ended with. That makes it a profiler the simulator does
//! not have to know about — spans inside the program are a later change —
//! at the price of attributing the *data plane's* time only; controller
//! cost comes from the kernel pass.

use dmm::buffer::{ClassId, PageId};
use dmm::cluster::{ClusterEvent, DataPlane, NodeId, StepOutput};
use dmm::core::SystemConfig;
use dmm::obs::MetricsSnapshot;
use dmm::sim::{Engine, Handler, Scheduler, SimDuration, SimTime};
use dmm::workload::WorkloadGenerator;

use crate::spans::Tracer;
use crate::workloads::GOAL;

/// Span names of the shadow pass, indexable by the constants below.
pub const NAMES: &[&str] = &[
    "sim.run_until",
    "workload.make_op",
    "cluster.start_operation",
    "cluster.step.lookup",
    "cluster.step.req_at_home",
    "cluster.step.serve_at_home",
    "cluster.step.req_at_holder",
    "cluster.step.serve_at_holder",
    "cluster.step.disk_done",
    "cluster.step.page_arrived",
    "cluster.step.access_done",
    "cluster.on_interval",
    "cluster.fill_metrics",
    "cluster.apply_allocation",
];

pub const RUN_UNTIL: usize = 0;
pub const MAKE_OP: usize = 1;
pub const START_OP: usize = 2;
/// First of the eight protocol-step spans, in `ClusterEvent` order.
pub const STEP0: usize = 3;
pub const STEPS: usize = 8;
pub const ON_INTERVAL: usize = 11;
pub const FILL_METRICS: usize = 12;
pub const APPLY_ALLOCATION: usize = 13;

/// Suffixes of the `cluster.step_ns.*` metrics, in span order.
pub const STEP_SUFFIXES: [&str; STEPS] = [
    "lookup",
    "req_at_home",
    "serve_at_home",
    "req_at_holder",
    "serve_at_holder",
    "disk_done",
    "page_arrived",
    "access_done",
];

fn step_span(e: &ClusterEvent) -> usize {
    STEP0
        + match e {
            ClusterEvent::Lookup { .. } => 0,
            ClusterEvent::ReqAtHome { .. } => 1,
            ClusterEvent::ServeAtHome { .. } => 2,
            ClusterEvent::ReqAtHolder { .. } => 3,
            ClusterEvent::ServeAtHolder { .. } => 4,
            ClusterEvent::DiskDone { .. } => 5,
            ClusterEvent::PageArrived { .. } => 6,
            ClusterEvent::AccessDone { .. } => 7,
        }
}

#[derive(Debug, Clone)]
enum Ev {
    Data(ClusterEvent),
    Arrival { node: NodeId, class: ClassId },
    IntervalEnd,
}

/// Cap on the harvested kernel inputs (reference string, response times).
const HARVEST_CAP: usize = 200_000;

struct State {
    plane: DataPlane,
    gen: WorkloadGenerator,
    interval: SimDuration,
    tracer: Tracer,
    started: u64,
    pages: u64,
    /// Node 0's page reference string, `(class, page)` in access order.
    refs: Vec<(ClassId, PageId)>,
    /// Response times of completed operations, nanoseconds.
    response_ns: Vec<u64>,
}

impl State {
    fn follow_up(&mut self, out: StepOutput, sched: &mut Scheduler<Ev>) {
        if let Some((t, e)) = out.schedule {
            sched.at(t, Ev::Data(e));
        }
        if let Some(c) = out.completed {
            if self.response_ns.len() < HARVEST_CAP {
                self.response_ns
                    .push(c.finished.since(c.arrival).as_nanos());
            }
        }
    }
}

impl Handler<Ev> for State {
    fn handle(&mut self, now: SimTime, event: Ev, sched: &mut Scheduler<Ev>) {
        match event {
            Ev::Data(e) => {
                self.tracer.enter(step_span(&e));
                let out = self.plane.handle(now, e);
                self.tracer.exit();
                self.follow_up(out, sched);
            }
            Ev::Arrival { node, class } => {
                // Same draw order per stream as the real handler: the
                // operation's pages, then the gap to the next arrival.
                self.tracer.enter(MAKE_OP);
                let op = self.gen.make_op(node, class, now);
                let gap = self.gen.next_gap(node, class, now);
                self.tracer.exit();
                self.started += 1;
                self.pages += op.pages.len() as u64;
                if node.index() == 0 && self.refs.len() < HARVEST_CAP {
                    self.refs.extend(op.pages.iter().map(|&p| (class, p)));
                }
                self.tracer.enter(START_OP);
                let out = self.plane.start_operation(op, now);
                self.tracer.exit();
                self.follow_up(out, sched);
                sched.after(gap, Ev::Arrival { node, class });
            }
            Ev::IntervalEnd => {
                sched.after(self.interval, Ev::IntervalEnd);
                self.tracer.enter(ON_INTERVAL);
                self.plane.on_interval(now);
                self.tracer.exit();
                self.tracer.enter(FILL_METRICS);
                let mut snap = MetricsSnapshot::new();
                self.plane.fill_metrics(&mut snap, now);
                std::hint::black_box(snap);
                self.tracer.exit();
            }
        }
    }
}

/// What the shadow pass hands to the metric builder and the kernel pass.
pub struct ShadowRun {
    pub tracer: Tracer,
    /// Wall time of the traced segment (everything but the
    /// `cluster.apply_allocation` spans, which precede it), nanoseconds.
    pub wall_ns: u64,
    /// Events delivered in the traced segment.
    pub events: u64,
    /// Operations started / completed in the traced segment.
    pub started: u64,
    pub completed: u64,
    /// Pages requested by the operations started in the traced segment.
    pub pages: u64,
    /// Whether every operation ever started is completed or in flight.
    pub conserved: bool,
    pub refs: Vec<(ClassId, PageId)>,
    pub response_ns: Vec<u64>,
}

/// Runs `warmup` intervals (spans recorded, then dropped), pins the pools,
/// and runs `intervals` traced ones. `pinned[n]` is the goal class's
/// dedicated page count on node `n`.
pub fn run(config: &SystemConfig, pinned: &[u64], warmup: u32, intervals: u32) -> ShadowRun {
    let mut cluster = config.cluster.clone();
    cluster.goal_classes = config.workload.classes.len() - 1;
    let nodes = cluster.nodes;
    let mut state = State {
        plane: DataPlane::new(cluster),
        gen: WorkloadGenerator::new(config.workload.clone(), nodes, config.seed),
        interval: config.interval,
        tracer: Tracer::new(NAMES),
        started: 0,
        pages: 0,
        refs: Vec::new(),
        response_ns: Vec::new(),
    };
    let mut engine: Engine<Ev> = Engine::with_params(config.sim);
    for (node, class) in state.gen.active_streams() {
        let gap = state.gen.next_gap(node, class, SimTime::ZERO);
        engine
            .scheduler()
            .at(SimTime::ZERO + gap, Ev::Arrival { node, class });
    }
    engine
        .scheduler()
        .at(SimTime::ZERO + config.interval, Ev::IntervalEnd);

    let mut done = 0u64;
    let mut advance = |engine: &mut Engine<Ev>, state: &mut State, n: u32| {
        for _ in 0..n {
            done += 1;
            let horizon = SimTime::ZERO + state.interval * done + state.interval / 2;
            state.tracer.enter(RUN_UNTIL);
            engine.run_until(horizon, state);
            state.tracer.exit();
        }
    };
    // Pools fill under the default partitioning, then get pinned: the
    // allocation calls are themselves spans (resize walks on full pools).
    advance(&mut engine, &mut state, warmup);
    state.tracer.reset();
    let now = engine.now();
    for (n, &pages) in pinned.iter().enumerate() {
        state.tracer.enter(APPLY_ALLOCATION);
        state
            .plane
            .apply_allocation(NodeId(n as u16), GOAL, pages as usize, now);
        state.tracer.exit();
    }
    state.refs.clear();
    state.response_ns.clear();
    let (started0, pages0) = (state.started, state.pages);
    let (events0, completed0) = (engine.delivered(), state.plane.completions());

    let t0 = std::time::Instant::now();
    advance(&mut engine, &mut state, intervals);
    let wall_ns = t0.elapsed().as_nanos() as u64;

    state.plane.check_invariants();
    let conserved = state.started == state.plane.completions() + state.plane.inflight_ops() as u64;
    ShadowRun {
        tracer: state.tracer,
        wall_ns,
        events: engine.delivered() - events0,
        started: state.started - started0,
        completed: state.plane.completions() - completed0,
        pages: state.pages - pages0,
        conserved,
        refs: state.refs,
        response_ns: state.response_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_table_is_consistent() {
        assert_eq!(NAMES.len(), APPLY_ALLOCATION + 1);
        assert_eq!(NAMES[STEP0], "cluster.step.lookup");
        assert_eq!(NAMES[STEP0 + STEPS - 1], "cluster.step.access_done");
        assert_eq!(NAMES[ON_INTERVAL], "cluster.on_interval");
        for (i, s) in STEP_SUFFIXES.iter().enumerate() {
            assert_eq!(NAMES[STEP0 + i], format!("cluster.step.{s}"));
        }
    }

    #[test]
    fn shadow_loop_runs_conserves_and_explains_its_wall() {
        let config = SystemConfig::builder()
            .seed(7)
            .db_pages(400)
            .buffer_pages_per_node(96)
            .goal_rate_per_ms(0.008)
            .build()
            .expect("valid test config");
        let run = run(&config, &[32, 32, 32], 2, 6);
        assert!(run.conserved);
        assert!(run.events > 0 && run.completed > 0 && run.started > 0);
        assert_eq!(run.tracer.agg(RUN_UNTIL).count, 6);
        assert_eq!(run.tracer.agg(ON_INTERVAL).count, 6);
        assert_eq!(run.tracer.agg(APPLY_ALLOCATION).count, 3);
        assert_eq!(run.tracer.agg(MAKE_OP).count, run.started);
        // Every delivered event is an arrival, an interval end or a step.
        let steps: u64 = (0..STEPS).map(|i| run.tracer.agg(STEP0 + i).count).sum();
        assert_eq!(run.events, steps + run.started + 6);
        assert!(!run.refs.is_empty() && !run.response_ns.is_empty());
        // Same seed, same simulated work.
        let again = super::run(&config, &[32, 32, 32], 2, 6);
        assert_eq!((run.events, run.completed), (again.events, again.completed));
        assert_eq!(run.refs, again.refs);
    }
}
