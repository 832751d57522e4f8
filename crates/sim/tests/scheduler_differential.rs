//! Differential property tests: the timing-wheel backend must deliver the
//! exact same (time, event) sequence as the binary-heap reference for
//! arbitrary schedules — including clustered near-future delays, far-future
//! outliers that land in the overflow chain, same-instant bursts, horizon
//! boundary probes, and delays sized to straddle wheel level boundaries and
//! force cascades.

use dmm_sim::{
    Engine, Handler, Scheduler, SchedulerBackend, SimDuration, SimParams, SimRng, SimTime,
};

/// A chaos workload: each delivered event logs itself and (driven by a
/// per-run deterministic RNG) schedules up to two follow-ups with delays
/// drawn from magnitude classes that cover every wheel level plus the
/// overflow, with frequent zero delays to create same-instant bursts.
struct Chaos {
    rng: SimRng,
    log: Vec<(u64, u32)>,
    next_id: u32,
    spawned: u32,
    budget: u32,
}

impl Chaos {
    fn new(seed: u64, budget: u32) -> Self {
        Chaos {
            rng: SimRng::seed_from_u64(seed),
            log: Vec::new(),
            next_id: 1_000,
            spawned: 0,
            budget,
        }
    }

    fn delay(&mut self) -> SimDuration {
        // Magnitude classes: 0 = same instant, then per-wheel-level ranges
        // (6 bits each), then far-future outliers past the 48-bit span.
        let class = self.rng.index(11);
        let ns = match class {
            0 => 0,
            1..=8 => {
                let bits = 6 * class as u32;
                let lo = 1u64 << (bits - 6);
                lo + self.rng.next_u64() % (1u64 << bits).saturating_sub(lo).max(1)
            }
            9 => 1u64 << 48, // exactly the wheel span: first overflow tick
            _ => (1u64 << 48) + self.rng.next_u64() % (1u64 << 52),
        };
        SimDuration::from_nanos(ns)
    }
}

impl Handler<u32> for Chaos {
    fn handle(&mut self, now: SimTime, event: u32, sched: &mut Scheduler<u32>) {
        self.log.push((now.as_nanos(), event));
        let follow_ups = self.rng.index(3) as u32;
        for _ in 0..follow_ups {
            if self.spawned >= self.budget {
                return;
            }
            self.spawned += 1;
            let id = self.next_id;
            self.next_id += 1;
            let d = self.delay();
            sched.after(d, id);
        }
    }
}

fn seed_initial(eng: &mut Engine<u32>, seed: u64) {
    let mut rng = SimRng::seed_from_u64(seed ^ 0xA5A5_A5A5);
    for id in 0..32u32 {
        let t = rng.next_u64() % 10_000;
        eng.scheduler().at(SimTime::from_nanos(t), id);
    }
    // Same-instant burst at a fixed tick and near a level boundary.
    for id in 100..108u32 {
        eng.scheduler().at(SimTime::from_nanos(4_096), id);
    }
}

fn run_one(backend: SchedulerBackend, seed: u64) -> (Vec<(u64, u32)>, u64, u64) {
    let mut eng = Engine::with_params(SimParams { scheduler: backend });
    seed_initial(&mut eng, seed);
    let mut h = Chaos::new(seed, 4_000);
    eng.run_to_completion(&mut h);
    (h.log, eng.delivered(), eng.now().as_nanos())
}

#[test]
fn wheel_and_heap_deliver_identical_sequences() {
    for seed in 0..48u64 {
        let wheel = run_one(SchedulerBackend::Wheel, seed);
        let heap = run_one(SchedulerBackend::Heap, seed);
        assert_eq!(wheel.1, heap.1, "delivered count diverged (seed {seed})");
        assert_eq!(wheel.2, heap.2, "final clock diverged (seed {seed})");
        assert_eq!(wheel.0, heap.0, "delivery sequence diverged (seed {seed})");
        // Sanity: the schedule actually exercised interesting territory.
        assert!(wheel.0.len() > 100, "degenerate schedule (seed {seed})");
    }
}

#[test]
fn wheel_and_heap_agree_across_random_horizon_steps() {
    // Stepping run_until at arbitrary horizons exercises the bounded-probe
    // path (failed peeks must not advance the wheel past the horizon) and
    // the drained-queue clock advance.
    for seed in 0..24u64 {
        let mut logs = Vec::new();
        for backend in [SchedulerBackend::Wheel, SchedulerBackend::Heap] {
            let mut eng = Engine::with_params(SimParams { scheduler: backend });
            seed_initial(&mut eng, seed);
            let mut h = Chaos::new(seed, 2_000);
            let mut horizon_rng = SimRng::seed_from_u64(seed ^ 0x5151);
            let mut horizon = 0u64;
            let mut checkpoints = Vec::new();
            for _ in 0..64 {
                // Mixed step sizes: some smaller than typical event gaps
                // (empty intervals), some spanning cascade boundaries.
                let step = 1 + horizon_rng.next_u64() % (1u64 << (6 + horizon_rng.index(10) * 3));
                horizon = horizon.saturating_add(step);
                let n = eng.run_until(SimTime::from_nanos(horizon), &mut h);
                checkpoints.push((n, eng.now().as_nanos(), eng.scheduler().pending()));
            }
            eng.run_to_completion(&mut h);
            checkpoints.push((eng.delivered(), eng.now().as_nanos(), 0));
            logs.push((h.log, checkpoints));
        }
        assert_eq!(logs[0].1, logs[1].1, "checkpoints diverged (seed {seed})");
        assert_eq!(logs[0].0, logs[1].0, "delivery diverged (seed {seed})");
    }
}

#[test]
fn backends_agree_on_saturated_far_future() {
    // Events scheduled with saturating `after` near SimTime::MAX must come
    // out last on both backends, in scheduling order.
    for backend in [SchedulerBackend::Wheel, SchedulerBackend::Heap] {
        let mut eng = Engine::with_params(SimParams { scheduler: backend });
        eng.scheduler().at(SimTime::from_nanos(u64::MAX - 1), 0);
        eng.scheduler().at(SimTime::MAX, 1);
        eng.scheduler().at(SimTime::from_nanos(3), 2);
        eng.scheduler().at(SimTime::MAX, 3);
        struct Log(Vec<(u64, u32)>);
        impl Handler<u32> for Log {
            fn handle(&mut self, now: SimTime, ev: u32, _: &mut Scheduler<u32>) {
                self.0.push((now.as_nanos(), ev));
            }
        }
        let mut h = Log(Vec::new());
        eng.run_to_completion(&mut h);
        assert_eq!(
            h.0,
            vec![(3, 2), (u64::MAX - 1, 0), (u64::MAX, 1), (u64::MAX, 3),],
            "backend {backend:?}"
        );
    }
}
