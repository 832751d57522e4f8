//! The full simulated system: workload → data plane → agents → coordinators
//! → allocations, closed through the simulated network.
//!
//! This is the "detailed simulation prototype" of the paper's §7: the
//! feedback-controlled loop of §5 runs *inside* the discrete-event
//! simulation — agent reports, new allocations and grant confirmations are
//! control messages that traverse the shared LAN (and are accounted as
//! control traffic for the §7.5 overhead experiment), and every check phase
//! happens at a coordinator placed on a real node.

use dmm_buffer::ClassId;
use dmm_cluster::{ClusterEvent, CostSlot, DataPlane, FaultKind, HomeLoad, NodeId};
use dmm_obs::{MetricsSnapshot, NoopSink, TraceSink};
use dmm_sim::{Engine, Handler, Scheduler, SimDuration, SimTime};
use dmm_workload::{GoalSchedule, WorkloadGenerator};

use crate::agent::{AgentObservation, LocalAgent};
use crate::approx::Planes;
use crate::baselines::ControllerKind;
use crate::config::SystemConfig;
use crate::coordinator::{Coordinator, PAGES_PER_MB};
use crate::error::Error;
use crate::metrics::{ConvergenceStats, IntervalRecord};
use crate::probe::ProbeSpec;
use crate::records::{
    self, GoalMetricLabel, IntervalQuantile, Keyed, Record, TierExtension, TierLoad,
};

/// Agent significance threshold for reporting (fractional RT change).
const AGENT_SIGNIFICANCE: f64 = 0.05;
/// Size of an agent report message in bytes.
const REPORT_BYTES: u64 = 64;
/// Size of an allocation, grant or coordinator-migration message in bytes.
const ALLOC_MSG_BYTES: u64 = 64;

/// Events of the closed-loop system. Kept small (≤ 24 B) because every
/// pending event occupies a wheel node: the rare, bulky agent report parks
/// its observation in [`ReportSlots`] and travels as a slot index.
#[derive(Debug, Clone)]
enum SysEvent {
    Data(ClusterEvent),
    Arrival {
        node: NodeId,
        class: ClassId,
    },
    IntervalEnd,
    Report {
        to: ClassId,
        slot: u32,
    },
    CoordCheck {
        class: ClassId,
    },
    Alloc {
        class: ClassId,
        node: NodeId,
        pages: usize,
    },
    Granted {
        class: ClassId,
        node: NodeId,
        requested: u32,
        granted: u32,
        avail: u32,
    },
    Fault {
        kind: FaultKind,
    },
}

/// Agent observations in flight to their coordinator, parked by slot so a
/// [`SysEvent::Report`] stays small. Delivered slots go on a free list and
/// are reused, so after warm-up parking allocates nothing.
#[derive(Default)]
struct ReportSlots {
    slots: Vec<AgentObservation>,
    free: Vec<u32>,
}

impl ReportSlots {
    /// Copies `obs` into a free slot. A slot whose last report carried a
    /// histogram iff this one does is preferred, so histogram buffers are
    /// reused rather than dropped and reallocated.
    fn park(&mut self, obs: &AgentObservation) -> u32 {
        let slots = &self.slots;
        let same_kind =
            |&slot: &u32| slots[slot as usize].rt_hist.is_some() == obs.rt_hist.is_some();
        let free = self.free.iter().rposition(same_kind);
        match free.or(self.free.len().checked_sub(1)) {
            Some(i) => {
                let slot = self.free.swap_remove(i);
                self.slots[slot as usize].clone_from(obs);
                slot
            }
            None => {
                self.slots.push(obs.clone());
                u32::try_from(self.slots.len() - 1).expect("report slots fit u32")
            }
        }
    }

    /// The report parked in `slot`, which is free again once this borrow
    /// ends.
    fn take(&mut self, slot: u32) -> &AgentObservation {
        debug_assert!(!self.free.contains(&slot), "report slot is delivered once");
        self.free.push(slot);
        &self.slots[slot as usize]
    }
}

/// A page count carried by a control message.
fn msg_pages(pages: usize) -> u32 {
    u32::try_from(pages).expect("page count fits u32")
}

/// Delay between the interval boundary and the coordinator check, giving
/// agent reports time to cross the LAN.
const CHECK_DELAY: SimDuration = SimDuration::from_millis(50);

/// One goal class's control plane: its coordinator (which knows the node it
/// runs on), its goal schedule, and what §7's protocol measures of it.
struct GoalClass {
    coord: Coordinator,
    schedule: Option<GoalSchedule>,
    convergence: ConvergenceStats,
    records: Vec<IntervalRecord>,
}

struct SimState {
    plane: DataPlane,
    gen: WorkloadGenerator,
    /// `agents[class][node]`.
    agents: Vec<Vec<LocalAgent>>,
    /// `goals[k - 1]` is goal class `k`'s (classes `1..=K`; the no-goal
    /// class 0 has no control plane).
    goals: Vec<GoalClass>,
    /// Observations of the [`SysEvent::Report`]s in flight.
    reports: ReportSlots,
    interval_idx: u32,
    interval: SimDuration,
    warmup_intervals: u32,
    /// Structured trace receiver (§5 phases) and its line buffer.
    trace: Trace,
    /// Per-slot access-cost observation counts at the previous interval
    /// boundary, for per-interval level shares (one entry per storage slot
    /// of the configured tier ladder).
    last_level_obs: Vec<u64>,
    /// Fraction of last interval's observed accesses served per slot.
    level_share: Vec<f64>,
    /// Stable slot names of the ladder (`local_hit`, …), for trace fields.
    slot_names: Vec<String>,
    /// The `home_load` record's per-node counts, refilled in place.
    home_load: HomeLoad,
    /// The `tier_occupancy` of an extended ladder's `interval` records, one
    /// entry per memory tier, refilled in place.
    tier_loads: Vec<TierLoad>,
    /// The run's replay closure, emitted as the leading `run_config`
    /// record whenever an enabled sink is attached.
    run_config: String,
}

/// The trace receiver ([`NoopSink`] by default) and the one line buffer
/// every record is written into before the sink sees it.
struct Trace {
    sink: Box<dyn TraceSink>,
    line: String,
}

impl Trace {
    fn enabled(&self) -> bool {
        self.sink.enabled()
    }

    /// Writes `record` into the reused line and hands the line over.
    fn emit(&mut self, record: &impl Record) {
        self.line.clear();
        record.write(&mut self.line);
        self.sink.emit_line(&self.line);
    }
}

impl SimState {
    fn goal(&self, class: ClassId) -> &GoalClass {
        &self.goals[class.index() - 1]
    }

    fn goal_mut(&mut self, class: ClassId) -> &mut GoalClass {
        &mut self.goals[class.index() - 1]
    }

    fn schedule_plane(
        out: dmm_cluster::StepOutput,
        agents: &mut [Vec<LocalAgent>],
        trace: &mut Trace,
        sched: &mut Scheduler<SysEvent>,
    ) {
        if let Some((t, e)) = out.schedule {
            sched.at(t, SysEvent::Data(e));
        }
        if let Some(c) = out.completed {
            let agent = &mut agents[c.class.index()][c.origin.index()];
            agent.on_completion(c.response_ms());
            // Quantile-goal classes additionally feed the integer-exact
            // response time into the interval histogram (no-op otherwise;
            // the mean path above is untouched either way).
            if agent.collects_rt_histograms() {
                agent.record_rt_ns(c.finished.since(c.arrival).as_nanos());
            }
            // Sampled operations carry their per-stage decomposition out of
            // the data plane; emit it as a `span` trace record. The stage
            // sums partition the response time integer-exactly (§5f of
            // DESIGN.md), so `response_ms` is redundant but convenient.
            if trace.enabled() {
                if let Some(stages) = c.span {
                    let record = records::Span {
                        t_ms: c.finished.as_millis_f64(),
                        op: c.id.0,
                        class: c.class.index() as u64,
                        origin: c.origin.index() as u64,
                        response_ms: c.response_ms(),
                        stages,
                    };
                    trace.emit(&record);
                }
            }
        }
    }

    fn end_interval(&mut self, now: SimTime, sched: &mut Scheduler<SysEvent>) {
        self.interval_idx += 1;
        sched.after(self.interval, SysEvent::IntervalEnd);
        // Advance the benefit epoch and decay every benefit by a common
        // factor; re-pricing itself waits for the eviction path's victim
        // loop (heat decays between accesses; §6's dissemination protocols
        // keep remote info current the same way).
        self.plane.on_interval(now);
        // Per-interval storage-level shares from the cost estimator's
        // observation counters (tagged finished requests, §6), one slot per
        // rung of the configured ladder.
        let mut total = 0u64;
        for (i, share) in self.level_share.iter_mut().enumerate() {
            let seen = self.plane.costs().observations(CostSlot(i as u8));
            let delta = seen - self.last_level_obs[i];
            self.last_level_obs[i] = seen;
            total += delta;
            *share = delta as f64;
        }
        if total > 0 {
            for share in &mut self.level_share {
                *share /= total as f64;
            }
        }
        // Per-node home-load snapshot: how placement is spreading home
        // duty (pages owned, home reads served, remote fan-in) across the
        // cluster. One record per interval, for every placement scheme, so
        // scheme A vs scheme B traces differ only where the load does.
        if self.trace.enabled() {
            let load = &mut self.home_load;
            self.plane.fill_home_load(load);
            let rec = records::HomeLoad {
                interval: self.interval_idx.saturating_sub(1) as u64,
                t_ms: now.as_millis_f64(),
                home_pages: &load.home_pages,
                home_reads: &load.home_reads,
                remote_fanin: &load.remote_fanin,
            };
            self.trace.emit(&rec);
        }
        // Per-link network-load snapshot, only under a switched fabric: the
        // cumulative TX/RX busy fraction of every node's links (and of the
        // switch core, when its bisection capacity is finite). Shared-medium
        // traces carry no such record and stay byte-identical.
        if self.trace.enabled() {
            let net = self.plane.network();
            if net.is_switched() {
                let n = self.plane.num_nodes();
                let mut tx = Vec::with_capacity(n);
                let mut rx = Vec::with_capacity(n);
                for i in 0..n {
                    let u = net.link_utilization(i, now).expect("switched fabric");
                    tx.push(u.tx);
                    rx.push(u.rx);
                }
                let rec = records::NetLoad {
                    interval: self.interval_idx.saturating_sub(1) as u64,
                    t_ms: now.as_millis_f64(),
                    tx_busy: tx,
                    rx_busy: rx,
                    bisection_busy: net.bisection_utilization(now),
                };
                self.trace.emit(&rec);
            }
        }
        let interval_ms = self.interval.as_millis_f64();

        for class_agents in &mut self.agents {
            for agent in class_agents {
                let node = agent.node();
                let class = agent.class();
                let granted = self.plane.dedicated_pages(node, class);
                let avail = self.plane.avail_pages(node, class);
                let pool = self.plane.pool_stats(node, class);
                let (obs, significant) = agent.end_interval(interval_ms, granted, avail, pool);
                // A crashed node's agent is volatile state: its window is
                // flushed (so pre-crash partials don't leak into the first
                // post-restart report) but nothing crosses the LAN.
                if !significant || !self.plane.is_up(node) {
                    continue;
                }
                // Goal-class reports go to their coordinator; no-goal
                // reports fan out to every goal coordinator (§5(a)).
                let targets = if class.is_no_goal() {
                    &self.goals[..]
                } else {
                    std::slice::from_ref(&self.goals[class.index() - 1])
                };
                for to in targets.iter().map(|goal| &goal.coord) {
                    let delivered = self.plane.send_control(node, to.home(), REPORT_BYTES, now);
                    let slot = self.reports.park(obs);
                    sched.at(
                        delivered,
                        SysEvent::Report {
                            to: to.class(),
                            slot,
                        },
                    );
                }
            }
        }
        for goal in &self.goals {
            let class = goal.coord.class();
            sched.after(CHECK_DELAY, SysEvent::CoordCheck { class });
        }

        if self.interval_idx == self.warmup_intervals {
            // Statistics window starts now: drop warm-up counters.
            self.plane.reset_stats(now);
            for class_agents in &mut self.agents {
                for agent in class_agents {
                    agent.reset_pool_baseline();
                }
            }
        }
    }

    fn coord_check(&mut self, class: ClassId, now: SimTime, sched: &mut Scheduler<SysEvent>) {
        let measuring = self.interval_idx > self.warmup_intervals;
        let goal = &mut self.goals[class.index() - 1];
        let mut outcome = goal.coord.check(now);
        let acted = outcome.optimize.is_some();
        // Phase (e) first: the messages change only the network, which no
        // record below reads.
        if let Some(alloc_mb) = outcome.new_alloc_mb() {
            let home = goal.coord.home();
            for (i, mb) in alloc_mb.iter().enumerate() {
                let node = NodeId(i as u16);
                let pages = (mb * PAGES_PER_MB).round().max(0.0) as usize;
                if pages == self.plane.dedicated_pages(node, class) {
                    continue; // nothing to change on this node
                }
                let delivered = self.plane.send_control(home, node, ALLOC_MSG_BYTES, now);
                sched.at(delivered, SysEvent::Alloc { class, node, pages });
            }
        }

        let metric = goal.coord.goal_metric();
        let record = IntervalRecord {
            interval: self.interval_idx.saturating_sub(1),
            observed_ms: outcome.observed_class_ms,
            observed_p_ms: outcome.observed_quantile_ms,
            goal_ms: goal.coord.goal_ms(),
            nogoal_ms: outcome.observed_nogoal_ms,
            dedicated_bytes: self.plane.total_dedicated_bytes(class),
            satisfied: outcome.satisfied,
        };
        goal.records.push(record);

        if self.trace.enabled() {
            let phase = if outcome.settling {
                "settling"
            } else if acted {
                "optimized"
            } else if outcome.satisfied == Some(true) {
                "satisfied"
            } else if outcome.satisfied == Some(false) {
                "violated_no_action"
            } else {
                "no_data"
            };
            let mut class_pool = dmm_buffer::PoolStats::default();
            let mut nogoal_pool = dmm_buffer::PoolStats::default();
            for n in 0..self.plane.num_nodes() {
                let node = NodeId(n as u16);
                class_pool.merge(&self.plane.pool_stats(node, class));
                nogoal_pool.merge(&self.plane.pool_stats(node, dmm_buffer::NO_GOAL));
            }
            let tiers = &self.plane.params().tiers;
            if tiers.is_extended() {
                for (t, load) in self.tier_loads.iter_mut().enumerate() {
                    (load.resident, load.frames) = self.plane.tier_residency(t);
                }
            }
            // Quantile goals append their fields *after* the base layout,
            // so mean-goal traces stay byte-identical (the quantile path is
            // purely additive); extended ladders append per-tier occupancy
            // after every other extension, for the same reason.
            let rec = records::Interval {
                interval: record.interval as u64,
                t_ms: now.as_millis_f64(),
                class: class.index() as u64,
                observed_ms: record.observed_ms,
                goal_ms: record.goal_ms,
                nogoal_ms: record.nogoal_ms,
                tolerance_ms: outcome.tolerance_ms,
                satisfied: outcome.satisfied,
                settling: outcome.settling,
                store_cleared: outcome.store_cleared,
                phase,
                dedicated_mb: record.dedicated_bytes as f64 / (1024.0 * 1024.0),
                level_share: Keyed {
                    keys: &self.slot_names,
                    values: &self.level_share,
                },
                class_hit_rate: class_pool.hit_rate(),
                nogoal_hit_rate: nogoal_pool.hit_rate(),
                residual_ms: outcome.prediction_residual_ms,
                quantile: metric.is_quantile().then_some(IntervalQuantile {
                    observed_p_ms: outcome.observed_quantile_ms,
                    goal_metric: metric,
                }),
                tier: tiers.is_extended().then_some(TierExtension {
                    tier_occupancy: Keyed {
                        keys: &tiers.tiers()[..self.tier_loads.len()],
                        values: &self.tier_loads,
                    },
                }),
            };
            self.trace.emit(&rec);

            if let Some(mut rec) = outcome.optimize.take() {
                rec.interval = record.interval as u64;
                self.trace.emit(&rec);
            }
        }

        if let Some(satisfied) = outcome.satisfied {
            if measuring {
                goal.convergence.on_check(satisfied, acted);
            }
            let schedule = goal.schedule.as_mut();
            if let Some(new_goal) = schedule.and_then(|s| s.observe_interval(satisfied)) {
                let old_goal = goal.coord.goal_ms();
                goal.coord.set_goal(new_goal);
                if measuring {
                    goal.convergence.on_goal_change();
                }
                if self.trace.enabled() {
                    let rec = records::GoalChange {
                        interval: self.interval_idx.saturating_sub(1) as u64,
                        t_ms: now.as_millis_f64(),
                        class: class.index() as u64,
                        old_goal_ms: old_goal,
                        new_goal_ms: new_goal,
                        quantile: metric.is_quantile().then_some(GoalMetricLabel {
                            goal_metric: metric,
                        }),
                    };
                    self.trace.emit(&rec);
                }
            }
        }
    }

    /// Moves `class`'s coordinator to `to`, informing every node with one
    /// control message charged to the LAN. `broadcast_from` is the node that
    /// announces the move: the old home for a planned migration, the *new*
    /// home for a crash failover (the old home can no longer send).
    fn migrate_coordinator_from(
        &mut self,
        class: ClassId,
        to: NodeId,
        broadcast_from: NodeId,
        now: SimTime,
    ) {
        for n in 0..self.plane.num_nodes() {
            self.plane
                .send_control(broadcast_from, NodeId(n as u16), ALLOC_MSG_BYTES, now);
        }
        self.goal_mut(class).coord.migrate(to);
    }

    /// Applies one scheduled fault: crash (coordinator failover, degraded
    /// re-optimization over the survivors) or restart (cold rejoin).
    fn on_fault(&mut self, kind: FaultKind, now: SimTime) {
        match kind {
            FaultKind::Crash(node) => {
                if !self.plane.is_up(node) {
                    return; // already down
                }
                self.plane.crash_node(node);
                let measuring = self.interval_idx > self.warmup_intervals;
                for i in 0..self.goals.len() {
                    let class = self.goals[i].coord.class();
                    if self.goals[i].coord.home() == node {
                        // Failover: the coordinator's volatile state is
                        // modeled as replicated, so the lowest-indexed
                        // survivor takes over and announces itself.
                        let new_home = (0..self.plane.num_nodes())
                            .map(|i| NodeId(i as u16))
                            .find(|&n| self.plane.is_up(n))
                            .expect("fault plans never crash the whole cluster");
                        self.migrate_coordinator_from(class, new_home, new_home, now);
                        if self.trace.enabled() {
                            let rec = records::Failover {
                                t_ms: now.as_millis_f64(),
                                class: class.index() as u64,
                                from: node.index() as u64,
                                to: new_home.index() as u64,
                            };
                            self.trace.emit(&rec);
                        }
                    }
                    let goal = &mut self.goals[i];
                    goal.coord.node_down(node);
                    if measuring {
                        // Re-convergence after the crash is a fresh episode.
                        goal.convergence.on_goal_change();
                    }
                }
                self.emit_fault_record(kind, now);
            }
            FaultKind::Restart(node) => {
                if self.plane.is_up(node) {
                    return; // already up
                }
                self.plane.restart_node(node);
                for goal in &mut self.goals {
                    goal.coord.node_up(node);
                }
                self.emit_fault_record(kind, now);
            }
        }
    }

    fn emit_fault_record(&mut self, kind: FaultKind, now: SimTime) {
        if !self.trace.enabled() {
            return;
        }
        let stats = self.plane.fault_stats();
        let rec = records::Fault {
            t_ms: now.as_millis_f64(),
            kind,
            node: kind.node().index() as u64,
            live_nodes: self.plane.live_nodes(),
            last_copy_losses: stats.last_copy_losses,
            ops_aborted: stats.ops_aborted,
        };
        self.trace.emit(&rec);
    }
}

impl Handler<SysEvent> for SimState {
    fn handle(&mut self, now: SimTime, event: SysEvent, sched: &mut Scheduler<SysEvent>) {
        match event {
            SysEvent::Data(e) => {
                let out = self.plane.handle(now, e);
                Self::schedule_plane(out, &mut self.agents, &mut self.trace, sched);
            }
            SysEvent::Arrival { node, class } => {
                // Work arriving at a crashed node is lost (clients fail,
                // they don't queue); the stream keeps ticking so the node
                // resumes service immediately on restart.
                if self.plane.is_up(node) {
                    self.agents[class.index()][node.index()].on_arrival();
                    let op = self.gen.make_op(node, class, now);
                    let out = self.plane.start_operation(op, now);
                    Self::schedule_plane(out, &mut self.agents, &mut self.trace, sched);
                }
                let gap = self.gen.next_gap(node, class, now);
                sched.after(gap, SysEvent::Arrival { node, class });
            }
            SysEvent::IntervalEnd => self.end_interval(now, sched),
            SysEvent::Report { to, slot } => {
                let obs = self.reports.take(slot);
                self.goals[to.index() - 1].coord.on_report(obs);
            }
            SysEvent::CoordCheck { class } => self.coord_check(class, now, sched),
            SysEvent::Alloc { class, node, pages } => {
                if !self.plane.is_up(node) {
                    return; // the allocation message reached a dead node
                }
                let granted = self.plane.apply_allocation(node, class, pages, now);
                let avail = self.plane.avail_pages(node, class);
                let home = self.goal(class).coord.home();
                let delivered = self.plane.send_control(node, home, ALLOC_MSG_BYTES, now);
                sched.at(
                    delivered,
                    SysEvent::Granted {
                        class,
                        node,
                        requested: msg_pages(pages),
                        granted: msg_pages(granted),
                        avail: msg_pages(avail),
                    },
                );
            }
            SysEvent::Granted {
                class,
                node,
                requested,
                granted,
                avail,
            } => {
                if !self.plane.is_up(node) {
                    return; // grant from a node that crashed in flight
                }
                if self.trace.enabled() {
                    let rec = records::Grant {
                        t_ms: now.as_millis_f64(),
                        class: class.index() as u64,
                        node: node.index() as u64,
                        requested_pages: requested,
                        granted_pages: granted,
                        avail_pages: avail,
                    };
                    self.trace.emit(&rec);
                }
                self.goal_mut(class)
                    .coord
                    .on_granted(node, granted as usize, avail as usize);
            }
            SysEvent::Fault { kind } => self.on_fault(kind, now),
        }
    }
}

/// A runnable closed-loop experiment.
pub struct Simulation {
    engine: Engine<SysEvent>,
    state: SimState,
}

impl Simulation {
    /// Builds the system and schedules the initial arrivals and interval
    /// clock. Panics ("invalid configuration") on a `config` that
    /// [`SystemConfig::validate`] refuses, such as one edited after
    /// [`SystemConfigBuilder::build`](crate::SystemConfigBuilder::build).
    pub fn new(config: SystemConfig) -> Self {
        config.validate().expect("invalid configuration");
        let mut cluster = config.cluster.clone();
        let goal_classes = config.workload.classes.len() - 1;
        cluster.goal_classes = goal_classes;

        let mut plane = DataPlane::new(cluster.clone());
        if let Some(plan) = &config.fault_plan {
            plane.install_faults(plan);
        }
        let gen = WorkloadGenerator::new(config.workload.clone(), cluster.nodes, config.seed);
        let node_size_mb = config.node_size_mb();

        let mut agents = Vec::new();
        for spec in &config.workload.classes {
            let class_agents = (0..cluster.nodes)
                .map(|n| {
                    let mut agent =
                        LocalAgent::new(NodeId(n as u16), spec.class, AGENT_SIGNIFICANCE);
                    // Quantile-goal classes collect per-interval RT
                    // histograms; everyone else keeps the cheap mean-only
                    // path (and mean-goal traces stay byte-identical).
                    if spec.goal_metric.is_quantile() {
                        agent.enable_rt_histograms();
                    }
                    agent
                })
                .collect();
            agents.push(class_agents);
        }

        // Classes 1..=K, the ones with a goal, each get a control plane.
        let (nodes, controller) = (cluster.nodes, config.controller);
        let mut goals = Vec::with_capacity(goal_classes);
        let specs = config.workload.classes.iter();
        for (spec, goal_ms) in specs.filter_map(|spec| Some((spec, spec.goal_ms?))) {
            let class = spec.class;
            let home = NodeId(((class.index() - 1) % nodes) as u16);
            let mut coord = Coordinator::new(class, home, nodes, node_size_mb, goal_ms, controller);
            coord.set_satisfaction_mode(config.satisfaction);
            coord.set_release_floor(config.release_floor_mb);
            coord.set_goal_metric(spec.goal_metric);
            if let ProbeSpec::Batched { batch } = config.probe {
                coord.set_probe_batch(batch);
            }
            let seed = config.seed ^ (0xC0FFEE + class.index() as u64);
            let schedule = config
                .goal_range
                .map(|r| GoalSchedule::new(r, goal_ms, seed));
            goals.push(GoalClass {
                coord,
                schedule,
                convergence: ConvergenceStats::new(),
                records: Vec::new(),
            });
        }

        // Static baseline: dedicate the fraction up front.
        if let ControllerKind::Static { fraction } = config.controller {
            let pages = (fraction * cluster.local_frames_per_node() as f64) as usize;
            for spec in &config.workload.classes[1..] {
                for n in 0..cluster.nodes {
                    plane.apply_allocation(NodeId(n as u16), spec.class, pages, SimTime::ZERO);
                }
            }
        } else if !matches!(config.controller, ControllerKind::None)
            && config.release_floor_mb > 0.0
        {
            // Active controllers start each goal class at its floor so the
            // class is on the controllable (dedicated) branch from t = 0.
            let pages_total = (config.release_floor_mb * PAGES_PER_MB) as usize;
            let per_node = pages_total.div_ceil(cluster.nodes);
            for spec in &config.workload.classes[1..] {
                for n in 0..cluster.nodes {
                    plane.apply_allocation(NodeId(n as u16), spec.class, per_node, SimTime::ZERO);
                }
            }
        }

        let mut state = SimState {
            plane,
            gen,
            agents,
            goals,
            reports: ReportSlots::default(),
            interval_idx: 0,
            interval: config.interval,
            warmup_intervals: config.warmup_intervals,
            trace: Trace {
                sink: Box::new(NoopSink),
                line: String::new(),
            },
            last_level_obs: vec![0; cluster.tiers.num_slots()],
            level_share: vec![0.0; cluster.tiers.num_slots()],
            slot_names: cluster.tiers.slot_names(),
            home_load: HomeLoad::default(),
            tier_loads: (0..cluster.tiers.num_memory_tiers())
                .map(|_| TierLoad {
                    resident: 0,
                    frames: 0,
                })
                .collect(),
            run_config: crate::replay::run_config_line(&config),
        };

        let mut engine = Engine::with_params(config.sim);
        for (node, class) in state.gen.active_streams() {
            let gap = state.gen.next_gap(node, class, SimTime::ZERO);
            engine
                .scheduler()
                .at(SimTime::ZERO + gap, SysEvent::Arrival { node, class });
        }
        engine
            .scheduler()
            .at(SimTime::ZERO + config.interval, SysEvent::IntervalEnd);
        if let Some(plan) = &config.fault_plan {
            for fault in plan.events_in_order() {
                engine
                    .scheduler()
                    .at(fault.at, SysEvent::Fault { kind: fault.kind });
            }
        }

        Simulation { engine, state }
    }

    /// Runs `n` more observation intervals (including their check phases).
    pub fn run_intervals(&mut self, n: u32) {
        let target = self.state.interval_idx + n;
        let horizon =
            SimTime::ZERO + self.state.interval * (target as u64) + self.state.interval / 2;
        self.engine.run_until(horizon, &mut self.state);
        debug_assert_eq!(self.state.interval_idx, target);
    }

    /// Intervals completed so far.
    pub fn intervals(&self) -> u32 {
        self.state.interval_idx
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Per-interval records of a goal class (one per check phase); empty
    /// for a class without a coordinator.
    pub fn records(&self, class: ClassId) -> &[IntervalRecord] {
        // The no-goal class 0 wraps to an index past the end.
        let goal = self.state.goals.get(class.index().wrapping_sub(1));
        goal.map_or(&[], |goal| &goal.records)
    }

    /// Convergence statistics of a goal class; like [`Simulation::goal_ms`],
    /// panics for a class without a coordinator.
    pub fn convergence(&self, class: ClassId) -> &ConvergenceStats {
        &self.state.goal(class).convergence
    }

    /// The underlying cluster (network bytes, pool stats, directory…).
    pub fn plane(&self) -> &DataPlane {
        &self.state.plane
    }

    /// The most recent response-time surfaces `class`'s coordinator fitted
    /// (or was warm-started with), if any — the donor for a cross-scale
    /// warm start via [`Simulation::warm_start_class`].
    pub fn fitted_planes(&self, class: ClassId) -> Option<Planes> {
        self.check_goal_class(class).ok()?;
        self.state.goal(class).coord.fitted_planes().cloned()
    }

    /// Seeds `class`'s coordinator with a full-rank synthetic measure set
    /// derived from `planes` (typically a smaller system's fit stretched by
    /// [`crate::approx::upsample_planes`]), skipping the ~N-interval probe
    /// ramp. Returns [`Error::UnknownClass`]/[`Error::NotAGoalClass`] on a
    /// bad class; the plane width must match the node count.
    pub fn warm_start_class(&mut self, class: ClassId, planes: &Planes) -> Result<(), Error> {
        self.check_goal_class(class)?;
        let now = self.engine.now();
        self.state.goal_mut(class).coord.warm_start(planes, now);
        Ok(())
    }

    /// Replaces the structured-trace receiver (default: [`NoopSink`]).
    /// Swap in a [`dmm_obs::VecSink`] handle or a
    /// [`dmm_obs::JsonLinesSink`] to capture one record per control-loop
    /// phase, allocation grant and goal change. An enabled sink first
    /// receives the run's `run_config` record — the replay closure that
    /// lets `dmm-trace replay` reconstruct and re-run this configuration.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        let state = &mut self.state;
        state.trace.sink = sink;
        if state.trace.enabled() {
            state.trace.sink.emit_line(&state.run_config);
        }
    }

    /// Event-queue work counters (pushes, peak depth, cascades, per-level
    /// occupancy, direct deliveries) of the underlying engine.
    pub fn sched_stats(&self) -> dmm_sim::SchedStats {
        self.engine.sched_stats()
    }

    /// A snapshot of every counter, gauge and histogram in the system at
    /// the current simulated instant: engine, network, disks, CPUs, buffer
    /// pools per class, and per-coordinator control-loop counters.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.counter("sim.events", self.engine.delivered());
        snap.counter("sim.intervals", self.state.interval_idx as u64);
        let sched = self.engine.sched_stats();
        snap.counter("sim.sched.pushes", sched.pushes);
        snap.counter("sim.sched.peak_pending", sched.peak_pending);
        snap.counter("sim.sched.cascaded", sched.cascaded);
        snap.counter("sim.sched.direct", sched.direct);
        for (level, &n) in sched.level_pushes.iter().enumerate() {
            if n > 0 {
                if level == dmm_sim::wheel::WHEEL_LEVELS {
                    snap.counter("sim.sched.overflow.pushes", n);
                } else {
                    snap.counter(format!("sim.sched.level{level}.pushes"), n);
                }
            }
        }
        // Sink-health counters are zero-suppressed so healthy traces stay
        // byte-identical across sink implementations.
        let sink = &self.state.trace.sink;
        if sink.write_errors() > 0 {
            snap.counter("obs.sink.errors", sink.write_errors());
        }
        if sink.dropped_records() > 0 {
            snap.counter("obs.sink.dropped_records", sink.dropped_records());
        }
        self.state.plane.fill_metrics(&mut snap, self.engine.now());
        for coord in self.state.goals.iter().map(|goal| &goal.coord) {
            let k = coord.class().index();
            snap.counter(format!("core.class{k}.checks"), coord.checks());
            snap.counter(
                format!("core.class{k}.optimizations"),
                coord.optimizations(),
            );
            snap.gauge(format!("core.class{k}.goal_ms"), coord.goal_ms());
            snap.gauge(format!("core.class{k}.tolerance_ms"), coord.tolerance_ms());
            if let Some(r) = coord.residual_ewma_ms() {
                snap.gauge(format!("core.class{k}.residual_ewma_ms"), r);
            }
            // e.g. `core.class1.p95_ms`: last observed goal-quantile of a
            // quantile-goal class.
            if coord.goal_metric().is_quantile() {
                if let Some(p) = coord.last_quantile_ms() {
                    let label = coord.goal_metric().label();
                    snap.gauge(format!("core.class{k}.{label}_ms"), p);
                }
            }
        }
        snap
    }

    /// The goal currently in force for a goal class.
    pub fn goal_ms(&self, class: ClassId) -> f64 {
        self.state.goal(class).coord.goal_ms()
    }

    /// Validates that `class` exists and has a coordinator.
    fn check_goal_class(&self, class: ClassId) -> Result<(), Error> {
        if class.index() > self.state.goals.len() {
            return Err(Error::UnknownClass(class));
        }
        if class.is_no_goal() {
            return Err(Error::NotAGoalClass(class));
        }
        Ok(())
    }

    /// Migrates `class`'s coordinator to `node` (§5 load balancing). All
    /// agents are informed via one broadcast-equivalent control message per
    /// node, charged to the simulated LAN. Fails if `class` has no
    /// coordinator or `node` is unknown or down.
    pub fn migrate_coordinator(&mut self, class: ClassId, node: NodeId) -> Result<(), Error> {
        self.check_goal_class(class)?;
        if node.index() >= self.state.plane.num_nodes() {
            return Err(Error::UnknownNode(node));
        }
        if !self.state.plane.is_up(node) {
            return Err(Error::NodeDown(node));
        }
        let old = self.coordinator_home(class);
        if old == node {
            return Ok(());
        }
        let now = self.engine.now();
        self.state.migrate_coordinator_from(class, node, old, now);
        Ok(())
    }

    /// Node currently hosting `class`'s coordinator.
    pub fn coordinator_home(&self, class: ClassId) -> NodeId {
        self.state.goal(class).coord.home()
    }

    /// Changes `class`'s response time goal at the current instant (dynamic
    /// goal adjustment, §1: the method "allows dynamic adjustments of the
    /// class-specific response time goals"). Fails if `class` has no
    /// coordinator or the goal is not positive and finite.
    pub fn set_goal(&mut self, class: ClassId, goal_ms: f64) -> Result<(), Error> {
        self.check_goal_class(class)?;
        if !(goal_ms > 0.0 && goal_ms.is_finite()) {
            return Err(Error::InvalidGoal(goal_ms));
        }
        let measuring = self.state.interval_idx > self.state.warmup_intervals;
        let goal = self.state.goal_mut(class);
        goal.coord.set_goal(goal_ms);
        if measuring {
            goal.convergence.on_goal_change();
        }
        Ok(())
    }

    /// Manually dedicates `fraction` of every node's buffer to `class`
    /// (used by goal-range calibration; normally the controller does this).
    /// Fails if `class` has no coordinator or `fraction` is outside `[0, 1]`.
    pub fn dedicate_fraction(&mut self, class: ClassId, fraction: f64) -> Result<(), Error> {
        self.check_goal_class(class)?;
        if !fraction.is_finite() || !(0.0..=1.0).contains(&fraction) {
            return Err(Error::InvalidFraction(fraction));
        }
        let pages = (fraction * self.state.plane.params().local_frames_per_node() as f64) as usize;
        for n in 0..self.state.plane.num_nodes() {
            self.state
                .plane
                .apply_allocation(NodeId(n as u16), class, pages, self.engine.now());
        }
        Ok(())
    }

    /// Mean observed response time of `class` over the last `n` records.
    pub fn mean_observed_ms(&self, class: ClassId, n: usize) -> Option<f64> {
        self.mean_of_last(class, n, |r| r.observed_ms)
    }

    /// Mean of the observed goal-quantile over the last `n` records
    /// (quantile-goal classes only; `None` when no record carries one).
    /// Used by quantile-goal calibration the way
    /// [`Simulation::mean_observed_ms`] serves mean goals.
    pub fn mean_observed_quantile_ms(&self, class: ClassId, n: usize) -> Option<f64> {
        self.mean_of_last(class, n, |r| r.observed_p_ms)
    }

    /// Mean of `value` over those of `class`'s last `n` records that carry
    /// one.
    fn mean_of_last(
        &self,
        class: ClassId,
        n: usize,
        value: fn(&IntervalRecord) -> Option<f64>,
    ) -> Option<f64> {
        let records = self.records(class);
        let tail = &records[records.len().saturating_sub(n)..];
        let vals: Vec<f64> = tail.iter().filter_map(value).collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Cumulative completed operations of `class` across all nodes (from
    /// the agents' lifetime counters; unaffected by the warm-up stats
    /// reset). The `tail` bench uses this to measure batch makespan — the
    /// simulated time by which the batch class has finished a fixed number
    /// of operations.
    pub fn class_completions(&self, class: ClassId) -> u64 {
        self.state.agents[class.index()]
            .iter()
            .map(|a| a.completions_total())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::SatisfactionMode;
    use dmm_cluster::{TierSpec, PAGE_BYTES};
    use dmm_workload::GoalRange;

    fn small_config(seed: u64) -> SystemConfig {
        // Shrunk from the paper's base experiment for test speed: fewer
        // pages, smaller buffers.
        SystemConfig::builder()
            .seed(seed)
            .goal_ms(8.0)
            .db_pages(400)
            .buffer_pages_per_node(96)
            .goal_rate_per_ms(0.008)
            .warmup_intervals(2)
            .build()
            .expect("valid test config")
    }

    #[test]
    fn sys_event_fits_a_small_wheel_node() {
        assert!(
            std::mem::size_of::<SysEvent>() <= 24,
            "SysEvent is {} B",
            std::mem::size_of::<SysEvent>()
        );
    }

    fn report(completions: u64, hist: bool) -> AgentObservation {
        AgentObservation {
            node: NodeId(0),
            class: ClassId(1),
            mean_rt_ms: None,
            rt_hist: hist.then(crate::agent::rt_histogram),
            completions,
            arrival_rate_per_ms: 0.0,
            pool_accesses: 0,
            pool_hits: 0,
            granted_pages: 0,
            avail_pages: 0,
        }
    }

    #[test]
    fn report_slots_are_reused_after_delivery() {
        let mut slots = ReportSlots::default();
        let a = slots.park(&report(1, false));
        let b = slots.park(&report(2, false));
        assert_ne!(a, b);
        assert_eq!(slots.take(a).completions, 1);
        assert_eq!(
            slots.park(&report(3, false)),
            a,
            "a delivered slot is reused"
        );
        assert_eq!(slots.take(b).completions, 2);
        assert_eq!(slots.take(a).completions, 3);
        assert_eq!(slots.slots.len(), 2);
    }

    #[test]
    fn a_report_with_a_histogram_reuses_a_histogram_slot() {
        let mut slots = ReportSlots::default();
        let with = slots.park(&report(1, true));
        let without = slots.park(&report(2, false));
        let buffer = |slots: &ReportSlots| {
            let hist = slots.slots[with as usize].rt_hist.as_ref();
            hist.map(|h| h.counts().as_ptr())
        };
        let before = buffer(&slots);
        slots.take(with);
        slots.take(without);
        // `without` was freed last, but the histogram goes where one was.
        assert_eq!(slots.park(&report(3, true)), with);
        assert_eq!(buffer(&slots), before, "histogram buffer reused");
        assert_eq!(slots.park(&report(4, false)), without);
        assert_eq!(slots.take(with).completions, 3);
        assert_eq!(slots.slots.len(), 2);
    }

    #[test]
    fn builder_accepts_extended_ladder_and_runs() {
        let config = SystemConfig::builder()
            .seed(5)
            .goal_ms(8.0)
            .db_pages(400)
            .buffer_pages_per_node(48)
            .goal_rate_per_ms(0.008)
            .warmup_intervals(1)
            .tiers(vec![
                TierSpec::new("dram", 0.03),
                TierSpec::new("cxl", 0.25)
                    .frames(48)
                    .bandwidth(2_000_000_000),
                TierSpec::new("remote", 0.5),
                TierSpec::new("disk", 12.6),
            ])
            .build()
            .expect("extended ladder config");
        assert!(config.cluster.tiers.is_extended());
        assert_eq!(config.cluster.local_frames_per_node(), 96);
        let mut sim = Simulation::new(config);
        sim.run_intervals(4);
        assert!(sim.plane().completions() > 0);
        let occ = sim.plane().tier_occupancy();
        assert_eq!(occ.len(), 2);
        assert_eq!(occ[0].0, "dram");
        assert_eq!(occ[1].0, "cxl");
        sim.plane().check_invariants();
    }

    #[test]
    fn intervals_advance_and_record() {
        let mut sim = Simulation::new(small_config(1));
        sim.run_intervals(5);
        assert_eq!(sim.intervals(), 5);
        let recs = sim.records(ClassId(1));
        assert_eq!(recs.len(), 5, "one check per interval");
        // Operations actually flowed.
        assert!(sim.plane().completions() > 50);
        assert!(recs.iter().any(|r| r.observed_ms.is_some()));
        assert!(sim.records(dmm_buffer::NO_GOAL).is_empty());
    }

    #[test]
    fn same_seed_is_bit_reproducible() {
        let run = |seed| {
            let mut sim = Simulation::new(small_config(seed));
            sim.run_intervals(6);
            (
                sim.plane().completions(),
                sim.plane().network().data_bytes(),
                sim.records(ClassId(1)).to_vec(),
            )
        };
        let (c1, b1, r1) = run(42);
        let (c2, b2, r2) = run(42);
        assert_eq!(c1, c2);
        assert_eq!(b1, b2);
        assert_eq!(r1.len(), r2.len());
        for (a, b) in r1.iter().zip(&r2) {
            assert_eq!(a, b);
        }
        let (c3, _, _) = run(43);
        assert_ne!(c1, c3, "different seed, different trace");
    }

    #[test]
    fn violated_goal_grows_dedicated_memory() {
        let mut cfg = small_config(7);
        // Very tight goal: the controller must dedicate memory.
        cfg.workload.classes[1].goal_ms = Some(2.0);
        let mut sim = Simulation::new(cfg);
        sim.run_intervals(12);
        let dedicated = sim.plane().total_dedicated_bytes(ClassId(1));
        assert!(
            dedicated > 0,
            "controller should have dedicated memory: {dedicated}"
        );
    }

    #[test]
    fn no_controller_never_dedicates() {
        let mut cfg = small_config(7);
        cfg.controller = ControllerKind::None;
        cfg.workload.classes[1].goal_ms = Some(1.0); // hopeless goal
        let mut sim = Simulation::new(cfg);
        sim.run_intervals(8);
        assert_eq!(sim.plane().total_dedicated_bytes(ClassId(1)), 0);
    }

    #[test]
    fn static_controller_dedicates_up_front() {
        let mut cfg = small_config(7);
        cfg.controller = ControllerKind::Static { fraction: 0.25 };
        let sim = Simulation::new(cfg);
        let expect = (0.25 * 96.0) as u64 * 3 * PAGE_BYTES;
        assert_eq!(sim.plane().total_dedicated_bytes(ClassId(1)), expect);
    }

    #[test]
    fn control_traffic_is_tiny() {
        let mut sim = Simulation::new(small_config(3));
        sim.run_intervals(10);
        let net = sim.plane().network();
        assert!(net.control_bytes() > 0, "reports flowed");
        assert!(
            net.control_fraction() < 0.01,
            "control fraction {}",
            net.control_fraction()
        );
    }

    #[test]
    fn goal_schedule_changes_goals() {
        let mut cfg = small_config(5);
        cfg.goal_range = Some(GoalRange::new(4.0, 40.0));
        // Upper-bound reading: any response time below the loose goal counts
        // as satisfied, so the schedule fires quickly.
        cfg.satisfaction = SatisfactionMode::UpperBound;
        cfg.workload.classes[1].goal_ms = Some(30.0);
        let mut sim = Simulation::new(cfg);
        sim.run_intervals(40);
        // At least one goal change should have happened over 40 intervals.
        let recs = sim.records(ClassId(1));
        let goals: std::collections::HashSet<u64> =
            recs.iter().map(|r| r.goal_ms.to_bits()).collect();
        assert!(goals.len() > 1, "goal never changed");
    }
}
