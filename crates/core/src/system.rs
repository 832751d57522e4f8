//! The full simulated system: workload → data plane → agents → coordinators
//! → allocations, closed through the simulated network.
//!
//! This is the "detailed simulation prototype" of the paper's §7: the
//! feedback-controlled loop of §5 runs *inside* the discrete-event
//! simulation — agent reports, new allocations and grant confirmations are
//! control messages that traverse the shared LAN (and are accounted as
//! control traffic for the §7.5 overhead experiment), and every check phase
//! happens at a coordinator placed on a real node.

use dmm_buffer::{ClassId, TierPolicy};
use dmm_cluster::{
    ClusterEvent, ClusterParams, CostSlot, DataPlane, FabricSpec, FaultKind, FaultPlan, NodeId,
    PlacementSpec, TierLadder, TierSpec,
};
use dmm_obs::{Json, MetricsSnapshot, NoopSink, SpanMode, Stage, TraceSink};
use dmm_sim::{Engine, ExecMode, Handler, Scheduler, SimDuration, SimParams, SimTime};
use dmm_workload::{GoalRange, GoalSchedule, WorkloadGenerator, WorkloadSpec};

use crate::agent::{AgentObservation, LocalAgent};
use crate::approx::Planes;
use crate::baselines::{ClassFencingState, ControllerKind, FragmentFencingState};
use crate::coordinator::{Coordinator, SatisfactionMode, Strategy, PAGES_PER_MB};
use crate::error::Error;
use crate::measure::MeasureStore;
use crate::metrics::{ConvergenceStats, IntervalRecord};
use crate::probe::ProbeSpec;

/// Observation-interval length a built configuration starts with (§7.1).
/// A replayed trace restores its recorded interval into
/// [`SystemConfig::interval`] directly.
const INTERVAL_MS: u64 = 5_000;
/// Agent significance threshold for reporting (fractional RT change).
const AGENT_SIGNIFICANCE: f64 = 0.05;
/// Size of an agent report message in bytes.
const REPORT_BYTES: u64 = 64;
/// Size of an allocation, grant or coordinator-migration message in bytes.
const ALLOC_MSG_BYTES: u64 = 64;

/// Full experiment configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Cluster hardware/protocol parameters. `goal_classes` is overridden
    /// from the workload.
    pub cluster: ClusterParams,
    /// The multiclass workload.
    pub workload: WorkloadSpec,
    /// Master seed; every stochastic stream derives from it.
    pub seed: u64,
    /// Observation interval (§7.1: 5000 ms).
    pub interval: SimDuration,
    /// Intervals to run before statistics collection starts (cache warm-up).
    pub warmup_intervals: u32,
    /// Which controller manages the goal classes.
    pub controller: ControllerKind,
    /// When set, every goal class re-randomizes its goal per the §7.1
    /// protocol within this range.
    pub goal_range: Option<GoalRange>,
    /// How goal satisfaction is judged (the paper's experiments use the
    /// two-sided band; production SLAs read the goal as an upper bound).
    pub satisfaction: SatisfactionMode,
    /// Minimum total dedicated MB each goal class keeps (and receives at
    /// start-up): keeps the class on the controllable, dedicated branch of
    /// the response-time curve. 0 disables (the §7.4 sharing experiment
    /// needs pools to vanish entirely).
    pub release_floor_mb: f64,
    /// Deterministic fault-injection plan (crashes, restarts, message
    /// drops, disk stalls). `None` runs an immortal cluster.
    pub fault_plan: Option<FaultPlan>,
    /// Warm-up probing scheme of the hyperplane coordinators (default:
    /// the paper's sequential one-node-per-step probes).
    pub probe: ProbeSpec,
    // Fieldless: kept only because `benchmark/src/shadow.rs` (frozen) reads
    // `config.sim`; remove with that call site.
    #[doc(hidden)]
    pub sim: SimParams,
}

impl SystemConfig {
    /// Starts fluent construction of a configuration. Defaults match the
    /// paper's §7.2 base experiment: 3 nodes, 2 MB cache each, 2000 pages,
    /// one goal class + no-goal, 4 pages/op, uniform access, 5000 ms
    /// observation intervals.
    ///
    /// ```
    /// use dmm_core::system::SystemConfig;
    ///
    /// let config = SystemConfig::builder()
    ///     .seed(42)
    ///     .theta(0.5)
    ///     .goal_ms(15.0)
    ///     .build()
    ///     .expect("valid configuration");
    /// assert_eq!(config.seed, 42);
    /// ```
    pub fn builder() -> SystemConfigBuilder {
        let cluster = ClusterParams::default();
        SystemConfigBuilder {
            seed: 0,
            theta: 0.0,
            goal_ms: 10.0,
            nodes: cluster.nodes,
            db_pages: cluster.db_pages,
            buffer_pages_per_node: cluster.buffer_pages_per_node,
            goal_rate_per_ms: 0.006,
            goal_quantile: None,
            warmup_intervals: 4,
            controller: ControllerKind::default(),
            goal_range: None,
            satisfaction: SatisfactionMode::default(),
            release_floor_mb: 0.5,
            spans: cluster.spans,
            placement: cluster.placement,
            fault_plan: None,
            net_bits_per_sec: None,
            fabric: FabricSpec::default(),
            probe: ProbeSpec::default(),
            tiers: None,
            tier_policy: TierPolicy::default(),
            sim: SimParams::default(),
        }
    }

    /// Node-local memory size in MB, summed over the memory tiers of the
    /// storage ladder (equals the buffer size for the default ladder).
    pub fn node_size_mb(&self) -> f64 {
        self.cluster.local_frames_per_node() as f64 / PAGES_PER_MB
    }
}

/// Fluent, validating construction of a [`SystemConfig`].
///
/// Obtained from [`SystemConfig::builder`]; every setter consumes and
/// returns the builder, and [`SystemConfigBuilder::build`] validates the
/// combination (returning [`Error::InvalidConfig`] / [`Error::InvalidGoal`]
/// instead of panicking deep inside the simulator). Fields not covered by a
/// setter keep their paper defaults; the built [`SystemConfig`]'s fields
/// remain public for fine-grained post-hoc adjustment.
#[derive(Debug, Clone)]
pub struct SystemConfigBuilder {
    seed: u64,
    theta: f64,
    goal_ms: f64,
    nodes: usize,
    db_pages: u32,
    buffer_pages_per_node: usize,
    goal_rate_per_ms: f64,
    goal_quantile: Option<f64>,
    warmup_intervals: u32,
    controller: ControllerKind,
    goal_range: Option<GoalRange>,
    satisfaction: SatisfactionMode,
    release_floor_mb: f64,
    spans: SpanMode,
    placement: PlacementSpec,
    fault_plan: Option<FaultPlan>,
    net_bits_per_sec: Option<u64>,
    fabric: FabricSpec,
    probe: ProbeSpec,
    tiers: Option<Vec<TierSpec>>,
    tier_policy: TierPolicy,
    sim: SimParams,
}

impl SystemConfigBuilder {
    /// Master seed; every stochastic stream derives from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Zipf skew of page accesses (0 = uniform).
    pub fn theta(mut self, theta: f64) -> Self {
        self.theta = theta;
        self
    }

    /// Initial response-time goal of the goal class (ms).
    pub fn goal_ms(mut self, goal_ms: f64) -> Self {
        self.goal_ms = goal_ms;
        self
    }

    /// Number of cluster nodes.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Database size in pages.
    pub fn db_pages(mut self, pages: u32) -> Self {
        self.db_pages = pages;
        self
    }

    /// Buffer frames per node.
    pub fn buffer_pages_per_node(mut self, pages: usize) -> Self {
        self.buffer_pages_per_node = pages;
        self
    }

    /// Goal-class arrival rate per node (ops/ms; the no-goal class runs 3×).
    pub fn goal_rate_per_ms(mut self, rate: f64) -> Self {
        self.goal_rate_per_ms = rate;
        self
    }

    /// Bandwidth of the shared LAN medium in bits per second (§7.1 default:
    /// 100 Mbit/s). Scale-out experiments need this dial: with a shared
    /// medium, total network traffic grows with the node count while the
    /// medium's capacity does not, so the 1999-era fabric saturates long
    /// before N = 64. Per-message latency is unaffected.
    pub fn net_bits_per_sec(mut self, bits_per_sec: u64) -> Self {
        self.net_bits_per_sec = Some(bits_per_sec);
        self
    }

    /// Network fabric topology (default: the paper's shared medium).
    /// [`FabricSpec::Switched`] gives every node dedicated full-duplex
    /// TX/RX links at [`net_bits_per_sec`](Self::net_bits_per_sec) each —
    /// aggregate capacity then scales with the node count, which is what
    /// lets a 100 Mbit/s-class fabric hold per-node-constant load at
    /// N = 64 where the shared medium saturates.
    pub fn fabric(mut self, fabric: FabricSpec) -> Self {
        self.fabric = fabric;
        self
    }

    /// Warm-up probing scheme of the hyperplane coordinators (default:
    /// the paper's sequential probes). [`ProbeSpec::Batched`] perturbs a
    /// sign-orthogonal batch of nodes per probe so no acted-on check is
    /// wasted on a rank-redundant partitioning.
    pub fn probe(mut self, probe: ProbeSpec) -> Self {
        self.probe = probe;
        self
    }

    /// Makes the goal class's goal a *quantile* target: `goal_ms` then
    /// bounds the per-interval `q`-quantile of response time (e.g.
    /// `q = 0.95` for a p95 goal) instead of the mean. Quantile goals get
    /// wider tolerance bands and their own trace fields; mean-goal runs are
    /// byte-identical whether or not this code path exists.
    pub fn goal_quantile(mut self, q: f64) -> Self {
        self.goal_quantile = Some(q);
        self
    }

    /// Warm-up intervals before statistics collection starts.
    pub fn warmup_intervals(mut self, n: u32) -> Self {
        self.warmup_intervals = n;
        self
    }

    /// Controller managing the goal classes.
    pub fn controller(mut self, controller: ControllerKind) -> Self {
        self.controller = controller;
        self
    }

    /// Enables §7.1 goal re-randomization within `range`.
    pub fn goal_range(mut self, range: GoalRange) -> Self {
        self.goal_range = Some(range);
        self
    }

    /// How goal satisfaction is judged.
    pub fn satisfaction(mut self, mode: SatisfactionMode) -> Self {
        self.satisfaction = mode;
        self
    }

    /// Minimum total dedicated MB per goal class (0 disables).
    pub fn release_floor_mb(mut self, mb: f64) -> Self {
        self.release_floor_mb = mb;
        self
    }

    /// Operation-level span tracing mode (default: [`SpanMode::Off`]).
    /// [`SpanMode::Histograms`] aggregates per-class × per-stage response
    /// time histograms into the metrics snapshot;
    /// [`SpanMode::Sampled`] additionally emits a `span` trace record for a
    /// deterministic 1-in-N sample of operations.
    pub fn spans(mut self, mode: SpanMode) -> Self {
        self.spans = mode;
        self
    }

    /// Page-to-home placement scheme (default: static round-robin). The
    /// static schemes exist for differential testing;
    /// [`PlacementSpec::HotRing`] spreads hot pages across several homes.
    pub fn placement(mut self, placement: PlacementSpec) -> Self {
        self.placement = placement;
        self
    }

    /// Installs a deterministic fault-injection plan.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Replaces the storage hierarchy with a custom ladder of [`TierSpec`]s:
    /// one or more local memory tiers (fastest first, tier 0 may inherit
    /// the node buffer size), then the remote-memory rung, then the disk
    /// rung. [`SystemConfigBuilder::build`] validates the ladder (monotone
    /// latencies, pinned intermediate capacities, at most
    /// [`dmm_cluster::MAX_TIERS`] rungs) and returns [`Error::InvalidTier`]
    /// otherwise. The default three-rung ladder reproduces the paper's
    /// fixed local/remote/disk cost model byte-identically.
    pub fn tiers(mut self, tiers: Vec<TierSpec>) -> Self {
        self.tiers = Some(tiers);
        self
    }

    /// Placement policy across the local memory tiers of an extended
    /// ladder (default: hotness-based promotion/demotion). Irrelevant for
    /// the default ladder.
    pub fn tier_policy(mut self, policy: TierPolicy) -> Self {
        self.tier_policy = policy;
        self
    }

    // Inert: kept only because `benchmark/src/workloads.rs` (frozen) calls
    // `.execution(ExecMode::Sequential)`; remove with that call site.
    #[doc(hidden)]
    pub fn execution(self, _exec: ExecMode) -> Self {
        self
    }

    /// Validates and constructs the configuration.
    pub fn build(self) -> Result<SystemConfig, Error> {
        if self.nodes == 0 {
            return Err(Error::InvalidConfig("the cluster needs at least one node"));
        }
        if self.nodes > u16::MAX as usize {
            // NodeId is a u16; more nodes would silently truncate.
            return Err(Error::InvalidConfig("node count exceeds u16::MAX"));
        }
        if self.db_pages == 0 {
            return Err(Error::InvalidConfig("the database needs at least one page"));
        }
        if self.buffer_pages_per_node == 0 {
            return Err(Error::InvalidConfig("node buffers need at least one frame"));
        }
        if !(self.goal_ms > 0.0 && self.goal_ms.is_finite()) {
            return Err(Error::InvalidGoal(self.goal_ms));
        }
        if !(self.theta >= 0.0 && self.theta.is_finite()) {
            return Err(Error::InvalidConfig("skew theta must be finite and ≥ 0"));
        }
        if !(self.goal_rate_per_ms > 0.0 && self.goal_rate_per_ms.is_finite()) {
            return Err(Error::InvalidConfig("arrival rate must be positive"));
        }
        if let Some(q) = self.goal_quantile {
            if !(q.is_finite() && q > 0.0 && q < 1.0) {
                return Err(Error::InvalidConfig(
                    "goal quantile must lie strictly inside (0, 1)",
                ));
            }
        }
        if !(self.release_floor_mb >= 0.0 && self.release_floor_mb.is_finite()) {
            return Err(Error::InvalidConfig("release floor must be finite and ≥ 0"));
        }
        if self.spans.sample_every() == Some(0) {
            return Err(Error::InvalidConfig(
                "the span sampling divisor must be at least 1",
            ));
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate(self.nodes).map_err(Error::InvalidConfig)?;
        }
        let mut cluster = ClusterParams {
            nodes: self.nodes,
            db_pages: self.db_pages,
            buffer_pages_per_node: self.buffer_pages_per_node,
            spans: self.spans,
            placement: self.placement,
            tier_policy: self.tier_policy,
            ..ClusterParams::default()
        };
        if let Some(tiers) = self.tiers {
            cluster.tiers = TierLadder::new(tiers).map_err(Error::InvalidTier)?;
        }
        if let Some(bps) = self.net_bits_per_sec {
            if bps == 0 {
                return Err(Error::InvalidConfig("network bandwidth must be positive"));
            }
            cluster.net.bits_per_sec = bps;
        }
        if let FabricSpec::Switched {
            bisection_bits_per_sec: Some(0),
        } = self.fabric
        {
            return Err(Error::InvalidConfig(
                "bisection bandwidth must be positive (omit it for an ideal switch core)",
            ));
        }
        cluster.net.fabric = self.fabric;
        if !self.probe.is_valid() {
            return Err(Error::InvalidConfig(
                "probe batch size must be a power of two ≥ 2",
            ));
        }
        let mut workload = WorkloadSpec::base_two_class(
            self.nodes,
            self.db_pages,
            self.theta,
            self.goal_rate_per_ms,
            self.goal_ms,
        );
        if let Some(q) = self.goal_quantile {
            workload.classes[1].goal_metric = dmm_workload::GoalMetric::Quantile { q };
        }
        Ok(SystemConfig {
            cluster,
            workload,
            seed: self.seed,
            interval: SimDuration::from_millis(INTERVAL_MS),
            warmup_intervals: self.warmup_intervals,
            controller: self.controller,
            goal_range: self.goal_range,
            satisfaction: self.satisfaction,
            release_floor_mb: self.release_floor_mb,
            fault_plan: self.fault_plan,
            probe: self.probe,
            sim: self.sim,
        })
    }
}

/// Events of the closed-loop system.
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
        obs: AgentObservation,
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
        requested: usize,
        granted: usize,
        avail: usize,
    },
    Fault {
        kind: FaultKind,
    },
}

/// Delay between the interval boundary and the coordinator check, giving
/// agent reports time to cross the LAN.
const CHECK_DELAY: SimDuration = SimDuration::from_millis(50);

struct SimState {
    plane: DataPlane,
    gen: WorkloadGenerator,
    /// `agents[class][node]`.
    agents: Vec<Vec<LocalAgent>>,
    /// `coordinators[class]`; `None` for the no-goal class.
    coordinators: Vec<Option<Coordinator>>,
    /// The classes that have a coordinator, ascending; fixed for the run.
    goal_ids: Vec<ClassId>,
    schedules: Vec<Option<GoalSchedule>>,
    convergence: Vec<ConvergenceStats>,
    records: Vec<Vec<IntervalRecord>>,
    coord_home: Vec<NodeId>,
    interval_idx: u32,
    interval: SimDuration,
    warmup_intervals: u32,
    /// Structured trace receiver (§5 phases). NoopSink by default.
    sink: Box<dyn TraceSink>,
    /// Per-slot access-cost observation counts at the previous interval
    /// boundary, for per-interval level shares (one entry per storage slot
    /// of the configured tier ladder).
    last_level_obs: Vec<u64>,
    /// Fraction of last interval's observed accesses served per slot.
    level_share: Vec<f64>,
    /// Stable slot names of the ladder (`local_hit`, …), for trace fields.
    slot_names: Vec<String>,
    /// The run's replay closure, emitted as the leading `run_config`
    /// record whenever an enabled sink is attached.
    run_config: Json,
}

impl SimState {
    fn coord_mut(&mut self, class: ClassId) -> &mut Coordinator {
        self.coordinators[class.index()]
            .as_mut()
            .expect("goal class has a coordinator")
    }

    fn schedule_plane(
        out: dmm_cluster::StepOutput,
        agents: &mut [Vec<LocalAgent>],
        sink: &mut dyn TraceSink,
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
            if sink.enabled() {
                if let Some(stages) = c.span {
                    let mut nested = Json::obj();
                    for stage in Stage::ALL {
                        nested =
                            nested.field(&format!("{}_ns", stage.name()), stages[stage.index()]);
                    }
                    let record = Json::obj()
                        .field("type", "span")
                        .field("t_ms", c.finished.as_millis_f64())
                        .field("op", c.id.0)
                        .field("class", c.class.index() as u64)
                        .field("origin", c.origin.index() as u64)
                        .field("response_ms", c.response_ms())
                        .field("stages", nested);
                    sink.emit(&record);
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
        if self.sink.enabled() {
            let load = self.plane.home_load();
            let rec = Json::obj()
                .field("type", "home_load")
                .field("interval", self.interval_idx.saturating_sub(1) as u64)
                .field("t_ms", now.as_millis_f64())
                .field("home_pages", Json::from(load.home_pages.as_slice()))
                .field("home_reads", Json::from(load.home_reads.as_slice()))
                .field("remote_fanin", Json::from(load.remote_fanin.as_slice()));
            self.sink.emit(&rec);
        }
        // Per-link network-load snapshot, only under a switched fabric: the
        // cumulative TX/RX busy fraction of every node's links (and of the
        // switch core, when its bisection capacity is finite). Shared-medium
        // traces carry no such record and stay byte-identical.
        if self.sink.enabled() {
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
                let rec = Json::obj()
                    .field("type", "net_load")
                    .field("interval", self.interval_idx.saturating_sub(1) as u64)
                    .field("t_ms", now.as_millis_f64())
                    .field("tx_busy", Json::from(tx.as_slice()))
                    .field("rx_busy", Json::from(rx.as_slice()))
                    .field("bisection_busy", net.bisection_utilization(now));
                self.sink.emit(&rec);
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
                let (obs, significant) = agent.end_interval(now, interval_ms, granted, avail, pool);
                // A crashed node's agent is volatile state: its window is
                // flushed (so pre-crash partials don't leak into the first
                // post-restart report) but nothing crosses the LAN.
                if !significant || !self.plane.is_up(node) {
                    continue;
                }
                // Goal-class reports go to their coordinator; no-goal
                // reports fan out to every goal coordinator (§5(a)).
                let targets = if class.is_no_goal() {
                    self.goal_ids.as_slice()
                } else {
                    std::slice::from_ref(&class)
                };
                let Some((&last, rest)) = targets.split_last() else {
                    continue;
                };
                let mut report = |to: ClassId, obs: AgentObservation| {
                    let home = self.coord_home[to.index()];
                    let delivered = self.plane.send_control(node, home, REPORT_BYTES, now);
                    sched.at(delivered, SysEvent::Report { to, obs });
                };
                for &to in rest {
                    report(to, obs.clone());
                }
                report(last, obs);
            }
        }
        for &class in &self.goal_ids {
            sched.after(CHECK_DELAY, SysEvent::CoordCheck { class });
        }

        if self.interval_idx == self.warmup_intervals {
            // Statistics window starts now: drop warm-up counters.
            self.plane.reset_stats();
            for class_agents in &mut self.agents {
                for agent in class_agents {
                    agent.reset_pool_baseline();
                }
            }
        }
    }

    fn coord_check(&mut self, class: ClassId, now: SimTime, sched: &mut Scheduler<SysEvent>) {
        let measuring = self.interval_idx > self.warmup_intervals;
        let home = self.coord_home[class.index()];
        let outcome = self.coord_mut(class).check(now);

        let metric = self.coordinators[class.index()]
            .as_ref()
            .expect("goal class")
            .goal_metric();
        let record = IntervalRecord {
            interval: self.interval_idx.saturating_sub(1),
            observed_ms: outcome.observed_class_ms,
            observed_p_ms: outcome.observed_quantile_ms,
            goal_ms: self.coordinators[class.index()]
                .as_ref()
                .expect("goal class")
                .goal_ms(),
            nogoal_ms: outcome.observed_nogoal_ms,
            dedicated_bytes: self.plane.total_dedicated_bytes(class),
            satisfied: outcome.satisfied,
        };
        self.records[class.index()].push(record);

        if self.sink.enabled() {
            let phase = if outcome.settling {
                "settling"
            } else if outcome.new_alloc_mb.is_some() {
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
            let mut levels = Json::obj();
            for (name, share) in self.slot_names.iter().zip(&self.level_share) {
                levels = levels.field(name, *share);
            }
            let mut rec = Json::obj()
                .field("type", "interval")
                .field("interval", record.interval as u64)
                .field("t_ms", now.as_millis_f64())
                .field("class", class.index() as u64)
                .field("observed_ms", record.observed_ms)
                .field("goal_ms", record.goal_ms)
                .field("nogoal_ms", record.nogoal_ms)
                .field("tolerance_ms", outcome.tolerance_ms)
                .field("satisfied", outcome.satisfied)
                .field("settling", outcome.settling)
                .field("store_cleared", outcome.store_cleared)
                .field("phase", phase)
                .field(
                    "dedicated_mb",
                    record.dedicated_bytes as f64 / (1024.0 * 1024.0),
                )
                .field("level_share", levels)
                .field("class_hit_rate", class_pool.hit_rate())
                .field("nogoal_hit_rate", nogoal_pool.hit_rate())
                .field("residual_ms", outcome.prediction_residual_ms);
            // Quantile goals append their fields *after* the base layout,
            // so mean-goal traces stay byte-identical (the quantile path is
            // purely additive).
            if metric.is_quantile() {
                rec = rec
                    .field("observed_p_ms", outcome.observed_quantile_ms)
                    .field("goal_metric", metric.label().as_str());
            }
            // Extended ladders append per-tier occupancy *after* every other
            // extension, so default-ladder traces stay byte-identical.
            if self.plane.params().tiers.is_extended() {
                let mut tiers = Json::obj();
                for (name, resident, frames) in self.plane.tier_occupancy() {
                    tiers = tiers.field(
                        &name,
                        Json::obj()
                            .field("resident", resident)
                            .field("frames", frames),
                    );
                }
                rec = rec.field("tier_occupancy", tiers);
            }
            self.sink.emit(&rec);

            if let Some(trace) = &outcome.optimize {
                let current: Vec<f64> = self.coordinators[class.index()]
                    .as_ref()
                    .expect("goal class")
                    .granted_mb()
                    .to_vec();
                let requested = outcome
                    .new_alloc_mb
                    .clone()
                    .unwrap_or_else(|| current.clone());
                let delta: f64 = requested.iter().sum::<f64>() - current.iter().sum::<f64>();
                let mut rec = Json::obj()
                    .field("type", "optimize")
                    .field("interval", record.interval as u64)
                    .field("class", class.index() as u64)
                    .field("path", trace.path)
                    .field("points", trace.points as u64)
                    .field(
                        "plane_w",
                        match &trace.plane_w {
                            Some(w) => Json::from(w.as_slice()),
                            None => Json::Null,
                        },
                    )
                    .field("plane_c", trace.plane_c)
                    .field("goal_attainable", trace.goal_attainable)
                    .field("predicted_class_ms", trace.predicted_class_ms)
                    .field(
                        "fit_residuals_ms",
                        match &trace.fit_residuals_ms {
                            Some(r) => Json::from(r.as_slice()),
                            None => Json::Null,
                        },
                    )
                    .field("fit_rms_ms", trace.fit_rms_ms)
                    .field("fallback", trace.fallback)
                    .field("current_mb", Json::from(current.as_slice()))
                    .field("requested_mb", Json::from(requested.as_slice()))
                    .field("delta_mb", delta);
                // For quantile goals the fitted surface runs through
                // observed quantiles; label the record so analyzers know
                // what `predicted_class_ms` predicts.
                if metric.is_quantile() {
                    rec = rec.field("goal_metric", metric.label().as_str());
                }
                self.sink.emit(&rec);
            }
        }

        if let Some(satisfied) = outcome.satisfied {
            if measuring {
                self.convergence[class.index()].on_check(satisfied, outcome.new_alloc_mb.is_some());
            }
            if let Some(schedule) = &mut self.schedules[class.index()] {
                if let Some(new_goal) = schedule.observe_interval(satisfied) {
                    let old_goal = self.coord_mut(class).goal_ms();
                    self.coord_mut(class).set_goal(new_goal);
                    if measuring {
                        self.convergence[class.index()].on_goal_change();
                    }
                    if self.sink.enabled() {
                        let mut rec = Json::obj()
                            .field("type", "goal_change")
                            .field("interval", self.interval_idx.saturating_sub(1) as u64)
                            .field("t_ms", now.as_millis_f64())
                            .field("class", class.index() as u64)
                            .field("old_goal_ms", old_goal)
                            .field("new_goal_ms", new_goal);
                        if metric.is_quantile() {
                            rec = rec.field("goal_metric", metric.label().as_str());
                        }
                        self.sink.emit(&rec);
                    }
                }
            }
        }

        if let Some(alloc_mb) = outcome.new_alloc_mb {
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
        self.coord_home[class.index()] = to;
        self.coord_mut(class).migrate(to);
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
                for i in 0..self.goal_ids.len() {
                    let class = self.goal_ids[i];
                    if self.coord_home[class.index()] == node {
                        // Failover: the coordinator's volatile state is
                        // modeled as replicated, so the lowest-indexed
                        // survivor takes over and announces itself.
                        let new_home = (0..self.plane.num_nodes())
                            .map(|i| NodeId(i as u16))
                            .find(|&n| self.plane.is_up(n))
                            .expect("fault plans never crash the whole cluster");
                        self.migrate_coordinator_from(class, new_home, new_home, now);
                        if self.sink.enabled() {
                            let rec = Json::obj()
                                .field("type", "failover")
                                .field("t_ms", now.as_millis_f64())
                                .field("class", class.index() as u64)
                                .field("from", node.index() as u64)
                                .field("to", new_home.index() as u64);
                            self.sink.emit(&rec);
                        }
                    }
                    self.coord_mut(class).node_down(node);
                    if measuring {
                        // Re-convergence after the crash is a fresh episode.
                        self.convergence[class.index()].on_goal_change();
                    }
                }
                self.emit_fault_record("crash", node, now);
            }
            FaultKind::Restart(node) => {
                if self.plane.is_up(node) {
                    return; // already up
                }
                self.plane.restart_node(node);
                for i in 0..self.goal_ids.len() {
                    let class = self.goal_ids[i];
                    self.coord_mut(class).node_up(node);
                }
                self.emit_fault_record("restart", node, now);
            }
        }
    }

    fn emit_fault_record(&mut self, kind: &str, node: NodeId, now: SimTime) {
        if !self.sink.enabled() {
            return;
        }
        let stats = self.plane.fault_stats();
        let rec = Json::obj()
            .field("type", "fault")
            .field("t_ms", now.as_millis_f64())
            .field("kind", kind)
            .field("node", node.index() as u64)
            .field("live_nodes", self.plane.live_nodes() as u64)
            .field("last_copy_losses", stats.last_copy_losses)
            .field("ops_aborted", stats.ops_aborted);
        self.sink.emit(&rec);
    }
}

impl Handler<SysEvent> for SimState {
    fn handle(&mut self, now: SimTime, event: SysEvent, sched: &mut Scheduler<SysEvent>) {
        match event {
            SysEvent::Data(e) => {
                let out = self.plane.handle(now, e);
                Self::schedule_plane(out, &mut self.agents, &mut *self.sink, sched);
            }
            SysEvent::Arrival { node, class } => {
                // Work arriving at a crashed node is lost (clients fail,
                // they don't queue); the stream keeps ticking so the node
                // resumes service immediately on restart.
                if self.plane.is_up(node) {
                    self.agents[class.index()][node.index()].on_arrival();
                    let op = self.gen.make_op(node, class, now);
                    let out = self.plane.start_operation(op, now);
                    Self::schedule_plane(out, &mut self.agents, &mut *self.sink, sched);
                }
                let gap = self.gen.next_gap(node, class, now);
                sched.after(gap, SysEvent::Arrival { node, class });
            }
            SysEvent::IntervalEnd => self.end_interval(now, sched),
            SysEvent::Report { to, obs } => self.coord_mut(to).on_report(obs),
            SysEvent::CoordCheck { class } => self.coord_check(class, now, sched),
            SysEvent::Alloc { class, node, pages } => {
                if !self.plane.is_up(node) {
                    return; // the allocation message reached a dead node
                }
                let granted = self.plane.apply_allocation(node, class, pages, now);
                let avail = self.plane.avail_pages(node, class);
                let home = self.coord_home[class.index()];
                let delivered = self.plane.send_control(node, home, ALLOC_MSG_BYTES, now);
                sched.at(
                    delivered,
                    SysEvent::Granted {
                        class,
                        node,
                        requested: pages,
                        granted,
                        avail,
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
                if self.sink.enabled() {
                    let rec = Json::obj()
                        .field("type", "grant")
                        .field("t_ms", now.as_millis_f64())
                        .field("class", class.index() as u64)
                        .field("node", node.index() as u64)
                        .field("requested_pages", requested as u64)
                        .field("granted_pages", granted as u64)
                        .field("avail_pages", avail as u64);
                    self.sink.emit(&rec);
                }
                self.coord_mut(class).on_granted(node, granted, avail);
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
    /// clock.
    pub fn new(config: SystemConfig) -> Self {
        let mut cluster = config.cluster.clone();
        let goal_classes = config.workload.classes.len() - 1;
        cluster.goal_classes = goal_classes;
        config.workload.validate(cluster.nodes, cluster.db_pages);
        assert_eq!(
            config.workload.goal_classes(),
            goal_classes,
            "classes 1..=K must all be goal classes"
        );

        let mut plane = DataPlane::new(cluster.clone());
        if let Some(plan) = &config.fault_plan {
            plan.validate(cluster.nodes)
                .expect("invalid fault plan (SystemConfig::builder() validates this)");
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

        let mut coordinators: Vec<Option<Coordinator>> = vec![None];
        let mut schedules: Vec<Option<GoalSchedule>> = vec![None];
        let mut coord_home = vec![NodeId(0)];
        for spec in &config.workload.classes[1..] {
            let class = spec.class;
            let home = NodeId(((class.index() - 1) % cluster.nodes) as u16);
            coord_home.push(home);
            let goal = spec.goal_ms.expect("goal class");
            let strategy = match config.controller {
                ControllerKind::Hyperplane { objective } => Strategy::Hyperplane {
                    store: MeasureStore::new(cluster.nodes),
                    objective,
                    probe_step: 0,
                },
                ControllerKind::FragmentFencing => Strategy::Fragment(FragmentFencingState::new()),
                ControllerKind::ClassFencing => Strategy::ClassFencing(ClassFencingState::new()),
                ControllerKind::Static { .. } | ControllerKind::None => Strategy::Fixed,
            };
            let mut coordinator =
                Coordinator::new(class, home, cluster.nodes, node_size_mb, goal, strategy);
            coordinator.set_satisfaction_mode(config.satisfaction);
            coordinator.set_release_floor(config.release_floor_mb);
            coordinator.set_goal_metric(spec.goal_metric);
            if let ProbeSpec::Batched { batch } = config.probe {
                coordinator.set_probe_batch(batch);
            }
            coordinators.push(Some(coordinator));
            schedules.push(config.goal_range.map(|range| {
                GoalSchedule::new(range, goal, config.seed ^ (0xC0FFEE + class.index() as u64))
            }));
        }

        // Static baseline: dedicate the fraction up front.
        if let ControllerKind::Static { fraction } = config.controller {
            assert!((0.0..=1.0).contains(&fraction));
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
            goal_ids: (1..coordinators.len()).map(|i| ClassId(i as u16)).collect(),
            coordinators,
            schedules,
            convergence: vec![ConvergenceStats::new(); goal_classes + 1],
            records: vec![Vec::new(); goal_classes + 1],
            coord_home,
            interval_idx: 0,
            interval: config.interval,
            warmup_intervals: config.warmup_intervals,
            sink: Box::new(NoopSink),
            last_level_obs: vec![0; cluster.tiers.num_slots()],
            level_share: vec![0.0; cluster.tiers.num_slots()],
            slot_names: cluster.tiers.slot_names(),
            run_config: crate::replay::run_config_record(&config),
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

    /// Runs until `class`'s convergence statistic meets the §7.1 accuracy
    /// target (99 % CI half-width < 1 iteration, at least `min_episodes`
    /// episodes) or `max_intervals` have elapsed. Returns true on accuracy.
    pub fn run_until_accurate(
        &mut self,
        class: ClassId,
        min_episodes: u64,
        max_intervals: u32,
    ) -> bool {
        while self.state.interval_idx < max_intervals {
            self.run_intervals(10);
            if self.convergence(class).accurate_enough(min_episodes) {
                return true;
            }
        }
        self.convergence(class).accurate_enough(min_episodes)
    }

    /// Intervals completed so far.
    pub fn intervals(&self) -> u32 {
        self.state.interval_idx
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Per-interval records of a goal class (one per check phase).
    pub fn records(&self, class: ClassId) -> &[IntervalRecord] {
        &self.state.records[class.index()]
    }

    /// Convergence statistics of a goal class.
    pub fn convergence(&self, class: ClassId) -> &ConvergenceStats {
        &self.state.convergence[class.index()]
    }

    /// The underlying cluster (network bytes, pool stats, directory…).
    pub fn plane(&self) -> &DataPlane {
        &self.state.plane
    }

    /// The most recent response-time surfaces `class`'s coordinator fitted
    /// (or was warm-started with), if any — the donor for a cross-scale
    /// warm start via [`Simulation::warm_start_class`].
    pub fn fitted_planes(&self, class: ClassId) -> Option<Planes> {
        self.state.coordinators[class.index()]
            .as_ref()
            .and_then(|c| c.fitted_planes().cloned())
    }

    /// Seeds `class`'s coordinator with a full-rank synthetic measure set
    /// derived from `planes` (typically a smaller system's fit stretched by
    /// [`crate::approx::upsample_planes`]), skipping the ~N-interval probe
    /// ramp. Returns [`Error::UnknownClass`]/[`Error::NotAGoalClass`] on a
    /// bad class; the plane width must match the node count.
    pub fn warm_start_class(&mut self, class: ClassId, planes: &Planes) -> Result<(), Error> {
        self.check_goal_class(class)?;
        let now = self.engine.now();
        self.state.coord_mut(class).warm_start(planes, now);
        Ok(())
    }

    /// Replaces the structured-trace receiver (default: [`NoopSink`]).
    /// Swap in a [`dmm_obs::VecSink`] handle or a
    /// [`dmm_obs::JsonLinesSink`] to capture one record per control-loop
    /// phase, allocation grant and goal change. An enabled sink first
    /// receives the run's `run_config` record — the replay closure that
    /// lets `dmm-trace replay` reconstruct and re-run this configuration.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.state.sink = sink;
        if self.state.sink.enabled() {
            let record = self.state.run_config.clone();
            self.state.sink.emit(&record);
        }
    }

    /// Event-queue work counters (pushes, peak depth, cascades, per-level
    /// occupancy) of the underlying engine.
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
        if self.state.sink.write_errors() > 0 {
            snap.counter("obs.sink.errors", self.state.sink.write_errors());
        }
        if self.state.sink.dropped_records() > 0 {
            snap.counter(
                "obs.sink.dropped_records",
                self.state.sink.dropped_records(),
            );
        }
        self.state.plane.fill_metrics(&mut snap, self.engine.now());
        for coord in self.state.coordinators.iter().flatten() {
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
        self.state.coordinators[class.index()]
            .as_ref()
            .expect("goal class")
            .goal_ms()
    }

    /// Validates that `class` exists and has a coordinator.
    fn check_goal_class(&self, class: ClassId) -> Result<(), Error> {
        if class.index() >= self.state.coordinators.len() {
            return Err(Error::UnknownClass(class));
        }
        if self.state.coordinators[class.index()].is_none() {
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
        let old = self.state.coord_home[class.index()];
        if old == node {
            return Ok(());
        }
        let now = self.engine.now();
        self.state.migrate_coordinator_from(class, node, old, now);
        Ok(())
    }

    /// Node currently hosting `class`'s coordinator.
    pub fn coordinator_home(&self, class: ClassId) -> NodeId {
        self.state.coord_home[class.index()]
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
        self.state.coord_mut(class).set_goal(goal_ms);
        if self.state.interval_idx > self.state.warmup_intervals {
            self.state.convergence[class.index()].on_goal_change();
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
        let records = self.records(class);
        let tail = &records[records.len().saturating_sub(n)..];
        let vals: Vec<f64> = tail.iter().filter_map(|r| r.observed_ms).collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Mean of the observed goal-quantile over the last `n` records
    /// (quantile-goal classes only; `None` when no record carries one).
    /// Used by quantile-goal calibration the way
    /// [`Simulation::mean_observed_ms`] serves mean goals.
    pub fn mean_observed_quantile_ms(&self, class: ClassId, n: usize) -> Option<f64> {
        let records = self.records(class);
        let tail = &records[records.len().saturating_sub(n)..];
        let vals: Vec<f64> = tail.iter().filter_map(|r| r.observed_p_ms).collect();
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
    use dmm_cluster::PAGE_BYTES;

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
    fn builder_rejects_bad_inputs() {
        assert_eq!(
            SystemConfig::builder().nodes(0).build().unwrap_err(),
            Error::InvalidConfig("the cluster needs at least one node")
        );
        assert!(matches!(
            SystemConfig::builder().goal_ms(-3.0).build().unwrap_err(),
            Error::InvalidGoal(_)
        ));
        assert!(matches!(
            SystemConfig::builder()
                .goal_rate_per_ms(0.0)
                .build()
                .unwrap_err(),
            Error::InvalidConfig(_)
        ));
        // A zero span sampling divisor is a config error, not "every op".
        assert_eq!(
            SystemConfig::builder()
                .spans(SpanMode::Sampled { every: 0 })
                .build()
                .unwrap_err(),
            Error::InvalidConfig("the span sampling divisor must be at least 1")
        );
        // An invalid fault plan is caught at build time, not inside the sim.
        let plan = FaultPlan::new(1).crash_ms(NodeId(7), 1_000);
        assert!(matches!(
            SystemConfig::builder()
                .fault_plan(plan)
                .build()
                .unwrap_err(),
            Error::InvalidConfig(_)
        ));
        // NodeId is a u16: node counts beyond it are a config error, not a
        // silent truncation (u16::MAX itself is fine).
        assert_eq!(
            SystemConfig::builder()
                .nodes(u16::MAX as usize + 1)
                .build()
                .unwrap_err(),
            Error::InvalidConfig("node count exceeds u16::MAX")
        );
        // Tier ladders are validated by the builder into a typed error.
        assert!(matches!(
            SystemConfig::builder()
                .tiers(vec![
                    TierSpec::new("dram", 0.03),
                    TierSpec::new("disk", 12.6)
                ])
                .build()
                .unwrap_err(),
            Error::InvalidTier(_)
        ));
        // Latencies must rise strictly along the ladder.
        assert!(matches!(
            SystemConfig::builder()
                .tiers(vec![
                    TierSpec::new("dram", 0.5),
                    TierSpec::new("remote", 0.5),
                    TierSpec::new("disk", 12.6),
                ])
                .build()
                .unwrap_err(),
            Error::InvalidTier(_)
        ));
        // Intermediate memory tiers need a nonzero pinned capacity.
        assert!(matches!(
            SystemConfig::builder()
                .tiers(vec![
                    TierSpec::new("dram", 0.03),
                    TierSpec::new("cxl", 0.25).frames(0),
                    TierSpec::new("remote", 0.5),
                    TierSpec::new("disk", 12.6),
                ])
                .build()
                .unwrap_err(),
            Error::InvalidTier(_)
        ));
        // A switched fabric with an explicit zero-capacity core is a config
        // error; `None` (ideal core) and positive capacities are fine.
        assert_eq!(
            SystemConfig::builder()
                .fabric(FabricSpec::Switched {
                    bisection_bits_per_sec: Some(0),
                })
                .build()
                .unwrap_err(),
            Error::InvalidConfig(
                "bisection bandwidth must be positive (omit it for an ideal switch core)"
            )
        );
        assert!(SystemConfig::builder()
            .fabric(FabricSpec::Switched {
                bisection_bits_per_sec: None,
            })
            .build()
            .is_ok());
        // Probe batches must be Sylvester Hadamard sizes.
        for bad in [0, 1, 6] {
            assert_eq!(
                SystemConfig::builder()
                    .probe(ProbeSpec::Batched { batch: bad })
                    .build()
                    .unwrap_err(),
                Error::InvalidConfig("probe batch size must be a power of two ≥ 2")
            );
        }
        assert!(SystemConfig::builder()
            .probe(ProbeSpec::Batched { batch: 4 })
            .build()
            .is_ok());
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
    fn placement_flows_into_cluster_params() {
        let spec = PlacementSpec::HotRing(dmm_cluster::HotRingSpec::default());
        let config = SystemConfig::builder()
            .placement(spec)
            .build()
            .expect("valid config");
        assert_eq!(config.cluster.placement, spec);
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
