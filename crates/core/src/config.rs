//! The run's configuration, its fluent builder, and the one check of it.
//!
//! [`SystemConfig::validate`] decides whether a configuration is a valid
//! run of the §7.1 system. [`SystemConfigBuilder::build`],
//! [`crate::Simulation::new`] and the replay decoder
//! ([`crate::config_from_record`]) all call it, so a configuration edited
//! field by field after `build` is judged by the same rules as a built one.

use dmm_buffer::{PolicySpec, TierPolicy};
use dmm_cluster::{
    ClusterParams, FabricSpec, FaultPlan, PlacementSpec, TierLadder, TierSpec, MAX_RING_REPLICAS,
};
use dmm_obs::SpanMode;
use dmm_sim::{ExecMode, SimDuration, SimParams};
use dmm_workload::{GoalMetric, GoalRange, WorkloadSpec};

use crate::baselines::ControllerKind;
use crate::coordinator::{SatisfactionMode, PAGES_PER_MB};
use crate::error::Error;
use crate::probe::ProbeSpec;

/// Observation-interval length a built configuration starts with (§7.1).
/// A replayed trace restores its recorded interval into
/// [`SystemConfig::interval`] directly.
const INTERVAL_MS: u64 = 5_000;

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
    /// use dmm_core::SystemConfig;
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
        SystemConfigBuilder {
            config: SystemConfig {
                cluster: ClusterParams::default(),
                workload: WorkloadSpec {
                    classes: Vec::new(),
                },
                seed: 0,
                interval: SimDuration::from_millis(INTERVAL_MS),
                warmup_intervals: 4,
                controller: ControllerKind::default(),
                goal_range: None,
                satisfaction: SatisfactionMode::default(),
                release_floor_mb: 0.5,
                fault_plan: None,
                probe: ProbeSpec::default(),
                sim: SimParams::default(),
            },
            theta: 0.0,
            goal_ms: 10.0,
            goal_rate_per_ms: 0.006,
            goal_quantile: None,
            tiers: None,
        }
    }

    /// Node-local memory size in MB, summed over the memory tiers of the
    /// storage ladder (equals the buffer size for the default ladder).
    pub fn node_size_mb(&self) -> f64 {
        self.cluster.local_frames_per_node() as f64 / PAGES_PER_MB
    }

    /// Whether this is a valid run of the §7.1 system; the error names the
    /// first fault found. The one check of a configuration: a value a run
    /// could not survive, or would run on without meaning, is refused here
    /// rather than panicked on inside the simulator.
    pub fn validate(&self) -> Result<(), Error> {
        self.validate_cluster()?;
        let mut goals = self.workload.classes.iter().filter_map(|k| k.goal_ms);
        if let Some(goal) = goals.find(|g| !(*g > 0.0 && g.is_finite())) {
            return Err(Error::InvalidGoal(goal));
        }
        let arrives = self.workload.classes.iter().any(|class| {
            let shifts = class.rate_shifts.iter().flat_map(|s| &s.arrival_per_ms);
            class.arrival_per_ms.iter().chain(shifts).any(|&r| r > 0.0)
        });
        let fraction_ok = match self.controller {
            ControllerKind::Static { fraction } => (0.0..=1.0).contains(&fraction),
            _ => true,
        };
        let range_ok = |r: &GoalRange| r.min_ms > 0.0 && r.max_ms > r.min_ms;
        let checks = [
            (arrives, "no class ever arrives"),
            (!self.interval.is_zero(), "the interval must be positive"),
            (fraction_ok, "the static fraction must lie in [0, 1]"),
            (
                self.goal_range.as_ref().is_none_or(range_ok),
                "goal_range must satisfy 0 < min_ms < max_ms",
            ),
            (
                self.release_floor_mb >= 0.0 && self.release_floor_mb.is_finite(),
                "release floor must be finite and ≥ 0",
            ),
            (
                self.probe.is_valid(),
                "probe batch size must be a power of two ≥ 2",
            ),
        ];
        if let Some((_, fault)) = checks.iter().find(|(ok, _)| !ok) {
            return Err(Error::InvalidConfig(fault));
        }
        let (nodes, db_pages) = (self.cluster.nodes, self.cluster.db_pages);
        let workload = self.workload.validate(nodes, db_pages);
        workload.map_err(Error::InvalidWorkload)?;
        let plan = self.fault_plan.as_ref().map(|plan| plan.validate(nodes));
        plan.unwrap_or(Ok(())).map_err(Error::InvalidConfig)
    }

    /// The checks of [`SystemConfig::cluster`] alone: a workload over the
    /// cluster allocates by its node count.
    fn validate_cluster(&self) -> Result<(), Error> {
        let c = &self.cluster;
        let ring_ok = match c.placement {
            PlacementSpec::HotRing(ring) => {
                ring.vnodes > 0 && (1..=MAX_RING_REPLICAS).contains(&(ring.max_replicas as usize))
            }
            _ => true,
        };
        let no_core = FabricSpec::Switched {
            bisection_bits_per_sec: Some(0),
        };
        let checks = [
            (c.nodes > 0, "the cluster needs at least one node"),
            // NodeId is a u16; more nodes would silently truncate.
            (c.nodes <= u16::MAX as usize, "node count exceeds u16::MAX"),
            (c.db_pages > 0, "the database needs at least one page"),
            (
                c.buffer_pages_per_node > 0,
                "node buffers need at least one frame",
            ),
            (c.policy != PolicySpec::LruK(0), "policy LruK needs k ≥ 1"),
            (c.net.bits_per_sec > 0, "network bandwidth must be positive"),
            (
                c.net.fabric != no_core,
                "bisection bandwidth must be positive (omit it for an ideal switch core)",
            ),
            (
                c.spans.sample_every() != Some(0),
                "the span sampling divisor must be at least 1",
            ),
            (ring_ok, "hot ring vnodes or max_replicas out of range"),
        ];
        match checks.iter().find(|(ok, _)| !ok) {
            Some((_, fault)) => Err(Error::InvalidConfig(fault)),
            None => Ok(()),
        }
    }
}

/// Fluent construction of a [`SystemConfig`].
///
/// Obtained from [`SystemConfig::builder`]; every setter consumes and
/// returns the builder and writes straight into the configuration it
/// holds. [`SystemConfigBuilder::build`] derives the §7.2 workload and then
/// calls [`SystemConfig::validate`], returning [`Error`] instead of
/// panicking deep inside the simulator. Fields not covered by a setter keep
/// their paper defaults. The built [`SystemConfig`]'s fields stay public
/// for edits after `build`; [`crate::Simulation::new`] judges such an
/// edited configuration by the same [`SystemConfig::validate`] and panics
/// on one it refuses.
#[derive(Debug, Clone)]
pub struct SystemConfigBuilder {
    /// The configuration being built. Its workload is an empty placeholder
    /// until `build` derives it from the inputs below.
    config: SystemConfig,
    theta: f64,
    goal_ms: f64,
    goal_rate_per_ms: f64,
    goal_quantile: Option<f64>,
    /// Converted into the ladder by `build`.
    tiers: Option<Vec<TierSpec>>,
}

/// Builder setters as a table: each entry is a setter's doc, its
/// signature and the one assignment it makes to the builder, `self` implied.
macro_rules! setters {
    ($($(#[$doc:meta])* $name:ident($arg:ident: $ty:ty) => $($place:ident).+ = $value:expr;)*) => {
        $(
            $(#[$doc])*
            pub fn $name(mut self, $arg: $ty) -> Self {
                self.$($place).+ = $value;
                self
            }
        )*
    };
}

impl SystemConfigBuilder {
    setters! {
        /// Master seed; every stochastic stream derives from it.
        seed(seed: u64) => config.seed = seed;
        /// Zipf skew of page accesses (0 = uniform).
        theta(theta: f64) => theta = theta;
        /// Initial response-time goal of the goal class (ms).
        goal_ms(goal_ms: f64) => goal_ms = goal_ms;
        /// Number of cluster nodes.
        nodes(nodes: usize) => config.cluster.nodes = nodes;
        /// Database size in pages.
        db_pages(pages: u32) => config.cluster.db_pages = pages;
        /// Buffer frames per node.
        buffer_pages_per_node(pages: usize) => config.cluster.buffer_pages_per_node = pages;
        /// Goal-class arrival rate per node (ops/ms; the no-goal class runs 3×).
        goal_rate_per_ms(rate: f64) => goal_rate_per_ms = rate;
        /// Bandwidth of the shared LAN medium in bits per second (§7.1 default:
        /// 100 Mbit/s). Scale-out experiments need this dial: with a shared
        /// medium, total network traffic grows with the node count while the
        /// medium's capacity does not, so the 1999-era fabric saturates long
        /// before N = 64. Per-message latency is unaffected.
        net_bits_per_sec(bits_per_sec: u64) => config.cluster.net.bits_per_sec = bits_per_sec;
        /// Network fabric topology (default: the paper's shared medium).
        /// [`FabricSpec::Switched`] gives every node dedicated full-duplex
        /// TX/RX links at [`net_bits_per_sec`](Self::net_bits_per_sec) each —
        /// aggregate capacity then scales with the node count, which is what
        /// lets a 100 Mbit/s-class fabric hold per-node-constant load at
        /// N = 64 where the shared medium saturates.
        fabric(fabric: FabricSpec) => config.cluster.net.fabric = fabric;
        /// Warm-up probing scheme of the hyperplane coordinators (default:
        /// the paper's sequential probes). [`ProbeSpec::Batched`] perturbs a
        /// sign-orthogonal batch of nodes per probe so no acted-on check is
        /// wasted on a rank-redundant partitioning.
        probe(probe: ProbeSpec) => config.probe = probe;
        /// Makes the goal class's goal a *quantile* target: `goal_ms` then
        /// bounds the per-interval `q`-quantile of response time (e.g.
        /// `q = 0.95` for a p95 goal) instead of the mean. Quantile goals get
        /// wider tolerance bands and their own trace fields; mean-goal runs are
        /// byte-identical whether or not this code path exists.
        goal_quantile(q: f64) => goal_quantile = Some(q);
        /// Warm-up intervals before statistics collection starts.
        warmup_intervals(n: u32) => config.warmup_intervals = n;
        /// Controller managing the goal classes.
        controller(controller: ControllerKind) => config.controller = controller;
        /// Enables §7.1 goal re-randomization within `range`.
        goal_range(range: GoalRange) => config.goal_range = Some(range);
        /// How goal satisfaction is judged.
        satisfaction(mode: SatisfactionMode) => config.satisfaction = mode;
        /// Minimum total dedicated MB per goal class (0 disables).
        release_floor_mb(mb: f64) => config.release_floor_mb = mb;
        /// Operation-level span tracing mode (default: [`SpanMode::Off`]).
        /// [`SpanMode::Histograms`] aggregates per-class × per-stage response
        /// time histograms into the metrics snapshot;
        /// [`SpanMode::Sampled`] additionally emits a `span` trace record for a
        /// deterministic 1-in-N sample of operations.
        spans(mode: SpanMode) => config.cluster.spans = mode;
        /// Page-to-home placement scheme (default: static round-robin). The
        /// static schemes exist for differential testing;
        /// [`PlacementSpec::HotRing`] spreads hot pages across several homes.
        placement(placement: PlacementSpec) => config.cluster.placement = placement;
        /// Installs a deterministic fault-injection plan.
        fault_plan(plan: FaultPlan) => config.fault_plan = Some(plan);
        /// Replaces the storage hierarchy with a custom ladder of [`TierSpec`]s:
        /// one or more local memory tiers (fastest first, tier 0 may inherit
        /// the node buffer size), then the remote-memory rung, then the disk
        /// rung. [`SystemConfigBuilder::build`] validates the ladder (monotone
        /// latencies, pinned intermediate capacities, at most
        /// [`dmm_cluster::MAX_TIERS`] rungs) and returns [`Error::InvalidTier`]
        /// otherwise. The default three-rung ladder reproduces the paper's
        /// fixed local/remote/disk cost model byte-identically.
        tiers(tiers: Vec<TierSpec>) => tiers = Some(tiers);
        /// Placement policy across the local memory tiers of an extended
        /// ladder (default: hotness-based promotion/demotion). Irrelevant for
        /// the default ladder.
        tier_policy(policy: TierPolicy) => config.cluster.tier_policy = policy;
    }

    // Inert: kept only because `benchmark/src/workloads.rs` (frozen) calls
    // `.execution(ExecMode::Sequential)`; remove with that call site.
    #[doc(hidden)]
    pub fn execution(self, _exec: ExecMode) -> Self {
        self
    }

    /// Derives the §7.2 two-class workload from θ, the goal, the goal rate
    /// and the goal quantile, then returns the configuration if
    /// [`SystemConfig::validate`] accepts it.
    pub fn build(self) -> Result<SystemConfig, Error> {
        let mut config = self.config;
        if let Some(tiers) = self.tiers {
            config.cluster.tiers = TierLadder::new(tiers).map_err(Error::InvalidTier)?;
        }
        // The workload holds one arrival rate per node: derive it only over
        // a cluster that passes its checks.
        config.validate_cluster()?;
        let cluster = &config.cluster;
        config.workload = WorkloadSpec::base_two_class(
            cluster.nodes,
            cluster.db_pages,
            self.theta,
            self.goal_rate_per_ms,
            self.goal_ms,
        );
        if let Some(q) = self.goal_quantile {
            config.workload.classes[1].goal_metric = GoalMetric::Quantile { q };
        }
        config.validate()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::Simulation;
    use dmm_cluster::NodeId;

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
    fn placement_flows_into_cluster_params() {
        let spec = PlacementSpec::HotRing(dmm_cluster::HotRingSpec::default());
        let config = SystemConfig::builder()
            .placement(spec)
            .build()
            .expect("valid config");
        assert_eq!(config.cluster.placement, spec);
    }

    /// Each row is a configuration that `build` or a field edit after it
    /// used to let through, and that then panicked inside the simulator
    /// or ran on without meaning. `validate` refuses each one, and so does
    /// `build` where a setter reaches the field.
    #[test]
    fn validate_refuses_what_the_simulator_cannot_run() {
        type Edit = fn(&mut SystemConfig);
        type Setter = fn(SystemConfigBuilder) -> SystemConfigBuilder;
        const INVERTED: GoalRange = GoalRange {
            min_ms: 40.0,
            max_ms: 4.0,
        };
        let rows: [(Error, Edit, Option<Setter>); 8] = [
            (
                Error::InvalidConfig("the static fraction must lie in [0, 1]"),
                |c| c.controller = ControllerKind::Static { fraction: 1.5 },
                Some(|b| b.controller(ControllerKind::Static { fraction: 1.5 })),
            ),
            (
                Error::InvalidConfig("goal_range must satisfy 0 < min_ms < max_ms"),
                |c| c.goal_range = Some(INVERTED),
                Some(|b| b.goal_range(INVERTED)),
            ),
            (
                Error::InvalidConfig("policy LruK needs k ≥ 1"),
                |c| c.cluster.policy = PolicySpec::LruK(0),
                None,
            ),
            (
                Error::InvalidConfig("network bandwidth must be positive"),
                |c| c.cluster.net.bits_per_sec = 0,
                Some(|b| b.net_bits_per_sec(0)),
            ),
            (
                Error::InvalidConfig("the span sampling divisor must be at least 1"),
                |c| c.cluster.spans = SpanMode::Sampled { every: 0 },
                Some(|b| b.spans(SpanMode::Sampled { every: 0 })),
            ),
            (
                Error::InvalidConfig("probe batch size must be a power of two ≥ 2"),
                |c| c.probe = ProbeSpec::Batched { batch: 3 },
                Some(|b| b.probe(ProbeSpec::Batched { batch: 3 })),
            ),
            (
                Error::InvalidWorkload(
                    "no-goal: arrival rates must be finite and ≥ 0, one per node".to_string(),
                ),
                |c| c.cluster.nodes = 4,
                None,
            ),
            (
                Error::InvalidConfig("fault event targets an unknown node"),
                |c| c.fault_plan = Some(FaultPlan::new(1).crash_ms(NodeId(3), 1_000)),
                Some(|b| b.fault_plan(FaultPlan::new(1).crash_ms(NodeId(3), 1_000))),
            ),
        ];
        for (expected, edit, setter) in rows {
            let mut config = SystemConfig::builder().build().expect("valid config");
            edit(&mut config);
            assert_eq!(config.validate(), Err(expected.clone()));
            if let Some(set) = setter {
                assert_eq!(set(SystemConfig::builder()).build().unwrap_err(), expected);
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid configuration")]
    fn simulation_new_refuses_a_post_hoc_edit() {
        let mut config = SystemConfig::builder().build().expect("valid config");
        config.cluster.policy = PolicySpec::LruK(0);
        Simulation::new(config);
    }

    /// A printed configuration names each class's page set by its runs,
    /// not by its ~1,000 page ids.
    #[test]
    fn a_printed_config_stays_short() {
        let config = SystemConfig::builder().build().expect("valid config");
        let text = format!("{config:?}");
        assert!(
            text.contains("page_runs: [{start: 1000, len: 1000}]"),
            "{text}"
        );
        assert!(text.len() < 3_000, "{} bytes: {text}", text.len());
    }
}
