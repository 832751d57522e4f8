//! The class coordinator (paper §5, phases (b)–(d)).
//!
//! One coordinator exists per goal class, placed on some node (messages to
//! and from it cross the simulated LAN). It remembers the most recent report
//! from every class-k agent and every no-goal agent — the agents need not be
//! synchronous — computes the λ-weighted mean response time of Eq. 4, checks
//! it against the goal with the adaptive tolerance, and, on violation, runs
//! the optimization phase of its [`ControllerKind`]: the paper's
//! hyperplane-and-LP method, one of the fencing baselines, or nothing — one
//! `match`. The phase fills the trace's [`records::Optimize`] itself, so the
//! record's fields are declared once.
//!
//! During warm-up — fewer than `N+1` independent measure points — the
//! hyperplane controller issues a deterministic probing sequence (base
//! fraction everywhere, then one perturbed node per step), each step chosen
//! so it extends the measure store's rank (§5(b): "we have to take care that
//! every new partitioning leads to a new linear independent measure point").

use std::borrow::Cow;

use dmm_buffer::ClassId;
use dmm_cluster::NodeId;
use dmm_obs::Histogram;
use dmm_sim::SimTime;
use dmm_workload::GoalMetric;

use crate::agent::{rt_histogram, AgentObservation};
use crate::approx::{fit_planes, Planes};
use crate::baselines::{class_fencing, fragment_fencing, ControllerKind, TwoPoint};
use crate::measure::{MeasurePoint, MeasureStore};
use crate::optimize::{solve_partitioning, Objective, PartitionProblem};
use crate::probe::{apply_probe_delta, batched_probe_deltas};
use crate::records::{self, GoalMetricLabel};
use crate::tolerance::ToleranceEstimator;

/// Bytes per MB; allocations are granted in 4 KB pages.
pub const MB: f64 = 1024.0 * 1024.0;
/// Pages per MB.
pub const PAGES_PER_MB: f64 = 256.0;

/// Stickiness penalty in ms/MB on `|x − current|` in every partitioning
/// solve: it breaks ties a symmetric cluster would otherwise resolve by
/// hopping warm pools between nodes, and sits far below the real
/// response-time gradients (~1–10 ms/MB), so it never overrides them.
const REALLOCATION_PENALTY: f64 = 0.02;

/// How goal satisfaction is judged in the check phase.
///
/// The paper's convergence experiments (§7.1, Fig. 2) treat the goal as a
/// *target*: the system counts an interval as satisfied when the observed
/// response time is within the tolerance band around the goal, and releases
/// memory when the class runs faster than the goal. A production SLA reading
/// treats the goal as an *upper bound* only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SatisfactionMode {
    /// Satisfied iff `|RT − goal| ≤ δ` (the paper's experiments).
    #[default]
    TwoSided,
    /// Satisfied iff `RT ≤ goal + δ` (SLA reading).
    UpperBound,
}

/// Result of one check phase.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    /// λ-weighted mean class response time, if any agent has data.
    pub observed_class_ms: Option<f64>,
    /// Observed goal-quantile response time (ms), merged over the latest
    /// per-node histograms; `Some` only for quantile-goal classes with
    /// data. For those classes this — not the mean — is the statistic
    /// checked against the goal.
    pub observed_quantile_ms: Option<f64>,
    /// λ-weighted mean no-goal response time (last known).
    pub observed_nogoal_ms: f64,
    /// Whether the goal was satisfied (`None` = no data yet).
    pub satisfied: Option<bool>,
    /// Adaptive tolerance δ (ms) in force during this check.
    pub tolerance_ms: f64,
    /// Whether the check fell in the settling window after an allocation
    /// change (no measure point recorded, no action taken).
    pub settling: bool,
    /// Whether workload-shift detection cleared the measure store this
    /// check.
    pub store_cleared: bool,
    /// The optimization phase's `optimize` record, when the phase issued
    /// an allocation (`interval` is left for the caller to stamp).
    pub optimize: Option<records::Optimize>,
    /// Realized LP prediction residual (observed − predicted class ms):
    /// present on the first non-settling check after an LP-issued
    /// allocation, measuring how well the fitted plane anticipated the
    /// outcome of its own action (controller explainability).
    pub prediction_residual_ms: Option<f64>,
}

impl CheckOutcome {
    /// New per-node allocation in MB, if the optimization phase decided to
    /// change the partitioning: the optimize record's `requested_mb`.
    pub fn new_alloc_mb(&self) -> Option<&[f64]> {
        Some(&self.optimize.as_ref()?.requested_mb)
    }
}

/// Coordinator for one goal class.
#[derive(Debug)]
pub struct Coordinator {
    class: ClassId,
    home: NodeId,
    nodes: usize,
    goal_ms: f64,
    /// Which response-time statistic the goal constrains. With a quantile
    /// metric the whole measure → check → optimize loop runs on the merged
    /// per-interval histogram quantile instead of the λ-weighted mean: the
    /// tolerance adapts to the quantile's variance, the measure store pairs
    /// partitionings with observed quantiles, and the hyperplane is fitted
    /// through those quantiles.
    metric: GoalMetric,
    node_size_mb: f64,
    tol: ToleranceEstimator,
    latest_class: Vec<Option<AgentObservation>>,
    latest_nogoal: Vec<Option<AgentObservation>>,
    /// The latest class histograms merged, for a quantile goal's check:
    /// reset and refilled each check, never reallocated.
    merged_rt: Histogram,
    granted_mb: Vec<f64>,
    avail_mb: Vec<f64>,
    /// Liveness view: `live[i]` is false while node `i` is crashed. The
    /// optimization runs in the subspace of live nodes (dead columns carry
    /// no information) and dead nodes are never allocated to.
    live: Vec<bool>,
    last_nogoal_ms: f64,
    controller: ControllerKind,
    /// Phase-(b) point store; only the hyperplane controller fills it.
    store: MeasureStore,
    /// Warm-up probe cursor of the hyperplane controller.
    probe_step: usize,
    /// The fencing baselines' two-point model: RT(buffer) for fragment
    /// fencing, miss(buffer) for class fencing.
    fencing: TwoPoint,
    satisfaction: SatisfactionMode,
    /// Minimum total dedicated memory (MB) the coordinator keeps for its
    /// class. Response time is only controllable through the dedicated
    /// pools; below a minimal pool the class lives off the shared no-goal
    /// buffer where more dedication can *slow it down* (it loses its shared
    /// share), so releases are clamped here. 0 disables the floor.
    release_floor_mb: f64,
    /// Total arrival rate (class + no-goal, ops/ms) embedded in the current
    /// measure points. A large deviation means the workload shifted and the
    /// stored response-time surface no longer holds: the store is cleared
    /// and re-probed (§1's "evolving workload characteristics").
    store_rate_signature: Option<f64>,
    /// EWMA-smoothed arrival-rate signature (raw per-interval rates are
    /// Poisson-noisy; the detector must not trip on sampling noise).
    smoothed_signature: Option<f64>,
    /// Per-node base the warm-up probe sequence perturbs around, captured
    /// *once* when a workload shift clears the measure store: re-probing
    /// then keeps the partitioning that was serving the class instead of
    /// resetting to the low start-up base. Anchoring on the live grant
    /// instead would ratchet toward the cap, because every probe step adds
    /// its perturbation on top of the previous step's allocation. `None`
    /// until a shift is detected (start-up probes use the classic low base).
    probe_anchor_mb: Option<Vec<f64>>,
    /// Settling checks remaining for the most recently issued allocation
    /// change: intervals whose measurements mix the old and new
    /// partitionings (the caches refill), so those checks neither record a
    /// measure point nor issue a new action. Large moves need two intervals
    /// to refill; small ones need one.
    transient: u8,
    checks: u64,
    optimizations: u64,
    /// Plane-predicted class response time at the most recent LP-path
    /// allocation as issued, awaiting realization at the next non-settling
    /// check.
    pending_prediction: Option<f64>,
    /// EWMA (α = 0.3) of realized prediction residuals — a rolling gauge of
    /// how much the fitted surface can currently be trusted.
    residual_ewma_ms: Option<f64>,
    /// Most recent observed goal-quantile (ms), for gauges; `None` until a
    /// quantile-goal class produces data.
    last_quantile_ms: Option<f64>,
    /// Precomputed sign-orthogonal probe plan ([`crate::probe`]); `None`
    /// keeps the paper's sequential one-node-per-step prober.
    probe_plan: Option<Vec<Vec<f64>>>,
    /// Most recent successfully fitted full-topology surfaces — the donor
    /// for cross-scale warm starts ([`Coordinator::warm_start`]).
    last_fit: Option<Planes>,
}

impl Coordinator {
    /// New coordinator on `home` for `class`, with `nodes` nodes of
    /// `node_size_mb` MB buffer each, running `controller`.
    pub fn new(
        class: ClassId,
        home: NodeId,
        nodes: usize,
        node_size_mb: f64,
        goal_ms: f64,
        controller: ControllerKind,
    ) -> Self {
        assert!(!class.is_no_goal(), "the no-goal class has no coordinator");
        assert!(goal_ms > 0.0 && node_size_mb > 0.0 && nodes > 0);
        Coordinator {
            class,
            home,
            nodes,
            goal_ms,
            metric: GoalMetric::Mean,
            node_size_mb,
            tol: ToleranceEstimator::default(),
            latest_class: vec![None; nodes],
            latest_nogoal: vec![None; nodes],
            merged_rt: rt_histogram(),
            granted_mb: vec![0.0; nodes],
            avail_mb: vec![node_size_mb; nodes],
            live: vec![true; nodes],
            last_nogoal_ms: 0.0,
            controller,
            store: MeasureStore::new(nodes),
            probe_step: 0,
            fencing: TwoPoint::default(),
            satisfaction: SatisfactionMode::default(),
            release_floor_mb: 0.0,
            store_rate_signature: None,
            smoothed_signature: None,
            probe_anchor_mb: None,
            // The very first interval measures a cold system that represents
            // no steady-state partitioning: skip it like any other transient.
            transient: 1,
            checks: 0,
            optimizations: 0,
            pending_prediction: None,
            residual_ewma_ms: None,
            last_quantile_ms: None,
            probe_plan: None,
            last_fit: None,
        }
    }

    /// Selects the response-time statistic the goal constrains (default:
    /// the paper's mean). Switching to a quantile swaps in the wider
    /// quantile tolerance bands ([`ToleranceEstimator::for_quantile`]) —
    /// per-interval quantiles are noisier than means, so the settling
    /// semantics get more slack before a violation is declared.
    pub fn set_goal_metric(&mut self, metric: GoalMetric) {
        metric.validate().unwrap_or_else(|e| panic!("{e}"));
        self.metric = metric;
        if metric.is_quantile() {
            self.tol = ToleranceEstimator::for_quantile();
        }
    }

    /// The response-time statistic the goal constrains.
    pub fn goal_metric(&self) -> GoalMetric {
        self.metric
    }

    /// Most recent observed goal-quantile (ms), if any.
    pub fn last_quantile_ms(&self) -> Option<f64> {
        self.last_quantile_ms
    }

    /// Selects how satisfaction is judged (default: the paper's two-sided
    /// band).
    pub fn set_satisfaction_mode(&mut self, mode: SatisfactionMode) {
        self.satisfaction = mode;
    }

    /// Sets the release floor in MB (see the field docs; 0 disables).
    pub fn set_release_floor(&mut self, floor_mb: f64) {
        assert!(floor_mb >= 0.0);
        self.release_floor_mb = floor_mb;
    }

    /// Switches warm-up probing from the paper's one-node-per-step sequence
    /// to sign-orthogonal batches of `batch` nodes per probe (see
    /// [`crate::probe`]). Every planned probe is guaranteed to extend the
    /// measure store's rank, so none of the scarce acted-on checks is wasted
    /// re-measuring a direction already in the span. Panics unless `batch`
    /// is a power of two ≥ 2 (`SystemConfig::build` validates upstream).
    pub fn set_probe_batch(&mut self, batch: usize) {
        self.probe_plan = Some(batched_probe_deltas(self.nodes, batch));
    }

    /// The most recent successfully fitted full-topology surfaces, if any
    /// (also set by [`Coordinator::warm_start`]) — the small-system donor
    /// for a cross-scale warm start.
    pub fn fitted_planes(&self) -> Option<&Planes> {
        self.last_fit.as_ref()
    }

    /// Seeds the measure store with `N + 1` synthetic on-plane points
    /// derived from `planes` — typically a small-system fit stretched by
    /// [`crate::approx::upsample_planes`] — so the hyperplane controller
    /// starts at full rank and the LP can engage on the very first
    /// violation instead of spending ~`N` probe intervals learning the
    /// surface from scratch. The synthetic response times are the *raw*
    /// plane predictions (unclamped — clamping would bend the recorded
    /// surface away from the plane and corrupt the first fit); real
    /// measurements then blend in through the store's normal replacement
    /// and correct any residual model error. No-op for the other
    /// controllers.
    pub fn warm_start(&mut self, planes: &Planes, at: SimTime) {
        assert_eq!(
            planes.class.w.len(),
            self.nodes,
            "warm-start planes must match the topology width"
        );
        if !self.learns() {
            return;
        }
        let store = &mut self.store;
        store.clear();
        let low = 0.25 * self.node_size_mb;
        let base = vec![low; self.nodes];
        store.record(
            base.clone(),
            planes.predict_class_ms(&base),
            planes.predict_nogoal_ms(&base),
            at,
        );
        for i in 0..self.nodes {
            let mut x = base.clone();
            x[i] += 0.5 * self.node_size_mb;
            let (rt_k, rt_0) = (planes.predict_class_ms(&x), planes.predict_nogoal_ms(&x));
            store.record(x, rt_k, rt_0, at);
        }
        debug_assert!(store.has_full_rank());
        self.last_fit = Some(planes.clone());
    }

    /// Whether the controller learns a response-time surface: only the
    /// hyperplane controller fills the measure store and probes.
    fn learns(&self) -> bool {
        matches!(self.controller, ControllerKind::Hyperplane { .. })
    }

    /// Class this coordinator manages.
    pub fn class(&self) -> ClassId {
        self.class
    }

    /// Node the coordinator runs on.
    pub fn home(&self) -> NodeId {
        self.home
    }

    /// Moves the coordinator to another node (§5: "even a migration of a
    /// coordinator from one node to another node is possible, as long as all
    /// corresponding agents are informed"). State travels with it; only the
    /// message endpoints change.
    pub fn migrate(&mut self, new_home: NodeId) {
        self.home = new_home;
    }

    /// The goal currently in force (ms).
    pub fn goal_ms(&self) -> f64 {
        self.goal_ms
    }

    /// Current tolerance δ (ms).
    pub fn tolerance_ms(&self) -> f64 {
        self.tol.tolerance_ms(self.goal_ms)
    }

    /// Number of check phases run.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Number of optimization phases run (violations acted upon).
    pub fn optimizations(&self) -> u64 {
        self.optimizations
    }

    /// Rolling EWMA of realized LP prediction residuals (ms), if any
    /// LP-issued allocation has been followed up yet.
    pub fn residual_ewma_ms(&self) -> Option<f64> {
        self.residual_ewma_ms
    }

    /// The coordinator's view of its granted allocation (MB per node).
    pub fn granted_mb(&self) -> &[f64] {
        &self.granted_mb
    }

    /// Installs a new response-time goal (dynamic goal adjustment). Resets
    /// the tolerance window; measure points stay valid (the response-time
    /// surface depends on the workload, not the goal).
    pub fn set_goal(&mut self, goal_ms: f64) {
        assert!(goal_ms > 0.0);
        self.goal_ms = goal_ms;
        self.tol.reset();
    }

    /// Marks `node` crashed: its observations are dropped, its grant and
    /// headroom go to zero, and the learned response-time surface is reset —
    /// the topology changed, so stored points (which mix in the dead node's
    /// memory) no longer describe the reachable surface. Idempotent.
    pub fn node_down(&mut self, node: NodeId) {
        let slot = node.index();
        assert!(slot < self.nodes);
        if !self.live[slot] {
            return;
        }
        self.live[slot] = false;
        self.latest_class[slot] = None;
        self.latest_nogoal[slot] = None;
        self.granted_mb[slot] = 0.0;
        self.avail_mb[slot] = 0.0;
        self.topology_changed();
    }

    /// Marks `node` live again after a restart (cold buffer: nothing
    /// granted, full headroom). The surface is re-learned over the restored
    /// topology. Idempotent.
    pub fn node_up(&mut self, node: NodeId) {
        let slot = node.index();
        assert!(slot < self.nodes);
        if self.live[slot] {
            return;
        }
        self.live[slot] = true;
        self.latest_class[slot] = None;
        self.latest_nogoal[slot] = None;
        self.granted_mb[slot] = 0.0;
        self.avail_mb[slot] = self.node_size_mb;
        self.topology_changed();
    }

    /// Number of nodes this coordinator currently believes are up.
    pub fn live_nodes(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    /// Reacts to a cluster membership change: the measure store is cleared
    /// (same mechanism as a workload shift — the old surface is stale), the
    /// full-rank requirement shrinks to `live + 1` (dead columns are frozen
    /// at zero, so `N + 1` affinely independent points no longer exist), and
    /// re-probing anchors on the surviving partitioning.
    fn topology_changed(&mut self) {
        let live = self.live_nodes();
        assert!(live > 0, "at least one node must survive");
        if self.learns() {
            self.store.clear();
            self.store
                .set_rank_target((live < self.nodes).then_some(live + 1));
            self.probe_step = 0;
        }
        self.tol.reset();
        self.store_rate_signature = None;
        self.smoothed_signature = None;
        self.probe_anchor_mb = Some(self.granted_mb.clone());
        self.transient = 2;
    }

    /// Phase (b): stores an agent report (class-k or no-goal agent), copied
    /// into the buffers of the node's previous one.
    pub fn on_report(&mut self, obs: &AgentObservation) {
        let slot = obs.node.index();
        assert!(slot < self.nodes);
        if !self.live[slot] {
            // A straggler report from a node this coordinator already
            // declared dead (e.g. delivered the instant of the crash).
            return;
        }
        let latest = if obs.class == self.class {
            self.granted_mb[slot] = obs.granted_pages as f64 / PAGES_PER_MB;
            self.avail_mb[slot] = obs.avail_pages as f64 / PAGES_PER_MB;
            &mut self.latest_class[slot]
        } else {
            debug_assert!(obs.class.is_no_goal(), "only no-goal crosses classes");
            &mut self.latest_nogoal[slot]
        };
        match latest {
            Some(kept) => kept.clone_from(obs),
            None => *latest = Some(obs.clone()),
        }
    }

    /// Phase (e) feedback: a node granted (possibly less than) the requested
    /// allocation.
    pub fn on_granted(&mut self, node: NodeId, granted_pages: usize, avail_pages: usize) {
        self.granted_mb[node.index()] = granted_pages as f64 / PAGES_PER_MB;
        self.avail_mb[node.index()] = avail_pages as f64 / PAGES_PER_MB;
    }

    /// Phases (c)+(d): the check and, on violation, the optimization.
    pub fn check(&mut self, now: SimTime) -> CheckOutcome {
        self.checks += 1;
        let rt_class = weighted_rt(&self.latest_class);
        if let Some(rt0) = weighted_rt(&self.latest_nogoal) {
            self.last_nogoal_ms = rt0;
        }
        // For quantile goals: merge the latest per-node histograms (in node
        // order — merge is order-invariant anyway) and extract the goal
        // quantile. Mean-goal classes skip this entirely.
        let rt_quantile = self
            .metric
            .quantile()
            .and_then(|q| merged_quantile_ms(&self.latest_class, q, &mut self.merged_rt));
        if rt_quantile.is_some() {
            self.last_quantile_ms = rt_quantile;
        }
        // The statistic the goal constrains — everything downstream
        // (tolerance, satisfaction, measure store, optimization) sees only
        // this value.
        let rt_goal_value = match self.metric {
            GoalMetric::Mean => rt_class,
            GoalMetric::Quantile { .. } => rt_quantile,
        };
        let Some(rt_k) = rt_goal_value else {
            return CheckOutcome {
                observed_class_ms: rt_class,
                observed_quantile_ms: rt_quantile,
                observed_nogoal_ms: self.last_nogoal_ms,
                satisfied: None,
                tolerance_ms: self.tolerance_ms(),
                settling: self.transient > 0,
                store_cleared: false,
                optimize: None,
                prediction_residual_ms: None,
            };
        };

        let settling = self.transient > 0;
        self.transient = self.transient.saturating_sub(1);
        // Realize the residual of the most recent LP prediction at the first
        // non-settling check after its allocation took effect: by then the
        // caches have refilled and `rt_k` measures the partitioning the LP
        // actually produced.
        let mut prediction_residual_ms = None;
        let mut store_cleared = false;
        if !settling {
            if let Some(pred) = self.pending_prediction.take() {
                let residual = rt_k - pred;
                prediction_residual_ms = Some(residual);
                self.residual_ewma_ms = Some(match self.residual_ewma_ms {
                    Some(prev) => prev + 0.3 * (residual - prev),
                    None => residual,
                });
            }
            // Workload-shift detection: the fitted surface is conditional on
            // the arrival rates; a sustained >15 % change invalidates the
            // measure points. The raw per-interval rates are Poisson-noisy,
            // so the detector compares an EWMA-smoothed signature. Settling
            // checks are excluded — their reports can be partial.
            let raw: f64 = self
                .latest_class
                .iter()
                .chain(&self.latest_nogoal)
                .flatten()
                .map(|o| o.arrival_rate_per_ms)
                .sum();
            let signature = match self.smoothed_signature {
                Some(prev) => prev + 0.3 * (raw - prev),
                None => raw,
            };
            if raw > 0.0 {
                self.smoothed_signature = Some(signature);
            }
            if let Some(s0) = self.store_rate_signature {
                if (signature - s0).abs() > 0.15 * s0.max(1e-9) {
                    if self.learns() {
                        self.store.clear();
                    }
                    self.tol.reset();
                    self.store_rate_signature = Some(signature);
                    self.probe_anchor_mb = Some(self.granted_mb.clone());
                    store_cleared = true;
                }
            } else if signature > 0.0 {
                self.store_rate_signature = Some(signature);
            }
            self.tol.observe(rt_k);
            // Record the measure point before deciding: the check's data is
            // a measurement of the *current* partitioning. An interval that
            // straddled an allocation change measures neither the old nor
            // the new partitioning and is not recorded (§5(b) pairs each
            // point with one partitioning).
            if self.learns() {
                self.store
                    .record(self.granted_mb.clone(), rt_k, self.last_nogoal_ms, now);
            }
        }
        // The coordinator *acts* when the class is too slow (grow) or when
        // it is too fast while holding dedicated memory — releasing it for
        // the no-goal class (the behaviour §2 describes for the fencing
        // methods) by steering toward the goal equality of the §4 LP.
        let satisfied = match self.satisfaction {
            SatisfactionMode::TwoSided => self.tol.satisfied(rt_k, self.goal_ms),
            SatisfactionMode::UpperBound => !self.tol.too_slow(rt_k, self.goal_ms),
        };
        let holds_memory = self.granted_mb.iter().sum::<f64>() > 1e-9;
        let too_slow = self.tol.too_slow(rt_k, self.goal_ms);
        let act =
            !settling && (too_slow || (self.tol.too_fast(rt_k, self.goal_ms) && holds_memory));
        let optimize = if act {
            self.optimizations += 1;
            self.optimize(rt_k, too_slow)
        } else {
            None
        };
        if let Some(alloc) = optimize.as_ref().map(|rec| &rec.requested_mb) {
            // A change of at least one page somewhere disturbs the next
            // interval's measurements; a change of more than 1 MB total
            // takes the caches about two intervals to refill.
            let moved: f64 = alloc
                .iter()
                .zip(&self.granted_mb)
                .map(|(a, g)| (a - g).abs())
                .sum();
            if moved > 1.0 {
                self.transient = 2;
            } else if moved > 1.0 / PAGES_PER_MB {
                self.transient = 1;
            }
        }
        CheckOutcome {
            observed_class_ms: rt_class,
            observed_quantile_ms: rt_quantile,
            observed_nogoal_ms: self.last_nogoal_ms,
            satisfied: Some(satisfied),
            tolerance_ms: self.tolerance_ms(),
            settling,
            store_cleared,
            optimize,
            prediction_residual_ms,
        }
    }

    fn apply_floor(&self, alloc: Vec<f64>) -> Vec<f64> {
        let total: f64 = alloc.iter().sum();
        if total + 1e-9 >= self.release_floor_mb {
            return alloc;
        }
        distribute_delta(&alloc, &self.avail_mb, self.release_floor_mb - total)
    }

    /// Phase (d): proposes a new allocation and returns the `optimize`
    /// record that carries it, or `None` to keep the current one.
    fn optimize(&mut self, rt_k: f64, too_slow: bool) -> Option<records::Optimize> {
        let granted = self.granted_mb.clone();
        let mut rec = records::Optimize {
            interval: 0,
            class: self.class.index() as u64,
            path: "probe",
            points: 0,
            plane_w: None,
            plane_c: None,
            goal_attainable: None,
            predicted_class_ms: None,
            fit_residuals_ms: None,
            fit_rms_ms: None,
            fallback: None,
            current_mb: Vec::new(),
            requested_mb: Vec::new(),
            delta_mb: 0.0,
            // For quantile goals the fitted surface runs through observed
            // quantiles; the label tells analyzers what
            // `predicted_class_ms` predicts.
            quantile: self.metric.is_quantile().then_some(GoalMetricLabel {
                goal_metric: self.metric,
            }),
        };
        let (goal, size, avail) = (self.goal_ms, self.node_size_mb, &self.avail_mb);
        let mut planes = None;
        let alloc = match self.controller {
            ControllerKind::Hyperplane { objective } => {
                match self.solve(objective, too_slow, &granted, &mut rec) {
                    Ok((alloc, fitted)) => {
                        rec.path = "lp";
                        planes = Some(fitted);
                        alloc
                    }
                    Err(fallback) => {
                        rec.fallback = Some(fallback);
                        self.next_probe(&granted)
                    }
                }
            }
            ControllerKind::FragmentFencing => {
                rec.path = "fragment";
                fragment_fencing(&mut self.fencing, goal, rt_k, &granted, avail, size)
            }
            ControllerKind::ClassFencing => {
                rec.path = "class_fencing";
                let miss = aggregate_miss_rate(&self.latest_class);
                class_fencing(&mut self.fencing, goal, rt_k, miss, &granted, avail, size)?
            }
            ControllerKind::Static { .. } | ControllerKind::None => return None,
        };
        let alloc = self.apply_floor(alloc);
        if let Some(planes) = planes {
            // Predict what was issued, not what the LP proposed: the guards
            // and the floor may have moved it.
            let live: Vec<f64> = (0..self.nodes)
                .filter(|&i| self.live[i])
                .map(|i| alloc[i])
                .collect();
            let predicted = planes.predict_class_ms(&live);
            rec.predicted_class_ms = Some(predicted);
            self.pending_prediction = Some(predicted);
        }
        rec.delta_mb = alloc.iter().sum::<f64>() - granted.iter().sum::<f64>();
        rec.current_mb = granted;
        rec.requested_mb = alloc;
        Some(rec)
    }

    /// The hyperplane controller's LP path: fits the planes in the live-node
    /// subspace and solves the §4 program on them, noting the fit in `rec`.
    /// Returns the guarded allocation and the planes it was solved on, or
    /// why the path was skipped.
    fn solve(
        &mut self,
        objective: Objective,
        too_slow: bool,
        granted: &[f64],
        rec: &mut records::Optimize,
    ) -> Result<(Vec<f64>, Planes), &'static str> {
        if !self.store.has_full_rank() {
            return Err("rank_deficient");
        }
        // Indices of live nodes: with a degraded topology the fit and the
        // LP run in the surviving subspace (dead columns are identically
        // zero and carry no information; keeping them would make the fit
        // singular), and the solution is expanded back with zeros.
        let nodes = self.nodes;
        let live_idx: Vec<usize> = (0..nodes).filter(|&i| self.live[i]).collect();
        let degraded = live_idx.len() < nodes;
        let project = |v: &[f64]| -> Vec<f64> { live_idx.iter().map(|&i| v[i]).collect() };
        let points = self.store.selected_points();
        rec.points = points.len();
        let projected: Vec<MeasurePoint>;
        let fit_input: Vec<&MeasurePoint> = if degraded {
            projected = points
                .iter()
                .map(|p| MeasurePoint {
                    alloc_mb: project(&p.alloc_mb),
                    rt_class_ms: p.rt_class_ms,
                    rt_nogoal_ms: p.rt_nogoal_ms,
                    at: p.at,
                })
                .collect();
            projected.iter().collect()
        } else {
            points
        };
        let (avail_p, granted_p) = if degraded {
            (
                Cow::Owned(project(&self.avail_mb)),
                Cow::Owned(project(granted)),
            )
        } else {
            (Cow::Borrowed(&self.avail_mb[..]), Cow::Borrowed(granted))
        };
        let planes = fit_planes(&fit_input).map_err(|_| "fit_failed")?;
        // Per-point fit residuals: how well the plane explains the very
        // points it was fitted to. Exported on the optimize record so a
        // noisy or stale surface is visible from the outside.
        let resid: Vec<f64> = fit_input
            .iter()
            .map(|p| p.rt_class_ms - planes.predict_class_ms(&p.alloc_mb))
            .collect();
        let rms = (resid.iter().map(|r| r * r).sum::<f64>() / resid.len() as f64).sqrt();
        rec.fit_residuals_ms = Some(resid);
        rec.fit_rms_ms = Some(rms);
        if !degraded {
            // Subspace fits are not retained: a donor plane must span the
            // full topology.
            self.last_fit = Some(planes.clone());
        }
        if !planes.class_memory_helps() {
            return Err("memory_does_not_help");
        }
        let problem = PartitionProblem {
            planes: &planes,
            goal_ms: self.goal_ms,
            avail_mb: &avail_p,
            current_mb: &granted_p,
            reallocation_penalty: REALLOCATION_PENALTY,
            objective,
        };
        let sol = solve_partitioning(&problem).map_err(|_| "non_finite_plane")?;
        rec.plane_w = Some(expand_to_topology(planes.class.w.clone(), &live_idx, nodes));
        rec.plane_c = Some(planes.class.c);
        rec.goal_attainable = Some(sol.goal_attainable);
        let alloc = release_trust_region(sol.alloc_mb, &granted_p);
        let alloc = monotone_guard(alloc, &granted_p, &avail_p, too_slow);
        Ok((expand_to_topology(alloc, &live_idx, nodes), planes))
    }

    /// The hyperplane controller's warm-up probe (§5(b)), batched when a
    /// probe plan is set.
    fn next_probe(&mut self, granted: &[f64]) -> Vec<f64> {
        let (store, step, size) = (&self.store, &mut self.probe_step, self.node_size_mb);
        let (anchor, avail) = (self.probe_anchor_mb.as_deref(), &self.avail_mb[..]);
        match &self.probe_plan {
            Some(plan) => next_batched(store, step, plan, size, anchor, granted, avail),
            None => next_probe(store, step, size, anchor, granted, avail),
        }
    }
}

/// Direction guard on the LP result: under the §3 monotonicity assumption a
/// too-slow class can only be helped by *more* total dedicated memory and a
/// too-fast one by *less*. An LP solution moving the total the wrong way
/// exposes a noise-corrupted plane; rather than follow it, take a
/// conservative step in the known-correct direction (grow by half the
/// remaining headroom, shrink by a quarter), preserving the per-node shape
/// where possible.
fn monotone_guard(lp_alloc: Vec<f64>, current: &[f64], avail: &[f64], too_slow: bool) -> Vec<f64> {
    let cur_total: f64 = current.iter().sum();
    let new_total: f64 = lp_alloc.iter().sum();
    let eps = 1e-6;
    if too_slow && new_total < cur_total + eps {
        let headroom: f64 = avail
            .iter()
            .zip(current)
            .map(|(a, c)| (a - c).max(0.0))
            .sum();
        let grow = (0.5 * headroom).max((0.25 * cur_total).min(headroom));
        return distribute_delta(current, avail, grow);
    }
    if !too_slow && new_total > cur_total - eps {
        return distribute_delta(current, avail, -0.15 * cur_total);
    }
    lp_alloc
}

/// Adds `delta` MB (possibly negative) to `current`, spread equally over the
/// nodes that have headroom (growing) or allocation (shrinking), waterfilled
/// against the per-node bounds. Never shrinks a node below 0 or grows it
/// past its bound, so a negative `delta` from an empty allocation is a no-op.
pub(crate) fn distribute_delta(current: &[f64], avail: &[f64], delta: f64) -> Vec<f64> {
    let mut alloc = current.to_vec();
    let mut remaining = delta.abs();
    for _ in 0..current.len() {
        if remaining <= 1e-12 {
            break;
        }
        let open: Vec<usize> = (0..alloc.len())
            .filter(|&i| {
                if delta > 0.0 {
                    alloc[i] < avail[i] - 1e-12
                } else {
                    alloc[i] > 1e-12
                }
            })
            .collect();
        if open.is_empty() {
            break;
        }
        let share = remaining / open.len() as f64;
        for &i in &open {
            let step = if delta > 0.0 {
                share.min(avail[i] - alloc[i])
            } else {
                share.min(alloc[i])
            };
            alloc[i] += step * delta.signum();
            remaining -= step;
        }
    }
    alloc
}

/// Trust region on memory release: growing dedicated memory is urgent (an
/// SLA is being missed) and may jump, but releasing it is charity for the
/// no-goal class — and the linear plane extrapolates poorly far below the
/// operating point on a convex response-time curve. Release at most 15 %
/// per step, which bounds the grow/release limit-cycle amplitude around
/// tight goals well below the memory difference that separates neighbouring
/// goal levels.
fn release_trust_region(lp_alloc: Vec<f64>, current: &[f64]) -> Vec<f64> {
    let cur_total: f64 = current.iter().sum();
    let new_total: f64 = lp_alloc.iter().sum();
    let floor = 0.85 * cur_total;
    if new_total >= floor || cur_total <= 0.0 {
        return lp_alloc;
    }
    // Blend toward the current allocation until the total reaches the floor.
    let lambda = (floor - new_total) / (cur_total - new_total);
    lp_alloc
        .iter()
        .zip(current)
        .map(|(x, c)| x + lambda * (c - x))
        .collect()
}

/// λ-weighted mean response time over the latest per-node observations
/// (Eq. 4's weighting), skipping nodes without data.
fn weighted_rt(latest: &[Option<AgentObservation>]) -> Option<f64> {
    let mut num = 0.0;
    let mut den = 0.0;
    for obs in latest.iter().flatten() {
        if let Some(rt) = obs.mean_rt_ms {
            let w = obs.arrival_rate_per_ms.max(1e-12);
            num += w * rt;
            den += w;
        }
    }
    if den > 0.0 {
        Some(num / den)
    } else {
        None
    }
}

/// Merges the latest per-node response-time histograms and extracts the
/// `q`-quantile in milliseconds. `None` if no node has histogram data.
/// Histogram merge is associative and commutative, so the node-order fold
/// here yields the same quantile any other merge order would — the
/// thread-invariance of tail metrics rests on exactly this property.
fn merged_quantile_ms(
    latest: &[Option<AgentObservation>],
    q: f64,
    merged: &mut Histogram,
) -> Option<f64> {
    merged.reset();
    for obs in latest.iter().flatten() {
        if let Some(h) = &obs.rt_hist {
            merged.merge(h);
        }
    }
    merged.quantile(q).map(|ns| ns as f64 / 1e6)
}

/// System-wide miss rate of the class's pools, if any accesses occurred.
fn aggregate_miss_rate(latest: &[Option<AgentObservation>]) -> Option<f64> {
    let mut acc = 0u64;
    let mut hits = 0u64;
    for obs in latest.iter().flatten() {
        acc += obs.pool_accesses;
        hits += obs.pool_hits;
    }
    if acc == 0 {
        None
    } else {
        Some(1.0 - hits as f64 / acc as f64)
    }
}

/// Warm-up probing (§5(b)): a base allocation, then one perturbed node per
/// step; steps that would not extend the measure store's rank are skipped,
/// and once rank is complete (but the fit still failed) the current
/// allocation is perturbed instead.
///
/// At start-up (`anchor` is `None`) the base is the classic low quarter-node
/// fraction. After a workload-shift store clear the base is the allocation
/// captured at clear time, so re-learning the response-time surface does not
/// destroy a working partitioning in the meantime. The anchor is a fixed
/// snapshot rather than the live grant: probe steps stack their perturbation
/// on the base, and a live anchor would absorb each step's perturbation and
/// ratchet the allocation toward the cap.
fn next_probe(
    store: &MeasureStore,
    probe_step: &mut usize,
    node_size_mb: f64,
    anchor: Option<&[f64]>,
    granted: &[f64],
    avail: &[f64],
) -> Vec<f64> {
    let nodes = granted.len();
    let low = 0.25 * node_size_mb;
    let base: Vec<f64> = match anchor {
        Some(a) => a.iter().map(|&g| g.max(low)).collect(),
        None => vec![low; nodes],
    };
    for _ in 0..=nodes {
        let step = *probe_step % (nodes + 1);
        *probe_step += 1;
        let mut alloc = base.clone();
        if step > 0 {
            // A large perturbation: the response-time difference it causes
            // must stand clear of per-interval measurement noise, or the
            // fitted gradients are meaningless.
            alloc[step - 1] += 0.5 * node_size_mb;
        }
        for (a, &cap) in alloc.iter_mut().zip(avail) {
            *a = a.min(cap);
        }
        if store.would_extend_rank(&alloc) {
            return alloc;
        }
    }
    // Rank is complete but the optimization could not use it (degenerate
    // fit): nudge one node to produce fresh data. Nodes without headroom
    // (crashed: avail 0) are skipped — a nudge there changes nothing.
    let mut alloc = granted.to_vec();
    for _ in 0..nodes {
        let i = *probe_step % nodes;
        *probe_step += 1;
        if avail[i] <= 1e-9 {
            continue;
        }
        alloc[i] = if alloc[i] + 0.3 * node_size_mb <= avail[i] {
            alloc[i] + 0.3 * node_size_mb
        } else {
            (alloc[i] - 0.3 * node_size_mb).max(0.0)
        };
        break;
    }
    alloc
}

/// Batched warm-up probing: walks the precomputed sign-orthogonal plan
/// ([`batched_probe_deltas`]) instead of perturbing one node per step. The
/// anchor-or-low base rule matches [`next_probe`]; the probe magnitude is
/// `0.25 · node_size`, which the start-up base of `0.25 · node_size` per
/// node can always absorb downward, so ±1 plan entries never clamp at zero.
/// Rows that fail the rank gate anyway (clamping against per-node caps, a
/// degraded topology freezing columns) are skipped, and when the whole plan
/// is exhausted the sequential prober takes over as the safety net.
fn next_batched(
    store: &MeasureStore,
    probe_step: &mut usize,
    plan: &[Vec<f64>],
    node_size_mb: f64,
    anchor: Option<&[f64]>,
    granted: &[f64],
    avail: &[f64],
) -> Vec<f64> {
    let nodes = granted.len();
    let low = 0.25 * node_size_mb;
    let base: Vec<f64> = match anchor {
        Some(a) => a.iter().map(|&g| g.max(low)).collect(),
        None => vec![low; nodes],
    };
    // The unperturbed base is the plan's affine origin — measure it first.
    if store.would_extend_rank(&base) {
        let mut alloc = base;
        for (a, &cap) in alloc.iter_mut().zip(avail) {
            *a = a.min(cap);
        }
        return alloc;
    }
    let scale = 0.25 * node_size_mb;
    for _ in 0..plan.len() {
        let row = &plan[*probe_step % plan.len()];
        *probe_step += 1;
        let alloc = apply_probe_delta(&base, row, scale, avail);
        if store.would_extend_rank(&alloc) {
            return alloc;
        }
    }
    next_probe(store, probe_step, node_size_mb, anchor, granted, avail)
}

/// Expands a live-subspace vector back to full topology width, zero at the
/// dead indices. Identity when nothing is down.
fn expand_to_topology(reduced: Vec<f64>, live_idx: &[usize], nodes: usize) -> Vec<f64> {
    if reduced.len() == nodes {
        return reduced;
    }
    let mut full = vec![0.0; nodes];
    for (v, &i) in reduced.iter().zip(live_idx) {
        full[i] = *v;
    }
    full
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(node: u16, class: u16, rt: Option<f64>, rate: f64) -> AgentObservation {
        AgentObservation {
            node: NodeId(node),
            class: ClassId(class),
            mean_rt_ms: rt,
            rt_hist: None,
            completions: rt.map_or(0, |_| 10),
            arrival_rate_per_ms: rate,
            pool_accesses: 100,
            pool_hits: 60,
            granted_pages: 0,
            avail_pages: 512,
        }
    }

    fn coordinator(goal: f64) -> Coordinator {
        let paper = ControllerKind::Hyperplane {
            objective: Objective::MinNoGoalRt,
        };
        Coordinator::new(ClassId(1), NodeId(0), 3, 2.0, goal, paper)
    }

    #[test]
    fn no_data_no_action() {
        let mut c = coordinator(5.0);
        let out = c.check(SimTime::ZERO);
        assert_eq!(out.satisfied, None);
        assert_eq!(out.new_alloc_mb(), None);
    }

    #[test]
    fn weighted_mean_uses_arrival_rates() {
        let mut c = coordinator(5.0);
        c.on_report(&obs(0, 1, Some(10.0), 0.03));
        c.on_report(&obs(1, 1, Some(4.0), 0.01));
        // Node 2 has no data: skipped.
        let out = c.check(SimTime::ZERO);
        let expect = (0.03 * 10.0 + 0.01 * 4.0) / 0.04;
        assert!((out.observed_class_ms.expect("data") - expect).abs() < 1e-9);
    }

    #[test]
    fn satisfied_goal_takes_no_action() {
        let mut c = coordinator(10.0);
        for n in 0..3 {
            c.on_report(&obs(n, 1, Some(10.2), 0.02));
        }
        let out = c.check(SimTime::ZERO);
        assert_eq!(out.satisfied, Some(true));
        assert!(out.new_alloc_mb().is_none());
        assert_eq!(c.optimizations(), 0);
    }

    #[test]
    fn violation_triggers_probing_until_full_rank() {
        let mut c = coordinator(2.0);
        // The first check observes the cold system and only settles.
        for n in 0..3 {
            c.on_report(&obs(n, 1, Some(9.0), 0.02));
        }
        assert!(c.check(SimTime::ZERO).new_alloc_mb().is_none());
        let mut seen = Vec::new();
        // Keep reporting a violating RT; coordinator probes a new
        // partitioning each interval.
        for i in 1..5u64 {
            for n in 0..3 {
                c.on_report(&obs(n, 1, Some(9.0 + i as f64), 0.02));
            }
            let out = c.check(SimTime::from_nanos(i * 10_000_000_000));
            let alloc = out.new_alloc_mb().expect("violated goal must act").to_vec();
            seen.push(alloc.clone());
            // Pretend grants succeeded exactly.
            for n in 0..3 {
                c.on_granted(NodeId(n), (alloc[n as usize] * PAGES_PER_MB) as usize, 512);
            }
            // The settling checks after each change take no action.
            for j in 1..=2 {
                let settle = c.check(SimTime::from_nanos(i * 10_000_000_000 + j * 2_000_000_000));
                assert!(settle.new_alloc_mb().is_none(), "settling check must wait");
            }
        }
        // The four probe allocations must be pairwise distinct.
        for i in 0..seen.len() {
            for j in i + 1..seen.len() {
                assert_ne!(seen[i], seen[j], "probes must differ");
            }
        }
    }

    #[test]
    fn full_rank_produces_lp_solution() {
        let mut c = coordinator(4.0);
        for n in 0..3 {
            c.on_report(&obs(n, 1, Some(10.0), 0.02));
        }
        assert!(
            c.check(SimTime::from_nanos(1)).new_alloc_mb().is_none(),
            "cold settle"
        );
        // Hand-feed 4 independent measure points through the public API:
        // each round: grant an allocation, report RTs consistent with
        // RT = 10 − 2·Σx plus node weighting, check.
        let allocs = [
            vec![0.5, 0.5, 0.5],
            vec![1.0, 0.5, 0.5],
            vec![0.5, 1.0, 0.5],
            vec![0.5, 0.5, 1.0],
        ];
        let rt = |a: &[f64]| 10.0 - 2.0 * a.iter().sum::<f64>();
        let mut t = 0u64;
        let mut check = |c: &mut Coordinator| {
            t += 5_000_000_000;
            c.check(SimTime::from_nanos(t))
        };
        let mut last = None;
        for a in allocs.iter() {
            for n in 0..3 {
                c.on_granted(NodeId(n), (a[n as usize] * PAGES_PER_MB) as usize, 512);
                let mut o = obs(n, 1, Some(rt(a)), 0.02);
                o.granted_pages = (a[n as usize] * PAGES_PER_MB) as usize;
                c.on_report(&o);
            }
            // Also feed no-goal data so the objective has a plane.
            for n in 0..3 {
                c.on_report(&obs(n, 0, Some(3.0 + a.iter().sum::<f64>()), 0.02));
            }
            // Run checks until one acts (settling checks defer).
            last = None;
            for _ in 0..3 {
                let out = check(&mut c);
                if out.new_alloc_mb().is_some() {
                    last = out.new_alloc_mb().map(<[f64]>::to_vec);
                    break;
                }
            }
        }
        // Full rank now: the LP should land on Σx = 3 (RT 4.0).
        let alloc = last.expect("still violated");
        let total: f64 = alloc.iter().sum();
        assert!(
            (total - 3.0).abs() < 0.05,
            "LP should meet the goal: Σ={total} alloc={alloc:?}"
        );
    }

    #[test]
    fn quantile_metric_drives_the_check_off_the_merged_histogram() {
        let mut c = coordinator(10.0);
        c.set_goal_metric(GoalMetric::Quantile { q: 0.95 });
        // Two nodes with fast means but a heavy tail on node 1: the p95
        // violates the 10 ms goal even though the mean is comfortably under.
        for n in 0..3u16 {
            let mut o = obs(n, 1, Some(4.0), 0.02);
            let mut h = rt_histogram();
            for _ in 0..90 {
                h.record(3_000_000); // 3 ms
            }
            for _ in 0..10 {
                h.record(40_000_000); // 40 ms tail — more than 5 % of mass
            }
            o.rt_hist = Some(h);
            c.on_report(&o);
        }
        let settle = c.check(SimTime::ZERO); // cold settle
        assert!(settle.settling);
        let out = c.check(SimTime::from_nanos(5_000_000_000));
        let p95 = out.observed_quantile_ms.expect("quantile observed");
        assert!(p95 > 10.0, "tail is over goal: {p95}");
        assert!((out.observed_class_ms.unwrap() - 4.0).abs() < 1e-9);
        assert_eq!(out.satisfied, Some(false), "p95 violation despite mean");
        assert!(out.new_alloc_mb().is_some(), "quantile violation must act");
        assert_eq!(c.last_quantile_ms(), Some(p95));
    }

    #[test]
    fn mean_metric_ignores_histograms() {
        let mut c = coordinator(10.0);
        for n in 0..3u16 {
            let mut o = obs(n, 1, Some(10.0), 0.02);
            let mut h = rt_histogram();
            h.record(400_000_000); // would violate wildly if consulted
            o.rt_hist = Some(h);
            c.on_report(&o);
        }
        c.check(SimTime::ZERO);
        let out = c.check(SimTime::from_nanos(5_000_000_000));
        assert_eq!(out.observed_quantile_ms, None);
        assert_eq!(out.satisfied, Some(true));
    }

    #[test]
    fn goal_change_resets_tolerance() {
        let mut c = coordinator(5.0);
        for n in 0..3 {
            c.on_report(&obs(n, 1, Some(5.0), 0.02));
        }
        c.check(SimTime::ZERO); // settling check (cold start)
        c.check(SimTime::from_nanos(5_000_000_000));
        assert!(c.tol.observations() > 0);
        c.set_goal(3.0);
        assert_eq!(c.goal_ms(), 3.0);
        assert_eq!(c.tol.observations(), 0);
    }

    #[test]
    fn fixed_strategy_never_acts() {
        for fixed in [
            ControllerKind::Static { fraction: 0.25 },
            ControllerKind::None,
        ] {
            let mut c = Coordinator::new(ClassId(1), NodeId(0), 2, 2.0, 1.0, fixed);
            for n in 0..2 {
                c.on_report(&obs(n, 1, Some(50.0), 0.02));
            }
            let out = c.check(SimTime::ZERO);
            assert_eq!(out.satisfied, Some(false));
            assert!(out.new_alloc_mb().is_none());
        }
    }

    #[test]
    fn node_down_clears_view_and_ignores_stragglers() {
        let mut c = coordinator(5.0);
        for n in 0..3 {
            c.on_report(&obs(n, 1, Some(9.0), 0.02));
            c.on_granted(NodeId(n), 256, 512);
        }
        c.node_down(NodeId(2));
        assert_eq!(c.live_nodes(), 2);
        assert_eq!(c.granted_mb()[2], 0.0);
        // A straggler report from the dead node must not resurrect it.
        c.on_report(&obs(2, 1, Some(9.0), 0.02));
        assert_eq!(c.granted_mb()[2], 0.0);
        c.node_down(NodeId(2)); // idempotent
        assert_eq!(c.live_nodes(), 2);
        c.node_up(NodeId(2));
        assert_eq!(c.live_nodes(), 3);
        assert_eq!(c.granted_mb()[2], 0.0, "cold rejoin: nothing granted");
    }

    #[test]
    fn degraded_topology_reaches_reduced_rank_and_solves_on_survivors() {
        let mut c = coordinator(4.0);
        c.node_down(NodeId(2));
        // Feed measure points that only span the two survivors; rank target
        // is now 2+1, so the LP must engage without node 2's axis. Four
        // distinct allocations cycled at a period coprime to the settling
        // cadence, so successive recorded points differ.
        let allocs = [
            vec![0.5, 0.5, 0.0],
            vec![1.0, 0.5, 0.0],
            vec![0.5, 1.0, 0.0],
            vec![1.0, 1.0, 0.0],
        ];
        let rt = |a: &[f64]| 10.0 - 3.0 * a.iter().sum::<f64>();
        let mut t = 0u64;
        let mut last = None;
        for a in allocs.iter().cycle().take(16) {
            for n in 0..2 {
                c.on_granted(NodeId(n), (a[n as usize] * PAGES_PER_MB) as usize, 512);
                let mut o = obs(n, 1, Some(rt(a)), 0.02);
                o.granted_pages = (a[n as usize] * PAGES_PER_MB) as usize;
                c.on_report(&o);
                c.on_report(&obs(n, 0, Some(3.0), 0.02));
            }
            t += 5_000_000_000;
            let out = c.check(SimTime::from_nanos(t));
            if let Some(alloc) = out.new_alloc_mb() {
                assert_eq!(alloc.len(), 3);
                assert_eq!(alloc[2], 0.0, "dead node must get nothing");
                if out.optimize.as_ref().is_some_and(|o| o.path == "lp") {
                    last = Some(alloc.to_vec());
                }
            }
        }
        // RT = 10 − 3·Σx = 4 ⇒ Σx = 2 over the survivors.
        let alloc = last.expect("LP must engage at reduced rank");
        let total: f64 = alloc.iter().sum();
        assert!((total - 2.0).abs() < 0.1, "Σ={total} alloc={alloc:?}");
    }

    #[test]
    fn batched_probing_extends_rank_every_probe() {
        let nodes = 4;
        let mut store = MeasureStore::new(nodes);
        let plan = batched_probe_deltas(nodes, 2);
        let mut step = 0;
        let granted = vec![0.0; nodes];
        let avail = vec![2.0; nodes];
        // Anchor + the 4 plan rows: full rank in exactly N+1 probes, each
        // one pre-validated by the rank gate.
        for i in 0..=nodes {
            let alloc = next_batched(&store, &mut step, &plan, 2.0, None, &granted, &avail);
            assert!(store.would_extend_rank(&alloc), "probe {i} wasted");
            store.record(alloc, 10.0 - i as f64, 3.0, SimTime::ZERO);
        }
        assert!(store.has_full_rank());
    }

    #[test]
    fn residual_is_measured_against_the_issued_allocation() {
        use dmm_linalg::Hyperplane;
        // Node 0 buys 10 ms per MB, nodes 1 and 2 one each, and memory on
        // nodes 1/2 hurts the no-goal class: to cut 4 ms the LP moves
        // everything onto node 0 and shrinks the total (3 → 1.6 MB). The
        // class is too slow, so the monotone guard overrides that with a
        // grow step to 1.5 MB on every node.
        let planes = Planes {
            class: Hyperplane {
                w: vec![-10.0, -1.0, -1.0],
                c: 30.0,
            },
            nogoal: Hyperplane {
                w: vec![0.0, 5.0, 5.0],
                c: 3.0,
            },
        };
        let mut c = coordinator(14.0);
        c.warm_start(&planes, SimTime::ZERO);
        let mut t = 0u64;
        // Reports on-plane measurements at `alloc` (observed class RT
        // `rt`), then checks.
        let mut round = |c: &mut Coordinator, alloc: &[f64], rt: f64| {
            for n in 0..3 {
                let mut o = obs(n, 1, Some(rt), 0.02);
                o.granted_pages = (alloc[n as usize] * PAGES_PER_MB) as usize;
                c.on_report(&o);
                c.on_report(&obs(n, 0, Some(planes.predict_nogoal_ms(alloc)), 0.02));
            }
            t += 5_000_000_000;
            c.check(SimTime::from_nanos(t))
        };
        let current = [1.0, 1.0, 1.0];
        let at_current = planes.predict_class_ms(&current); // 18 ms
        assert!(round(&mut c, &current, at_current).settling, "cold settle");
        let out = round(&mut c, &current, at_current);
        let issued = out.new_alloc_mb().expect("guarded grow step").to_vec();
        let trace = out.optimize.expect("too slow: optimized");
        assert_eq!(trace.path, "lp");
        for x in &issued {
            assert!((x - 1.5).abs() < 1e-9, "monotone guard step: {issued:?}");
        }
        // The plane at the issued allocation, not the LP's goal-meeting
        // proposal (which predicts the 14 ms goal).
        let predicted = trace.predicted_class_ms.expect("lp path predicts");
        assert!((predicted - 12.0).abs() < 1e-9, "predicted {predicted}");
        // Two settling checks, then the residual is realized.
        let observed = 13.0;
        let mut residual = None;
        for _ in 0..3 {
            residual = round(&mut c, &issued, observed).prediction_residual_ms;
        }
        let residual = residual.expect("realized after settling");
        assert!((residual - (observed - 12.0)).abs() < 1e-9, "{residual}");
        assert_eq!(c.residual_ewma_ms(), Some(residual));
    }

    #[test]
    fn warm_start_seeds_full_rank_and_retains_the_donor() {
        use dmm_linalg::Hyperplane;
        let mut c = coordinator(5.0);
        let planes = Planes {
            class: Hyperplane {
                w: vec![-2.0, -2.0, -2.0],
                c: 18.0,
            },
            nogoal: Hyperplane {
                w: vec![0.5, 0.5, 0.5],
                c: 3.0,
            },
        };
        c.warm_start(&planes, SimTime::ZERO);
        let donor = c.fitted_planes().expect("donor retained");
        assert_eq!(donor.class.w, vec![-2.0, -2.0, -2.0]);
        assert!(c.store.has_full_rank(), "warm start must reach full rank");
        // The seeded points lie exactly on the donor plane, so the first
        // real fit reproduces it.
        let refit = fit_planes(&c.store.fit_points()).expect("fit");
        for (w, expect) in refit.class.w.iter().zip(&planes.class.w) {
            assert!((w - expect).abs() < 1e-6);
        }
        assert!((refit.class.c - planes.class.c).abs() < 1e-6);
    }
}
