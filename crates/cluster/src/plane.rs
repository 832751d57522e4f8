//! The data plane: event-driven execution of operations on the cluster.
//!
//! Every stage of a page access — lookup CPU, request messages, serve CPU at
//! the home or a caching holder, disk read, page shipment, install CPU —
//! reserves its FCFS facility *at the simulated instant the work arrives
//! there*, so queueing delays and contention are modelled faithfully. The
//! plane emits [`StepOutput`]s containing the events to schedule next plus
//! any operation completion; the embedding simulator (the `dmm-core`
//! system) owns the event loop and forwards [`ClusterEvent`]s back in.
//!
//! Protocol (read-only workload, §3):
//!
//! ```text
//! lookup at origin ──hit──▶ done (§6 may migrate the page between pools)
//!    │ miss
//!    ├─ origin is home ─ holder exists ──▶ request→holder ─ serve ─ ship ─▶ install
//!    │                 └ no copy     ───▶ local disk ────────────────────▶ install
//!    └─ otherwise ───────▶ request→home ─ serve ┬ home caches → ship ────▶ install
//!                                               ├ holder known → forward ▶ (as above)
//!                                               └ none → home disk → ship▶ install
//! ```
//!
//! A holder that evicted the page while a forward was in flight bounces the
//! request back to the home; after one bounce the home reads from disk
//! unconditionally, so every access terminates.

use dmm_buffer::{
    ClassId, NodeHeat, PageId, PolicySpec, PoolStats, TieredAccess, TieredBuffer, NO_GOAL,
};
use dmm_obs::{Histogram, Stage, StageNanos, STAGES};
use dmm_sim::{Facility, SimDuration, SimTime, SlotArena, SlotKey};

use crate::costs::{AccessCosts, CostSlot};
use crate::directory::Directory;
use crate::disk::Disk;
use crate::fault::FaultPlan;
use crate::homes::Homes;
use crate::ids::{NodeId, OpId};
use crate::network::{Network, TrafficKind};
use crate::op::{OpCompletion, Operation};
use crate::params::ClusterParams;
use crate::ring::MAX_RING_REPLICAS;

mod pricing;
pub use pricing::{RepriceStats, VictimAudit};

/// Node CPU speed in millions of instructions per second (§7.1).
const MIPS: u64 = 100;

/// CPU time of `instr` instructions at [`MIPS`].
const fn cpu_time(instr: u64) -> SimDuration {
    SimDuration::from_nanos(instr * 1_000 / MIPS)
}

/// Buffer lookup and hit bookkeeping per page access: 3 000 instructions.
pub(crate) const LOOKUP_CPU: SimDuration = cpu_time(3_000);
/// Handling one incoming request or forward at a serving node: 5 000
/// instructions.
pub(crate) const SERVE_CPU: SimDuration = cpu_time(5_000);
/// Installing a fetched page (frame copy and bookkeeping): 3 000
/// instructions.
pub(crate) const INSTALL_CPU: SimDuration = cpu_time(3_000);

/// Relative change of a page's global heat that triggers a dissemination
/// message to its home (threshold-based protocol of \[27, 26\]).
const HEAT_PUBLISH_THRESHOLD: f64 = 0.2;

/// Events of the access protocol. The embedding simulator schedules these at
/// the instants returned in [`StepOutput::schedule`].
///
/// Each names its operation by the key of the operation's slot in the
/// plane's in-flight arena, so every protocol step reaches the operation's
/// state by indexing. An event whose operation was aborted meanwhile carries
/// an outdated generation and is swallowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterEvent {
    /// Lookup CPU finished at the origin; consult the local buffer.
    Lookup {
        /// Operation's in-flight slot.
        op: SlotKey,
    },
    /// Request message delivered at the page's home node.
    ReqAtHome {
        /// Operation's in-flight slot.
        op: SlotKey,
    },
    /// Home CPU finished; decide serve / forward / disk.
    ServeAtHome {
        /// Operation's in-flight slot.
        op: SlotKey,
    },
    /// Forward delivered at a caching holder.
    ReqAtHolder {
        /// Operation's in-flight slot.
        op: SlotKey,
        /// The node the forward targeted.
        holder: NodeId,
    },
    /// Holder CPU finished; ship the page or bounce to home.
    ServeAtHolder {
        /// Operation's in-flight slot.
        op: SlotKey,
        /// The serving node.
        holder: NodeId,
    },
    /// Home disk read finished; ship the page to the origin.
    DiskDone {
        /// Operation's in-flight slot.
        op: SlotKey,
    },
    /// Page delivered at the origin; reserve install CPU.
    PageArrived {
        /// Operation's in-flight slot.
        op: SlotKey,
        /// Cost slot of the storage level that served this access (for
        /// cost estimation).
        level: CostSlot,
    },
    /// Install CPU finished; install the page and advance the operation.
    AccessDone {
        /// Operation's in-flight slot.
        op: SlotKey,
        /// Cost slot of the storage level that served this access.
        level: CostSlot,
    },
}

/// What the data plane wants done after handling one event.
///
/// Every protocol step schedules at most one follow-up event, so `schedule`
/// is an `Option` rather than a `Vec`: a `Vec` here costs one heap
/// allocation and free per simulated event, which is pure overhead on the
/// event-loop hot path. (`Option` is `IntoIterator`, so consumers loop over
/// it exactly as they would a vector.)
#[derive(Debug, Default)]
pub struct StepOutput {
    /// The event to schedule, with its absolute instant, if any.
    pub schedule: Option<(SimTime, ClusterEvent)>,
    /// An operation that finished in this step, if any.
    pub completed: Option<OpCompletion>,
}

impl StepOutput {
    fn at(mut self, t: SimTime, e: ClusterEvent) -> Self {
        debug_assert!(self.schedule.is_none(), "one follow-up event per step");
        self.schedule = Some((t, e));
        self
    }
}

/// Per-node simulated state.
#[derive(Debug, Clone)]
struct NodeState {
    cpu: Facility,
    disk: Disk,
    buffer: TieredBuffer,
    /// Heat bookkeeping of every database page; an untouched page reads 0.
    heat: NodeHeat,
    /// One FCFS facility per memory tier beyond tier 0, modelling the
    /// tier's (possibly bandwidth-capped) transfer channel. Empty for the
    /// default single-memory-tier ladder.
    tier_fac: Vec<Facility>,
}

#[derive(Debug, Clone)]
struct OpState {
    op: Operation,
    next_idx: usize,
    access_start: SimTime,
    bounced: bool,
    /// Home node the current access was routed to, fixed at lookup time so
    /// a mid-flight replication retarget cannot redirect the protocol.
    home: NodeId,
    /// Per-stage nanoseconds accumulated so far (all zero when spans are
    /// off).
    stages: StageNanos,
    /// FCFS wait of the current access's lookup reservation; attributed to
    /// a stage only once the hit/miss outcome is known at lookup time.
    lookup_wait_ns: u64,
    /// Full duration (wait + service) of the current access's lookup
    /// reservation.
    lookup_total_ns: u64,
}

/// Degradation counters of the fault-injection layer (DESIGN.md §6).
/// Exposed via [`DataPlane::fault_stats`] and as `cluster.fault.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Node crashes injected.
    pub crashes: u64,
    /// Node restarts injected.
    pub restarts: u64,
    /// Pages whose *only* cached copy lived on a crashed node — lost from
    /// aggregate memory; their next access is a forced disk re-read.
    pub last_copy_losses: u64,
    /// In-flight operations aborted because their origin node crashed.
    pub ops_aborted: u64,
    /// Reads served from the origin's local disk because the page's home
    /// was down (the shared-disk mirror path).
    pub mirror_reads: u64,
}

/// Per-node home-placement load: how many pages call each node home and how
/// much home-request traffic it absorbed. Snapshot via
/// [`DataPlane::home_load`] (or refilled in place by
/// [`DataPlane::fill_home_load`]); also exported as
/// `cluster.node{n}.home_*` metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HomeLoad {
    /// Pages whose home set includes the node (a replicated page counts at
    /// every one of its homes).
    pub home_pages: Vec<u32>,
    /// Home-miss requests routed to the node since the last stats reset.
    pub home_reads: Vec<u64>,
    /// Of those, requests originating at a *different* node — the remote
    /// read fan-in a hot page concentrates on its home(s).
    pub remote_fanin: Vec<u64>,
}

/// Cumulative counters captured at a stats reset.
#[derive(Debug, Clone, Default)]
struct StatsBase {
    accesses: u64,
    completions: u64,
    level_observations: Vec<u64>,
}

/// The simulated NOW: nodes, network, directory, cost model, and the §6
/// replacement integration.
#[derive(Debug, Clone)]
pub struct DataPlane {
    params: ClusterParams,
    nodes: Vec<NodeState>,
    network: Network,
    directory: Directory,
    homes: Homes,
    costs: AccessCosts,
    /// Operations in flight, addressed by the keys their events carry.
    inflight: SlotArena<OpState>,
    completions: u64,
    accesses: u64,
    /// `accesses`, `completions` and the per-slot cost observations as they
    /// stood at the last [`DataPlane::reset_stats`]: the snapshot counts
    /// from there, while the accessors stay cumulative.
    stats_base: StatsBase,
    /// Observation-interval sequence number; `epoch + 1` stamps the
    /// directory's per-page global-heat memo, and the stamp also dates a
    /// last copy's pricing for [`pricing::LAST_COPY_HORIZON`].
    epoch: u64,
    /// Benefit-maintenance work counters.
    reprice_stats: RepriceStats,
    /// Reusable page-id buffer for full-pool repricing walks (avoids a Vec
    /// allocation per pool per sweep).
    sweep_scratch: Vec<PageId>,
    /// Cumulative per-node count of home-miss requests routed to the node.
    home_reads: Vec<u64>,
    /// Of those, requests whose origin was a different node.
    home_remote_reads: Vec<u64>,
    /// Per-interval per-page home-request counts driving the hot ring's
    /// replication retargeting (empty for static placements).
    page_home_reads: Vec<u32>,
    /// Sum of `page_home_reads` over the current interval.
    interval_home_reads: u64,
    /// Liveness mask: `up[i]` is false while node `i` is crashed.
    up: Vec<bool>,
    /// Degradation counters.
    fault_stats: FaultStats,
    /// Per-class (index 0 = no-goal) × per-stage response-time histograms,
    /// nanoseconds. Empty unless spans are enabled.
    span_hists: Vec<[Histogram; STAGES]>,
    /// Per-class sum of completed-op response times in nanoseconds — the
    /// integer-exact companion the stage histograms must add up to.
    span_response_ns: Vec<u64>,
    /// Per-class *total* response-time histograms, nanoseconds (arrival to
    /// completion, all stages included). Empty unless spans are enabled.
    /// The tail distribution of an op is not recoverable from the per-stage
    /// histograms — stages of one op land in different buckets — so tail
    /// studies need the end-to-end distribution collected directly.
    resp_hists: Vec<Histogram>,
    /// Service time per memory tier beyond tier 0 (hit latency plus the
    /// page-transfer term when bandwidth-capped); index `t - 1` for tier
    /// `t`. Empty for the default ladder.
    tier_service: Vec<SimDuration>,
}

impl DataPlane {
    /// Builds an idle cluster from `params`. Panics on a configuration no
    /// run could survive: no nodes, an invalid placement, or a span sampling
    /// divisor of 0.
    pub fn new(params: ClusterParams) -> Self {
        assert!(params.nodes > 0);
        assert!(
            params.spans.sample_every() != Some(0),
            "span sampling divisor must be at least 1, got 0"
        );
        let homes = Homes::from_spec(&params.placement, params.nodes, params.db_pages)
            .expect("invalid placement configuration");
        let tier_frames = params.memory_tier_frames();
        let tier_service: Vec<SimDuration> = params.tiers.tiers()[1..tier_frames.len()]
            .iter()
            .map(|t| t.service_time())
            .collect();
        let nodes = (0..params.nodes)
            .map(|_| NodeState {
                cpu: Facility::new("cpu"),
                disk: Disk::new(),
                buffer: TieredBuffer::with_db_pages(
                    &tier_frames,
                    params.goal_classes,
                    params.policy,
                    params.tier_policy,
                    params.db_pages as usize,
                ),
                heat: NodeHeat::new(params.db_pages as usize),
                tier_fac: (1..tier_frames.len())
                    .map(|_| Facility::new("tier"))
                    .collect(),
            })
            .collect();
        DataPlane {
            tier_service,
            network: Network::new(params.net, params.nodes),
            directory: Directory::new(params.db_pages, params.goal_classes, HEAT_PUBLISH_THRESHOLD),
            costs: AccessCosts::for_ladder(0.05, &params.tiers),
            inflight: SlotArena::new(),
            completions: 0,
            accesses: 0,
            stats_base: StatsBase::default(),
            epoch: 0,
            reprice_stats: RepriceStats::default(),
            sweep_scratch: Vec::new(),
            home_reads: vec![0; params.nodes],
            home_remote_reads: vec![0; params.nodes],
            page_home_reads: if homes.adapts_replication() {
                vec![0; params.db_pages as usize]
            } else {
                Vec::new()
            },
            interval_home_reads: 0,
            homes,
            up: vec![true; params.nodes],
            fault_stats: FaultStats::default(),
            span_hists: if params.spans.enabled() {
                (0..=params.goal_classes)
                    .map(|_| std::array::from_fn(|_| Histogram::exponential(1_000, 24)))
                    .collect()
            } else {
                Vec::new()
            },
            span_response_ns: vec![0; params.goal_classes + 1],
            resp_hists: if params.spans.enabled() {
                // Same fine log-linear layout the control plane's agents
                // use (10 µs – 10 s, 8 steps/octave): quantiles read from
                // either side of the system agree to bucket precision.
                (0..=params.goal_classes)
                    .map(|_| Histogram::log_linear(10_000, 10_000_000_000, 8))
                    .collect()
            } else {
                Vec::new()
            },
            params,
            nodes,
        }
    }

    /// Cluster configuration.
    pub fn params(&self) -> &ClusterParams {
        &self.params
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Operations currently in flight.
    pub fn inflight_ops(&self) -> usize {
        self.inflight.len()
    }

    /// Total page accesses started.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total operations completed.
    pub fn completions(&self) -> u64 {
        self.completions
    }

    /// Network reference (byte accounting, utilization).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Directory reference (copy counts, publish events).
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// Access-cost estimator.
    pub fn costs(&self) -> &AccessCosts {
        &self.costs
    }

    /// Number of local memory tiers per node.
    fn mem_tiers(&self) -> usize {
        self.costs.mem_tiers()
    }

    /// Cluster-wide occupancy per memory tier: `(tier name, resident
    /// pages, total frames)` summed over live and dead nodes alike (a
    /// crashed node's tiers read empty, its frames still count).
    pub fn tier_occupancy(&self) -> Vec<(String, u64, u64)> {
        (0..self.mem_tiers())
            .map(|t| {
                let (resident, frames) = self.tier_residency(t);
                (self.params.tiers.tiers()[t].name.clone(), resident, frames)
            })
            .collect()
    }

    /// Resident pages and frames of memory tier `tier`, summed over every
    /// node: one entry of [`DataPlane::tier_occupancy`], without the name.
    pub fn tier_residency(&self, tier: usize) -> (u64, u64) {
        let mut resident = 0u64;
        let mut frames = 0u64;
        for n in &self.nodes {
            resident += n.buffer.tier_resident(tier) as u64;
            frames += n.buffer.tier_frames(tier) as u64;
        }
        (resident, frames)
    }

    /// Benefit-maintenance work counters.
    pub fn reprice_stats(&self) -> &RepriceStats {
        &self.reprice_stats
    }

    /// Degradation counters.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    /// Page-home placement.
    pub fn homes(&self) -> &Homes {
        &self.homes
    }

    /// Per-node home-placement load snapshot: page counts from the current
    /// placement, traffic counters since the last stats reset.
    pub fn home_load(&self) -> HomeLoad {
        let mut load = HomeLoad::default();
        self.fill_home_load(&mut load);
        load
    }

    /// Refills `load` with the snapshot [`DataPlane::home_load`] returns,
    /// reusing its buffers: once they have grown to the node count, no
    /// allocation.
    pub fn fill_home_load(&self, load: &mut HomeLoad) {
        let home_pages = &mut load.home_pages;
        home_pages.clear();
        home_pages.resize(self.nodes.len(), 0);
        let mut buf = [0u16; MAX_RING_REPLICAS];
        for page in (0..self.params.db_pages).map(PageId) {
            let n = self.homes.homes_of(page, &mut buf);
            for &node in &buf[..n] {
                home_pages[node as usize] += 1;
            }
        }
        load.home_reads.clone_from(&self.home_reads);
        load.remote_fanin.clone_from(&self.home_remote_reads);
    }

    /// True while `node` is serving (not crashed).
    pub fn is_up(&self, node: NodeId) -> bool {
        self.up[node.index()]
    }

    /// Number of nodes currently up.
    pub fn live_nodes(&self) -> usize {
        self.up.iter().filter(|&&u| u).count()
    }

    /// Pool statistics of `class`'s pool at `node`.
    pub fn pool_stats(&self, node: NodeId, class: ClassId) -> PoolStats {
        self.nodes[node.index()].buffer.pool_stats(class)
    }

    /// Dedicated pages of `class` at `node`.
    pub fn dedicated_pages(&self, node: NodeId, class: ClassId) -> usize {
        self.nodes[node.index()].buffer.dedicated_pages(class)
    }

    /// Total dedicated bytes for `class` across all nodes.
    pub fn total_dedicated_bytes(&self, class: ClassId) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.buffer.dedicated_pages(class) as u64 * crate::params::PAGE_BYTES)
            .sum()
    }

    /// Disk read count of `node` since the last
    /// [`reset_stats`](Self::reset_stats) (from 0 before the first): the
    /// count restarts at the warm-up boundary, so a delta must not span it.
    pub fn disk_reads(&self, node: NodeId) -> u64 {
        self.nodes[node.index()].disk.reads()
    }

    /// The busiest disk's utilization over the statistics window (from 0 or
    /// the last [`reset_stats`](Self::reset_stats)) — with the shared
    /// LAN's [`Network::utilization`], the two capacity dials that decide
    /// whether a scaled-out configuration is feasible at all.
    pub fn max_disk_utilization(&self, now: SimTime) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.disk.utilization(now))
            .fold(0.0, f64::max)
    }

    /// Frames on `node` still available to `class`:
    /// `SIZEᵢ − Σ_{l≠class} LM_{l,i}` (paper Eq. 6).
    pub fn avail_pages(&self, node: NodeId, class: ClassId) -> usize {
        self.nodes[node.index()].buffer.avail_pages(class)
    }

    // -- span attribution --------------------------------------------------

    /// Whether per-op span accumulation is on. The disabled case is the
    /// single branch each attribution point pays.
    #[inline]
    fn spans_on(&self) -> bool {
        self.params.spans.enabled()
    }

    /// Adds `ns` to `stage` of `op`'s span. No-op when spans are off.
    #[inline]
    fn span_add(&mut self, op: SlotKey, stage: Stage, ns: u64) {
        if !self.spans_on() {
            return;
        }
        self.inflight[op].stages[stage.index()] += ns;
    }

    /// Attributes the deferred lookup segment once the hit/miss outcome is
    /// known: a hit's whole segment (queue + service) is the local-hit
    /// stage; a miss splits into pool-queue wait and CPU service.
    fn span_lookup_outcome(&mut self, op: SlotKey, hit: bool) {
        if !self.spans_on() {
            return;
        }
        let s = &mut self.inflight[op];
        let (wait, total) = (s.lookup_wait_ns, s.lookup_total_ns);
        if hit {
            s.stages[Stage::LocalHit.index()] += total;
        } else {
            s.stages[Stage::PoolQueue.index()] += wait;
            s.stages[Stage::Cpu.index()] += total - wait;
        }
    }

    /// Fills `snap` with the data plane's observability metrics: per-level
    /// access counts and cost estimates, network byte/message counters and
    /// medium queueing, aggregate disk and CPU queueing, and per-class pool
    /// accounting summed over nodes.
    pub fn fill_metrics(&self, snap: &mut dmm_obs::MetricsSnapshot, now: SimTime) {
        let base = &self.stats_base;
        snap.counter("cluster.accesses", self.accesses - base.accesses);
        snap.counter("cluster.completions", self.completions - base.completions);
        for (i, name) in self.params.tiers.slot_names().iter().enumerate() {
            let slot = CostSlot(i as u8);
            let before = base.level_observations.get(i).copied().unwrap_or(0);
            snap.counter(
                format!("cluster.level.{name}.accesses"),
                self.costs.observations(slot) - before,
            );
            snap.gauge(
                format!("cluster.level.{name}.est_ms"),
                self.costs.estimate_ms(slot),
            );
        }
        for (n, node) in self.nodes.iter().enumerate() {
            for t in 0..node.buffer.num_tiers() {
                let key = format!("cluster.node{n}.tier{t}");
                snap.gauge(format!("{key}.frames"), node.buffer.tier_frames(t) as f64);
                snap.gauge(
                    format!("{key}.resident"),
                    node.buffer.tier_resident(t) as f64,
                );
                snap.counter(format!("{key}.promotions"), node.buffer.promotions()[t]);
                snap.counter(format!("{key}.demotions"), node.buffer.demotions()[t]);
            }
        }

        let r = &self.reprice_stats;
        snap.counter("cluster.reprice.recomputes", r.recomputes);
        snap.counter("cluster.reprice.heap_retries", r.heap_retries);
        snap.counter("cluster.reprice.stale_marks", r.stale_marks);
        snap.counter("cluster.reprice.heat_cache_hits", r.heat_cache_hits);
        snap.counter("cluster.reprice.heat_cache_misses", r.heat_cache_misses);
        snap.counter("cluster.reprice.sweep_pages", r.sweep_pages);

        let f = &self.fault_stats;
        snap.counter("cluster.fault.crashes", f.crashes);
        snap.counter("cluster.fault.restarts", f.restarts);
        snap.counter("cluster.fault.last_copy_losses", f.last_copy_losses);
        snap.counter("cluster.fault.ops_aborted", f.ops_aborted);
        snap.counter("cluster.fault.mirror_reads", f.mirror_reads);
        snap.gauge("cluster.fault.live_nodes", self.live_nodes() as f64);

        let hl = self.home_load();
        for i in 0..self.nodes.len() {
            snap.gauge(
                format!("cluster.node{i}.home_pages"),
                hl.home_pages[i] as f64,
            );
            snap.counter(format!("cluster.node{i}.home_reads"), hl.home_reads[i]);
            snap.counter(
                format!("cluster.node{i}.home_remote_reads"),
                hl.remote_fanin[i],
            );
        }

        snap.counter("net.data_bytes", self.network.data_bytes());
        snap.counter("net.control_bytes", self.network.control_bytes());
        let (data_msgs, control_msgs) = self.network.message_counts();
        snap.counter("net.data_messages", data_msgs);
        snap.counter("net.control_messages", control_msgs);
        snap.gauge("net.utilization", self.network.utilization(now));
        snap.counter("net.dropped_messages", self.network.dropped_messages());
        snap.histogram("net.queue_wait_ns", self.network.wait_histogram());
        // Per-link gauges only exist on the switched fabric; shared-medium
        // snapshots keep the exact seed key set.
        if self.network.is_switched() {
            for i in 0..self.nodes.len() {
                let u = self.network.link_utilization(i, now).expect("switched");
                snap.gauge(format!("cluster.node{i}.net.tx_utilization"), u.tx);
                snap.gauge(format!("cluster.node{i}.net.rx_utilization"), u.rx);
            }
            if let Some(b) = self.network.bisection_utilization(now) {
                snap.gauge("net.bisection_utilization", b);
            }
        }

        let mut disk_wait = None;
        let mut cpu_wait = None;
        let mut disk_reads = 0u64;
        let mut stalled_reads = 0u64;
        for n in &self.nodes {
            disk_reads += n.disk.reads();
            stalled_reads += n.disk.stalled_reads();
            match &mut disk_wait {
                None => disk_wait = Some(n.disk.wait_counts().clone()),
                Some(w) => w.merge(n.disk.wait_counts()),
            }
            match &mut cpu_wait {
                None => cpu_wait = Some(n.cpu.wait_counts().clone()),
                Some(w) => w.merge(n.cpu.wait_counts()),
            }
        }
        snap.counter("disk.reads", disk_reads);
        snap.counter("disk.stalled_reads", stalled_reads);
        if let Some(w) = disk_wait {
            snap.histogram("disk.queue_wait_ns", w.to_histogram());
        }
        if let Some(w) = cpu_wait {
            snap.histogram("cpu.queue_wait_ns", w.to_histogram());
        }

        for c in 0..=self.params.goal_classes {
            let class = ClassId(c as u16);
            let mut stats = PoolStats::default();
            for n in &self.nodes {
                stats.merge(&n.buffer.pool_stats(class));
            }
            let key = format!("buffer.{}", class.metric_label());
            snap.counter(format!("{key}.hits"), stats.hits);
            snap.counter(format!("{key}.misses"), stats.misses);
            snap.counter(format!("{key}.insertions"), stats.insertions);
            snap.counter(format!("{key}.evictions"), stats.evictions);
            snap.counter(format!("{key}.resizes"), stats.resizes);
            snap.gauge(format!("{key}.hit_rate"), stats.hit_rate());
        }

        if self.spans_on() {
            for c in 0..=self.params.goal_classes {
                let class = ClassId(c as u16);
                let key = format!("span.{}", class.metric_label());
                snap.counter(format!("{key}.response_ns"), self.span_response_ns[c]);
                snap.histogram(
                    format!("{key}.response_time_ns"),
                    self.resp_hists[c].clone(),
                );
                for (field, hist) in Stage::FIELDS.iter().zip(&self.span_hists[c]) {
                    snap.histogram(format!("{key}.{field}"), hist.clone());
                }
            }
        }
    }

    /// Resets all measurement counters (pool stats, network bytes, disk,
    /// CPU and tier facility stats) after warm-up and starts the facilities'
    /// statistics window at `now`; simulation state is untouched.
    ///
    /// The snapshot's `cluster.accesses`, `cluster.completions` and
    /// `cluster.level.*.accesses` count from here too, against a baseline
    /// taken now, while [`Self::accesses`], [`Self::completions`] and the
    /// cost estimator's observation counts stay cumulative (callers take
    /// deltas of them). `cluster.fault.*` and `cluster.reprice.*` are
    /// lifetime counts, warm-up included.
    pub fn reset_stats(&mut self, now: SimTime) {
        self.stats_base = StatsBase {
            accesses: self.accesses,
            completions: self.completions,
            level_observations: (0..self.costs.num_slots())
                .map(|i| self.costs.observations(CostSlot(i as u8)))
                .collect(),
        };
        for n in &mut self.nodes {
            n.buffer.reset_stats();
            n.disk.reset_stats(now);
            n.cpu.reset_stats(now);
            for f in &mut n.tier_fac {
                f.reset_stats(now);
            }
        }
        self.network.reset_stats(now);
        self.home_reads.fill(0);
        self.home_remote_reads.fill(0);
        for hists in &mut self.span_hists {
            for h in hists.iter_mut() {
                h.reset();
            }
        }
        for h in &mut self.resp_hists {
            h.reset();
        }
        self.span_response_ns.fill(0);
    }

    /// Sends a goal-management (control-plane) message and returns its
    /// delivery instant. Same-node messages are free and instantaneous.
    pub fn send_control(&mut self, from: NodeId, to: NodeId, bytes: u64, now: SimTime) -> SimTime {
        if from == to {
            now
        } else {
            self.network
                .send(now, bytes, TrafficKind::Control, from, to)
        }
    }

    /// Applies a dedicated-buffer allocation for `class` at `node`
    /// (best-effort, §5(e)); returns the granted size in pages.
    pub fn apply_allocation(
        &mut self,
        node: NodeId,
        class: ClassId,
        pages: usize,
        now: SimTime,
    ) -> usize {
        if !self.up[node.index()] {
            // A crashed node grants nothing; the coordinator learns the node
            // is gone through its own liveness tracking.
            return 0;
        }
        // Resizing evicts in bulk through the replacement policy, so the
        // pool that is about to shrink gets one fresh pricing walk first —
        // bounded, and rare (resizes happen at most once per check phase
        // per class). The walk re-prices every entry, fresh ones included:
        // a bulk eviction picks many victims at once on decayed estimates,
        // with no victim loop to re-check them.
        if self.params.policy == PolicySpec::CostBased {
            // The shrinker, from set_dedicated's grant: capacities and
            // residencies summed over tiers (the fastest-first per-tier
            // split grants the same total).
            let buf = &self.nodes[node.index()].buffer;
            let avail = buf.avail_pages(class);
            let granted = pages.min(avail);
            let no_goal_cap = avail - granted;
            if buf.pool_len(class) > granted {
                self.reprice_pool(node, class, now);
            } else if buf.pool_len(NO_GOAL) > no_goal_cap {
                self.reprice_pool(node, NO_GOAL, now);
            }
        }
        let had = self.nodes[node.index()].buffer.has_dedicated(class);
        let (granted, evicted) = self.nodes[node.index()].buffer.set_dedicated(class, pages);
        self.on_evicted(node, &evicted, now);
        let has = self.nodes[node.index()].buffer.has_dedicated(class);
        match (had, has) {
            (false, true) => self.directory.dedicated_pool_changed(class, 1),
            (true, false) => self.directory.dedicated_pool_changed(class, -1),
            _ => {}
        }
        granted
    }

    // -- fault injection ---------------------------------------------------

    /// Installs a fault plan's ambient models: the LAN message-drop model
    /// and the per-node disk-stall windows. Scheduled crashes/restarts are
    /// injected by the embedding simulator via [`DataPlane::crash_node`] /
    /// [`DataPlane::restart_node`] at the planned instants.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        if plan.drop_probability > 0.0 {
            self.network
                .set_drop_model(plan.drop_probability, plan.retransmit, plan.seed);
        }
        for s in &plan.stalls {
            self.nodes[s.node.index()]
                .disk
                .add_stall_window(s.from, s.until, s.factor);
        }
    }

    /// Crashes `node`: its volatile state — buffer contents, heat
    /// bookkeeping, dedicated allocations — is lost and the node stops
    /// serving protocol steps. The directory drops the node's copies
    /// (pages whose *only* copy lived there are counted as last-copy
    /// losses), survivors' newly-last copies are marked for re-pricing, and
    /// every in-flight operation that originated at the node is aborted.
    /// Disk-resident data stays readable by survivors (shared-disk mirror
    /// model, DESIGN.md §6). Idempotent while the node is already down.
    pub fn crash_node(&mut self, node: NodeId) {
        if !self.up[node.index()] {
            return;
        }
        self.up[node.index()] = false;
        self.fault_stats.crashes += 1;

        // The node's dedicated pools vanish with it: census first (the
        // directory untracks classes with no pools left), then the frames.
        for c in 1..=self.params.goal_classes {
            let class = ClassId(c as u16);
            if self.nodes[node.index()].buffer.has_dedicated(class) {
                self.directory.dedicated_pool_changed(class, -1);
            }
        }

        // Drop every cached page; detect last copies. No network charges:
        // a crash sends no location updates (the survivors discover the
        // loss through the directory, modelled here as exact).
        let mut resident: Vec<PageId> = Vec::new();
        for (_, _, pool) in self.nodes[node.index()].buffer.pools() {
            resident.extend(pool.pages());
        }
        resident.sort_unstable();
        for page in resident {
            let dropped = self.nodes[node.index()].buffer.drop_page(page);
            debug_assert!(dropped, "resident page must drop");
            let left = self.directory.remove_copy(page, node);
            if left == 0 {
                // Lost from aggregate memory: the next access is a forced
                // disk re-read.
                self.fault_stats.last_copy_losses += 1;
            } else if left == 1 {
                if let Some(&last) = self.directory.holders(page).first() {
                    // The survivor's copy gains the altruistic last-copy
                    // benefit term.
                    self.mark_stale(last, page);
                }
            }
        }
        for c in 1..=self.params.goal_classes {
            let (granted, evicted) = self.nodes[node.index()]
                .buffer
                .set_dedicated(ClassId(c as u16), 0);
            debug_assert_eq!(granted, 0);
            debug_assert!(evicted.is_empty(), "pools were already drained");
        }
        self.nodes[node.index()].heat.reset();

        // Abort in-flight operations that originated at the dead node;
        // their orphaned events carry a generation the freed slots no
        // longer have, so `handle` swallows them. Aborted in operation-id
        // order, so the freed slots are reused in an order independent of
        // where the operations happened to sit.
        let mut doomed: Vec<(OpId, SlotKey)> = self
            .inflight
            .iter()
            .filter(|(_, s)| s.op.origin == node)
            .map(|(key, s)| (s.op.id, key))
            .collect();
        doomed.sort_unstable_by_key(|&(id, _)| id);
        for (_, key) in doomed {
            self.inflight.remove(key).expect("doomed op in flight");
            self.fault_stats.ops_aborted += 1;
        }
    }

    /// Restarts a crashed `node`: it rejoins with a cold buffer (all frames
    /// in the no-goal pool, no dedicated allocations) and starts serving
    /// protocol steps again. Idempotent while the node is already up.
    pub fn restart_node(&mut self, node: NodeId) {
        if self.up[node.index()] {
            return;
        }
        self.up[node.index()] = true;
        self.fault_stats.restarts += 1;
    }

    /// Begins executing `op`. Returns the first event to schedule. Panics
    /// if the operation names no page or a page outside the database — the
    /// per-page tables are indexed by page id from here on.
    pub fn start_operation(&mut self, op: Operation, now: SimTime) -> StepOutput {
        assert!(!op.pages.is_empty(), "operation must access pages");
        if let Some(page) = op.pages.iter().find(|p| p.0 >= self.params.db_pages) {
            panic!(
                "operation {} accesses {page}, outside the {}-page database",
                op.id.0, self.params.db_pages
            );
        }
        let key = self.inflight.insert(OpState {
            // Placeholder until the first lookup routes the access.
            home: op.origin,
            op,
            next_idx: 0,
            access_start: now,
            bounced: false,
            stages: [0; STAGES],
            lookup_wait_ns: 0,
            lookup_total_ns: 0,
        });
        self.begin_access(key, now)
    }

    /// Handles one protocol event.
    pub fn handle(&mut self, now: SimTime, event: ClusterEvent) -> StepOutput {
        let key = match event {
            ClusterEvent::Lookup { op }
            | ClusterEvent::ReqAtHome { op }
            | ClusterEvent::ServeAtHome { op }
            | ClusterEvent::ReqAtHolder { op, .. }
            | ClusterEvent::ServeAtHolder { op, .. }
            | ClusterEvent::DiskDone { op }
            | ClusterEvent::PageArrived { op, .. }
            | ClusterEvent::AccessDone { op, .. } => op,
        };
        if !self.inflight.contains(key) {
            // Orphaned event: its operation was aborted when the origin
            // node crashed while this protocol step was in flight.
            return StepOutput::default();
        }
        match event {
            ClusterEvent::Lookup { op } => self.on_lookup(op, now),
            ClusterEvent::ReqAtHome { op } => {
                let home = self.inflight[op].home;
                if !self.up[home.index()] {
                    // The home died while the request was in flight.
                    return self.mirror_read(op, now);
                }
                let done = self.nodes[home.index()].cpu.reserve(now, SERVE_CPU);
                self.span_add(op, Stage::RemoteHit, done.since(now).as_nanos());
                StepOutput::default().at(done, ClusterEvent::ServeAtHome { op })
            }
            ClusterEvent::ServeAtHome { op } => self.on_serve_at_home(op, now),
            ClusterEvent::ReqAtHolder { op, holder } => {
                if !self.up[holder.index()] {
                    // The holder died while the forward was in flight.
                    return self.bounce_to_home(op, now);
                }
                let done = self.nodes[holder.index()].cpu.reserve(now, SERVE_CPU);
                self.span_add(op, Stage::RemoteHit, done.since(now).as_nanos());
                StepOutput::default().at(done, ClusterEvent::ServeAtHolder { op, holder })
            }
            ClusterEvent::ServeAtHolder { op, holder } => self.on_serve_at_holder(op, holder, now),
            ClusterEvent::DiskDone { op } => {
                let home = self.inflight[op].home;
                if !self.up[home.index()] {
                    // The home's disk read completed but the node died
                    // before shipping: read the mirror instead.
                    return self.mirror_read(op, now);
                }
                // Disk read finished at the home; ship the page to the origin
                // (the local-disk case never raises DiskDone).
                let origin = self.inflight[op].op.origin;
                let delivered = self.network.send_page(now, home, origin);
                self.span_add(op, Stage::NetTransfer, delivered.since(now).as_nanos());
                StepOutput::default().at(
                    delivered,
                    ClusterEvent::PageArrived {
                        op,
                        level: self.costs.remote_disk_slot(),
                    },
                )
            }
            ClusterEvent::PageArrived { op, level } => {
                let origin = self.inflight[op].op.origin;
                let (done, wait) = self.nodes[origin.index()]
                    .cpu
                    .reserve_split(now, INSTALL_CPU);
                self.span_add(op, Stage::PoolQueue, wait.as_nanos());
                self.span_add(op, Stage::Cpu, done.since(now).as_nanos() - wait.as_nanos());
                StepOutput::default().at(done, ClusterEvent::AccessDone { op, level })
            }
            ClusterEvent::AccessDone { op, level } => self.on_access_done(op, level, now),
        }
    }

    // -- access pipeline ---------------------------------------------------

    fn current_page(&self, op: SlotKey) -> PageId {
        let s = &self.inflight[op];
        s.op.pages[s.next_idx]
    }

    fn begin_access(&mut self, op: SlotKey, now: SimTime) -> StepOutput {
        self.accesses += 1;
        let (origin, page) = {
            let s = &mut self.inflight[op];
            s.access_start = now;
            s.bounced = false;
            (s.op.origin, s.op.pages[s.next_idx])
        };
        // The Lookup step opens with the origin's heat window, its tier-0
        // owner entry and the page's directory record: start their loads
        // now, while the event loop runs the events in between.
        let node = &self.nodes[origin.index()];
        node.heat.prefetch(page);
        node.buffer.prefetch_owner(page);
        self.directory.prefetch(page);
        let (done, wait) = self.nodes[origin.index()]
            .cpu
            .reserve_split(now, LOOKUP_CPU);
        if self.spans_on() {
            // The segment's stage depends on the hit/miss outcome, which is
            // only known when the Lookup event fires: park both components.
            let s = &mut self.inflight[op];
            s.lookup_wait_ns = wait.as_nanos();
            s.lookup_total_ns = done.since(now).as_nanos();
        }
        StepOutput::default().at(done, ClusterEvent::Lookup { op })
    }

    fn on_lookup(&mut self, op: SlotKey, now: SimTime) -> StepOutput {
        let (origin, class, page) = {
            let s = &self.inflight[op];
            (s.op.origin, s.op.class, s.op.pages[s.next_idx])
        };
        self.record_heat(origin, class, page, now);

        // The one owner-table walk of this step: routing, the access and
        // the stale mark all reuse it.
        let at = self.nodes[origin.index()].buffer.locate(page);
        if let Some((t, _)) = at {
            if t > 0 {
                // Hit in a slower memory tier: the page is served through
                // that tier's bandwidth-capped facility, then handled as
                // an install at the origin (promotion under the hotness
                // policy happens at `AccessDone`, when the transfer has
                // actually completed).
                self.span_lookup_outcome(op, false);
                let svc = self.tier_service[t - 1];
                let (done, wait) =
                    self.nodes[origin.index()].tier_fac[t - 1].reserve_split(now, svc);
                self.span_add(op, Stage::PoolQueue, wait.as_nanos());
                self.span_add(
                    op,
                    Stage::LocalHit,
                    done.since(now).as_nanos() - wait.as_nanos(),
                );
                return StepOutput::default().at(
                    done,
                    ClusterEvent::PageArrived {
                        op,
                        level: self.costs.hit_slot(t),
                    },
                );
            }
        }

        self.prepare_for_install(origin, class, page, at, now);
        let outcome = self.nodes[origin.index()]
            .buffer
            .access_at(class, page, at, now);
        match outcome {
            TieredAccess::Hit {
                moved: false,
                tier,
                pool,
                ..
            } => {
                self.span_lookup_outcome(op, true);
                // The heat change is noted in O(1); the benefit is
                // recomputed only if the page ever reaches a heap minimum.
                self.mark_stale_at(origin, page, tier, pool);
                self.finish_access(op, self.costs.hit_slot(0), now)
            }
            TieredAccess::Hit {
                moved: true,
                evicted,
                demoted,
                ..
            } => {
                self.span_lookup_outcome(op, true);
                self.on_evicted(origin, evicted.as_slice(), now);
                // Every page that changed pools re-entered at ∞ benefit;
                // price them now so none can sit unevictable forever.
                for &d in demoted.iter() {
                    self.reprice(origin, d, now);
                }
                self.reprice(origin, page, now);
                self.finish_access(op, self.costs.hit_slot(0), now)
            }
            TieredAccess::Miss => {
                self.span_lookup_outcome(op, false);
                let home = self.homes.home_for(page, origin);
                self.inflight[op].home = home;
                self.note_home_read(home, origin, page);
                if home == origin {
                    if let Some(holder) = self.directory.pick_holder(page, origin) {
                        let delivered = self.network.send_request(now, origin, holder);
                        self.span_add(op, Stage::NetRequest, delivered.since(now).as_nanos());
                        StepOutput::default()
                            .at(delivered, ClusterEvent::ReqAtHolder { op, holder })
                    } else {
                        // Local disk read; no network involved.
                        let (done, wait) = self.nodes[origin.index()].disk.read_page_split(now);
                        self.span_add(op, Stage::DiskQueue, wait.as_nanos());
                        self.span_add(
                            op,
                            Stage::DiskService,
                            done.since(now).as_nanos() - wait.as_nanos(),
                        );
                        StepOutput::default().at(
                            done,
                            ClusterEvent::PageArrived {
                                op,
                                level: self.costs.local_disk_slot(),
                            },
                        )
                    }
                } else if !self.up[home.index()] {
                    // The remote home is down: serve from the origin's
                    // local mirror of the page (shared-disk model).
                    self.mirror_read(op, now)
                } else {
                    let delivered = self.network.send_request(now, origin, home);
                    self.span_add(op, Stage::NetRequest, delivered.since(now).as_nanos());
                    StepOutput::default().at(delivered, ClusterEvent::ReqAtHome { op })
                }
            }
        }
    }

    /// Accounts one home-miss request routed to `home`, feeding both the
    /// per-node load gauges and (for adaptive placements) the per-page
    /// counters the hot ring retargets replication from each interval.
    fn note_home_read(&mut self, home: NodeId, origin: NodeId, page: PageId) {
        self.home_reads[home.index()] += 1;
        if home != origin {
            self.home_remote_reads[home.index()] += 1;
        }
        if let Some(c) = self.page_home_reads.get_mut(page.index()) {
            *c += 1;
            self.interval_home_reads += 1;
        }
    }

    /// Error path for a dead home: the page's disk image is reachable
    /// through the origin's local disk (dual-ported / shared-disk
    /// assumption), at local-disk cost.
    fn mirror_read(&mut self, op: SlotKey, now: SimTime) -> StepOutput {
        let origin = self.inflight[op].op.origin;
        self.fault_stats.mirror_reads += 1;
        let (done, wait) = self.nodes[origin.index()].disk.read_page_split(now);
        self.span_add(op, Stage::DiskQueue, wait.as_nanos());
        self.span_add(
            op,
            Stage::DiskService,
            done.since(now).as_nanos() - wait.as_nanos(),
        );
        StepOutput::default().at(
            done,
            ClusterEvent::PageArrived {
                op,
                level: self.costs.local_disk_slot(),
            },
        )
    }

    /// Error path for a vanished or dead holder: bounce the request back to
    /// the page's home (which serves from disk if needed), falling through
    /// to a mirror read when the home itself is down.
    fn bounce_to_home(&mut self, op: SlotKey, now: SimTime) -> StepOutput {
        let s = &mut self.inflight[op];
        s.bounced = true;
        let origin = s.op.origin;
        let home = s.home;
        if home == origin {
            // Origin is the home: read its disk directly, no more messages.
            let (done, wait) = self.nodes[home.index()].disk.read_page_split(now);
            self.span_add(op, Stage::DiskQueue, wait.as_nanos());
            self.span_add(
                op,
                Stage::DiskService,
                done.since(now).as_nanos() - wait.as_nanos(),
            );
            return StepOutput::default().at(
                done,
                ClusterEvent::PageArrived {
                    op,
                    level: self.costs.local_disk_slot(),
                },
            );
        }
        if !self.up[home.index()] {
            return self.mirror_read(op, now);
        }
        // The re-request is issued on behalf of the origin (the node that
        // dispatched the vanished forward cannot be trusted to be up).
        let delivered = self.network.send_request(now, origin, home);
        self.span_add(op, Stage::NetRequest, delivered.since(now).as_nanos());
        StepOutput::default().at(delivered, ClusterEvent::ReqAtHome { op })
    }

    fn on_serve_at_home(&mut self, op: SlotKey, now: SimTime) -> StepOutput {
        let (origin, page, bounced, home) = {
            let s = &self.inflight[op];
            (s.op.origin, s.op.pages[s.next_idx], s.bounced, s.home)
        };
        if !self.up[home.index()] {
            // The home died between its CPU grant and the serve step.
            return self.mirror_read(op, now);
        }

        if self.nodes[home.index()].buffer.resident(page) {
            let delivered = self.network.send_page(now, home, origin);
            self.span_add(op, Stage::NetTransfer, delivered.since(now).as_nanos());
            return StepOutput::default().at(
                delivered,
                ClusterEvent::PageArrived {
                    op,
                    level: self.costs.remote_hit_slot(),
                },
            );
        }
        if !bounced {
            // Forward to a caching node, if the directory knows one that is
            // neither the origin (it missed) nor the home (checked above).
            let holder = self
                .directory
                .holders(page)
                .iter()
                .copied()
                .find(|&n| n != origin && n != home);
            if let Some(holder) = holder {
                let delivered = self.network.send_request(now, home, holder);
                self.span_add(op, Stage::NetRequest, delivered.since(now).as_nanos());
                return StepOutput::default()
                    .at(delivered, ClusterEvent::ReqAtHolder { op, holder });
            }
        }
        // No copy reachable: read from the home disk.
        let (done, wait) = self.nodes[home.index()].disk.read_page_split(now);
        self.span_add(op, Stage::DiskQueue, wait.as_nanos());
        self.span_add(
            op,
            Stage::DiskService,
            done.since(now).as_nanos() - wait.as_nanos(),
        );
        StepOutput::default().at(done, ClusterEvent::DiskDone { op })
    }

    fn on_serve_at_holder(&mut self, op: SlotKey, holder: NodeId, now: SimTime) -> StepOutput {
        let page = self.current_page(op);
        if self.up[holder.index()] && self.nodes[holder.index()].buffer.resident(page) {
            let origin = self.inflight[op].op.origin;
            let delivered = self.network.send_page(now, holder, origin);
            self.span_add(op, Stage::NetTransfer, delivered.since(now).as_nanos());
            return StepOutput::default().at(
                delivered,
                ClusterEvent::PageArrived {
                    op,
                    level: self.costs.remote_hit_slot(),
                },
            );
        }
        // The copy vanished (eviction, or the holder crashed) while the
        // forward was in flight: bounce to the home, which serves from disk
        // if needed.
        self.bounce_to_home(op, now)
    }

    fn on_access_done(&mut self, op: SlotKey, level: CostSlot, now: SimTime) -> StepOutput {
        let (origin, class, page) = {
            let s = &self.inflight[op];
            (s.op.origin, s.op.class, s.op.pages[s.next_idx])
        };
        // True when the page just entered a pool (install, migration, or
        // promotion) and therefore sits at ∞ benefit until priced.
        let mut freshly_pooled = false;
        // Where a hit that stays in its pool left the page, for the stale
        // mark: the one owner-table walk of this step serves routing, the
        // access and the mark.
        let mut stays_at = None;
        let at = self.nodes[origin.index()].buffer.locate(page);
        self.prepare_for_install(origin, class, page, at, now);
        if at.is_some() {
            // A concurrent operation installed the page while ours was in
            // flight — or this is a slow-tier hit arriving through the tier
            // facility; treat as the §6 access it is (the hotness policy
            // promotes here).
            match self.nodes[origin.index()]
                .buffer
                .access_at(class, page, at, now)
            {
                TieredAccess::Hit {
                    moved: true,
                    evicted,
                    demoted,
                    ..
                } => {
                    self.on_evicted(origin, evicted.as_slice(), now);
                    for &d in demoted.iter() {
                        self.reprice(origin, d, now);
                    }
                    freshly_pooled = true;
                }
                TieredAccess::Hit {
                    moved: false,
                    tier,
                    pool,
                    ..
                } => stays_at = Some((tier, pool)),
                TieredAccess::Miss => unreachable!("page checked resident"),
            }
        } else {
            let outcome = self.nodes[origin.index()].buffer.install(class, page, now);
            self.on_evicted(origin, outcome.evicted.as_slice(), now);
            for &d in outcome.demoted.iter() {
                self.reprice(origin, d, now);
            }
            if outcome.cached {
                freshly_pooled = true;
                self.directory.add_copy(page, origin);
                // A second copy demotes the previous last copy: its benefit
                // loses the altruistic term. This *drop* must be applied at
                // once: a stale over-estimate never surfaces at the heap
                // minimum, so the victim loop cannot correct it, and the
                // order-preserving decay never sinks it relative to its
                // peers — the holder would keep the duplicate and evict last
                // copies instead, pushing cluster-wide misses from memory to
                // disk. The cost is one recompute per second-copy install,
                // well within the eviction-rate budget.
                if self.directory.copies(page) == 2 {
                    let other = self
                        .directory
                        .holders(page)
                        .iter()
                        .copied()
                        .find(|&n| n != origin);
                    if let Some(other) = other {
                        self.reprice(other, page, now);
                    }
                }
            }
        }
        if freshly_pooled {
            self.reprice(origin, page, now);
        } else if let Some((tier, pool)) = stays_at {
            // An install with no frame leaves nothing to mark.
            self.mark_stale_at(origin, page, tier, pool);
        }
        self.finish_access(op, level, now)
    }

    fn finish_access(&mut self, op: SlotKey, level: CostSlot, now: SimTime) -> StepOutput {
        let elapsed_ms = {
            let s = &self.inflight[op];
            now.since(s.access_start).as_millis_f64()
        };
        self.costs.observe(level, elapsed_ms);

        let finished = {
            let s = &mut self.inflight[op];
            s.next_idx += 1;
            s.next_idx == s.op.pages.len()
        };
        if finished {
            let s = self.inflight.remove(op).expect("op in flight");
            self.completions += 1;
            let span = if self.spans_on() {
                let class_idx = usize::from(s.op.class.0);
                for (hist, &ns) in self.span_hists[class_idx].iter_mut().zip(s.stages.iter()) {
                    // Skip zeros so a stage's count reads "ops that touched
                    // this stage"; the totals are unaffected either way.
                    if ns > 0 {
                        hist.record(ns);
                    }
                }
                self.span_response_ns[class_idx] += now.since(s.op.arrival).as_nanos();
                self.resp_hists[class_idx].record(now.since(s.op.arrival).as_nanos());
                self.params.spans.samples(s.op.id.0).then_some(s.stages)
            } else {
                None
            };
            StepOutput {
                schedule: None,
                completed: Some(OpCompletion {
                    id: s.op.id,
                    class: s.op.class,
                    origin: s.op.origin,
                    arrival: s.op.arrival,
                    finished: now,
                    span,
                }),
            }
        } else {
            self.begin_access(op, now)
        }
    }

    // -- bookkeeping -------------------------------------------------------

    fn record_heat(&mut self, node: NodeId, class: ClassId, page: PageId, now: SimTime) {
        let tracked = self.directory.class_tracked(class);
        self.nodes[node.index()]
            .heat
            .record(page, class, now, tracked);
        if self.directory.record_access(page, now) {
            // Threshold crossed: the heat update is published to the page's
            // home — coherence traffic of the caching substrate, accounted
            // as data-plane bytes (§7.5 counts only goal-management traffic
            // as control).
            let home = self.homes.home_for(page, node);
            self.network.send_request(now, node, home);
        }
    }

    fn on_evicted(&mut self, node: NodeId, evicted: &[PageId], now: SimTime) {
        for &q in evicted {
            let left = self.directory.remove_copy(q, node);
            // Location update to the page's home (coherence traffic).
            let home = self.homes.home_for(q, node);
            self.network.send_request(now, node, home);
            if left == 1 {
                // The surviving copy becomes the last one and gains the
                // altruistic benefit term. A directory inconsistency must
                // not panic a run: skip gracefully (the copy will be priced
                // on its next touch) but trip debug builds loudly.
                let Some(&last) = self.directory.holders(q).first() else {
                    debug_assert!(
                        false,
                        "directory claims one copy of {q} left after eviction at \
                         node{} but lists no holder",
                        node.index()
                    );
                    continue;
                };
                // A stale *under*-estimate is safe — the victim loop
                // re-prices the page before it could be evicted on it.
                self.mark_stale(last, q);
            }
        }
    }

    /// Advances the benefit epoch at an observation-interval boundary,
    /// retargets hot-ring replication, and applies the order-preserving
    /// benefit decay (all other benefit maintenance happens on demand).
    /// The boundary instant is not needed: decay is a common factor.
    pub fn on_interval(&mut self, _now: SimTime) {
        self.epoch += 1;
        if self.homes.adapts_replication() {
            self.homes
                .retarget_replication(&self.page_home_reads, self.interval_home_reads);
            self.page_home_reads.fill(0);
            self.interval_home_reads = 0;
        }
        if self.params.policy == PolicySpec::CostBased {
            self.decay_benefits();
        }
    }

    /// Debug invariant: buffers, directory and in-flight records agree.
    pub fn check_invariants(&self) {
        self.directory.check_invariants();
        for (i, n) in self.nodes.iter().enumerate() {
            n.buffer.check_invariants();
            for page in (0..self.params.db_pages).map(PageId) {
                let in_dir = self.directory.holders(page).contains(&NodeId(i as u16));
                assert_eq!(
                    in_dir,
                    n.buffer.resident(page),
                    "directory/buffer disagree on {page} at node{i}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::homes::PlacementSpec;
    use dmm_obs::SpanMode;

    /// Drives the plane's returned events through the shared engine-backed
    /// event loop, collecting completions.
    fn drive(
        plane: &mut DataPlane,
        start: impl IntoIterator<Item = (SimTime, ClusterEvent)>,
    ) -> Vec<OpCompletion> {
        crate::drive::drive_to_quiescence(plane, start)
    }

    fn op(id: u64, class: u16, origin: u16, pages: &[u32], at: SimTime) -> Operation {
        Operation {
            id: OpId(id),
            class: ClassId(class),
            origin: NodeId(origin),
            pages: pages.iter().map(|&p| PageId(p)).collect(),
            arrival: at,
        }
    }

    fn plane() -> DataPlane {
        DataPlane::new(ClusterParams::default())
    }

    #[test]
    #[should_panic(expected = "span sampling divisor must be at least 1, got 0")]
    fn zero_span_sampling_divisor_is_rejected_when_the_plane_is_built() {
        DataPlane::new(ClusterParams {
            spans: SpanMode::Sampled { every: 0 },
            ..ClusterParams::default()
        });
    }

    #[test]
    #[should_panic(expected = "operation 9 accesses p2000, outside the 2000-page database")]
    fn operation_naming_a_page_outside_the_database_is_rejected_at_the_boundary() {
        let mut p = plane();
        p.start_operation(op(9, 0, 0, &[0, 2000], SimTime::ZERO), SimTime::ZERO);
    }

    #[test]
    fn cold_read_of_local_page_costs_one_disk_read() {
        let mut p = plane();
        // Page 0's home is node 0 (round robin).
        let out = p.start_operation(op(1, 0, 0, &[0], SimTime::ZERO), SimTime::ZERO);
        let done = drive(&mut p, out.schedule);
        assert_eq!(done.len(), 1);
        let rt = done[0].response_ms();
        // lookup CPU + disk read + install CPU ≈ 0.03 + 8.42 + 0.03 ms.
        assert!((8.0..9.5).contains(&rt), "cold local read {rt} ms");
        assert_eq!(p.disk_reads(NodeId(0)), 1);
        assert_eq!(p.network().data_bytes(), 128, "one location update only");
        p.check_invariants();
    }

    #[test]
    fn disk_reads_restart_at_reset_stats() {
        let mut p = plane();
        let out = p.start_operation(op(1, 0, 0, &[0], SimTime::ZERO), SimTime::ZERO);
        let t1 = drive(&mut p, out.schedule)[0].finished;
        assert_eq!(p.disk_reads(NodeId(0)), 1);
        p.reset_stats(t1);
        assert_eq!(p.disk_reads(NodeId(0)), 0, "the warm-up boundary zeroes it");
        // Page 3's home is node 0 too; its cold read counts from the reset.
        let out = p.start_operation(op(2, 0, 0, &[3], t1), t1);
        drive(&mut p, out.schedule);
        assert_eq!(p.disk_reads(NodeId(0)), 1);
        assert_eq!(p.completions(), 2, "completions stay cumulative");
    }

    #[test]
    fn second_read_hits_locally() {
        let mut p = plane();
        let out = p.start_operation(op(1, 0, 0, &[0], SimTime::ZERO), SimTime::ZERO);
        let done = drive(&mut p, out.schedule);
        let t1 = done[0].finished;
        let out = p.start_operation(op(2, 0, 0, &[0], t1), t1);
        let done = drive(&mut p, out.schedule);
        let rt = done[0].response_ms();
        assert!(rt < 0.1, "local hit {rt} ms");
        assert_eq!(p.disk_reads(NodeId(0)), 1, "no second disk read");
        p.check_invariants();
    }

    #[test]
    fn remote_page_read_uses_home_disk_and_network() {
        let mut p = plane();
        // Page 1's home is node 1; requester is node 0.
        let out = p.start_operation(op(1, 0, 0, &[1], SimTime::ZERO), SimTime::ZERO);
        let done = drive(&mut p, out.schedule);
        let rt = done[0].response_ms();
        assert!((8.5..11.0).contains(&rt), "remote disk read {rt} ms");
        assert_eq!(p.disk_reads(NodeId(1)), 1);
        assert_eq!(p.disk_reads(NodeId(0)), 0);
        // Request + page ship + location update crossed the network.
        assert!(p.network().data_bytes() > 4096);
        p.check_invariants();
    }

    #[test]
    fn remote_cache_hit_avoids_disk() {
        let mut p = plane();
        // Node 1 reads its own page 1 from disk (now cached at node 1).
        let out = p.start_operation(op(1, 0, 1, &[1], SimTime::ZERO), SimTime::ZERO);
        let t1 = drive(&mut p, out.schedule)[0].finished;
        // Node 0 then reads page 1: served from node 1's memory.
        let out = p.start_operation(op(2, 0, 0, &[1], t1), t1);
        let done = drive(&mut p, out.schedule);
        let rt = done[0].response_ms();
        assert!(rt < 2.0, "remote hit {rt} ms");
        assert_eq!(p.disk_reads(NodeId(1)), 1, "no extra disk read");
        // Both nodes now cache the page.
        assert_eq!(p.directory().copies(PageId(1)), 2);
        p.check_invariants();
    }

    #[test]
    fn multi_page_operation_accumulates_latency() {
        let mut p = plane();
        let out = p.start_operation(op(1, 0, 0, &[0, 3, 6, 9], SimTime::ZERO), SimTime::ZERO);
        let done = drive(&mut p, out.schedule);
        assert_eq!(done.len(), 1);
        // Four cold local-disk reads, sequential.
        let rt = done[0].response_ms();
        assert!((4.0 * 8.0..4.0 * 9.5).contains(&rt), "4-page op {rt} ms");
        assert_eq!(p.disk_reads(NodeId(0)), 4);
    }

    #[test]
    fn dedicated_pool_receives_goal_class_pages() {
        let mut p = plane();
        let granted = p.apply_allocation(NodeId(0), ClassId(1), 64, SimTime::ZERO);
        assert_eq!(granted, 64);
        let out = p.start_operation(op(1, 1, 0, &[0], SimTime::ZERO), SimTime::ZERO);
        drive(&mut p, out.schedule);
        assert_eq!(p.dedicated_pages(NodeId(0), ClassId(1)), 64);
        assert_eq!(p.pool_stats(NodeId(0), ClassId(1)).insertions, 1);
        assert!(p.directory().class_tracked(ClassId(1)));
        p.check_invariants();
    }

    #[test]
    fn deallocating_all_pools_untracks_class() {
        let mut p = plane();
        p.apply_allocation(NodeId(0), ClassId(1), 64, SimTime::ZERO);
        p.apply_allocation(NodeId(1), ClassId(1), 32, SimTime::ZERO);
        assert!(p.directory().class_tracked(ClassId(1)));
        p.apply_allocation(NodeId(0), ClassId(1), 0, SimTime::ZERO);
        assert!(p.directory().class_tracked(ClassId(1)));
        p.apply_allocation(NodeId(1), ClassId(1), 0, SimTime::ZERO);
        assert!(!p.directory().class_tracked(ClassId(1)));
    }

    #[test]
    fn eviction_updates_directory() {
        let params = ClusterParams {
            buffer_pages_per_node: 2, // tiny cache forces evictions
            // LRU makes the victim deterministic (cost-based benefits of two
            // once-touched pages depend on pricing instants).
            policy: dmm_buffer::PolicySpec::Lru,
            ..ClusterParams::default()
        };
        let mut p = DataPlane::new(params);
        let mut t = SimTime::ZERO;
        for (i, page) in [0u32, 3, 6].iter().enumerate() {
            let out = p.start_operation(op(i as u64, 0, 0, &[*page], t), t);
            t = drive(&mut p, out.schedule)[0].finished;
        }
        // Page 0 was evicted by page 6's install.
        assert_eq!(p.directory().copies(PageId(0)), 0);
        assert_eq!(p.directory().copies(PageId(6)), 1);
        p.check_invariants();
    }

    #[test]
    fn concurrent_ops_queue_at_the_disk() {
        let mut p = plane();
        let o1 = p.start_operation(op(1, 0, 0, &[0], SimTime::ZERO), SimTime::ZERO);
        let o2 = p.start_operation(op(2, 0, 0, &[3], SimTime::ZERO), SimTime::ZERO);
        let done = drive(&mut p, o1.schedule.into_iter().chain(o2.schedule));
        assert_eq!(done.len(), 2);
        let mut rts: Vec<f64> = done.iter().map(|c| c.response_ms()).collect();
        rts.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        // Second op waits for the first's disk read: roughly double latency.
        assert!(rts[1] > rts[0] * 1.7, "no queueing visible: {rts:?}");
    }

    #[test]
    fn concurrent_fetch_of_same_page_is_safe() {
        let mut p = plane();
        let o1 = p.start_operation(op(1, 0, 0, &[0], SimTime::ZERO), SimTime::ZERO);
        let o2 = p.start_operation(op(2, 0, 0, &[0], SimTime::ZERO), SimTime::ZERO);
        let done = drive(&mut p, o1.schedule.into_iter().chain(o2.schedule));
        assert_eq!(done.len(), 2);
        assert_eq!(p.directory().copies(PageId(0)), 1);
        p.check_invariants();
    }

    #[test]
    fn control_messages_are_accounted_separately() {
        let mut p = plane();
        let delivered = p.send_control(NodeId(0), NodeId(1), 200, SimTime::ZERO);
        assert!(delivered > SimTime::ZERO);
        assert_eq!(p.network().control_bytes(), 200);
        assert_eq!(p.network().data_bytes(), 0);
        // Same-node control is free.
        let t = p.send_control(NodeId(0), NodeId(0), 200, delivered);
        assert_eq!(t, delivered);
        assert_eq!(p.network().control_bytes(), 200);
    }

    #[test]
    fn cost_estimates_learn_from_traffic() {
        let mut p = plane();
        let out = p.start_operation(op(1, 0, 0, &[0], SimTime::ZERO), SimTime::ZERO);
        drive(&mut p, out.schedule);
        let slot = p.costs().local_disk_slot();
        assert_eq!(p.costs().observations(slot), 1);
        let est = p.costs().estimate_ms(slot);
        assert!((8.0..9.5).contains(&est));
    }

    /// The snapshot's access counters share the buffer statistics' window:
    /// after a reset they count only what followed it.
    #[test]
    fn snapshot_access_counters_restart_at_reset_stats() {
        let mut p = plane();
        for (id, pages) in [(1, [0, 1, 2, 3]), (2, [0, 5, 6, 7])] {
            let out = p.start_operation(op(id, 0, 0, &pages, SimTime::ZERO), SimTime::ZERO);
            drive(&mut p, out.schedule);
        }
        let reset_at = SimTime::ZERO + SimDuration::from_secs(1);
        p.reset_stats(reset_at);
        let out = p.start_operation(op(3, 0, 1, &[20, 21, 22, 23], reset_at), reset_at);
        drive(&mut p, out.schedule);

        let mut snap = dmm_obs::MetricsSnapshot::new();
        p.fill_metrics(&mut snap, reset_at + SimDuration::from_secs(1));
        let counter = |name: &str| snap.get_counter(name).expect(name);
        let lookups = counter("buffer.nogoal.hits") + counter("buffer.nogoal.misses");
        assert_eq!(counter("cluster.accesses"), 4);
        assert_eq!(lookups, 4);
        assert_eq!(counter("cluster.completions"), 1);
        let levels: u64 = p
            .params()
            .tiers
            .slot_names()
            .iter()
            .map(|name| counter(&format!("cluster.level.{name}.accesses")))
            .sum();
        assert_eq!(levels, 4);
        // The accessors stay cumulative.
        assert_eq!(p.accesses(), 12);
        assert_eq!(p.completions(), 3);
    }

    #[test]
    fn crash_drops_copies_and_counts_last_copy_losses() {
        let mut p = plane();
        // Node 1 caches its own page 1 (sole copy).
        let out = p.start_operation(op(1, 0, 1, &[1], SimTime::ZERO), SimTime::ZERO);
        let t1 = drive(&mut p, out.schedule)[0].finished;
        assert_eq!(p.directory().copies(PageId(1)), 1);

        p.crash_node(NodeId(1));
        assert!(!p.is_up(NodeId(1)));
        assert_eq!(p.live_nodes(), 2);
        assert_eq!(p.directory().copies(PageId(1)), 0);
        assert_eq!(p.fault_stats().crashes, 1);
        assert_eq!(p.fault_stats().last_copy_losses, 1);
        p.check_invariants();

        // Node 0 now reads page 1: its home (node 1) is down, so the read
        // is served from node 0's local mirror disk.
        let out = p.start_operation(op(2, 0, 0, &[1], t1), t1);
        let done = drive(&mut p, out.schedule);
        assert_eq!(done.len(), 1, "op must complete despite the dead home");
        assert_eq!(p.fault_stats().mirror_reads, 1);
        assert_eq!(p.disk_reads(NodeId(0)), 1);
        p.check_invariants();
    }

    #[test]
    fn crash_aborts_inflight_ops_of_the_dead_origin() {
        let mut p = plane();
        let o1 = p.start_operation(op(1, 0, 1, &[4], SimTime::ZERO), SimTime::ZERO);
        // Crash the origin while the op is mid-protocol; its pending event
        // becomes an orphan that `handle` must swallow without panicking.
        p.crash_node(NodeId(1));
        let done = drive(&mut p, o1.schedule);
        assert!(done.is_empty(), "aborted op must not complete");
        assert_eq!(p.fault_stats().ops_aborted, 1);
        assert_eq!(p.inflight_ops(), 0);
        p.check_invariants();
    }

    #[test]
    fn protocol_events_stay_within_sixteen_bytes() {
        assert!(
            std::mem::size_of::<ClusterEvent>() <= 16,
            "ClusterEvent is {} bytes",
            std::mem::size_of::<ClusterEvent>()
        );
    }

    #[test]
    fn slots_freed_by_a_crash_are_reused_without_stale_events_reaching_new_ops() {
        let mut p = DataPlane::new(ClusterParams {
            spans: SpanMode::Sampled { every: 1 },
            ..ClusterParams::default()
        });
        // Three ops of node 1 and one of node 0 in flight.
        let mut stale = Vec::new();
        for (id, page) in [(1u64, 4u32), (2, 1), (3, 5)] {
            stale.extend(
                p.start_operation(op(id, 0, 1, &[page, 9], SimTime::ZERO), SimTime::ZERO)
                    .schedule,
            );
        }
        let survivor = p
            .start_operation(op(4, 0, 0, &[3], SimTime::ZERO), SimTime::ZERO)
            .schedule;
        let freed: std::collections::BTreeSet<u32> = stale
            .iter()
            .map(|(_, e)| match e {
                ClusterEvent::Lookup { op } => op.slot(),
                other => panic!("first step is a lookup, got {other:?}"),
            })
            .collect();
        p.crash_node(NodeId(1));
        assert_eq!(p.fault_stats().ops_aborted, 3);
        assert_eq!(p.inflight_ops(), 1);

        // New ops land in the freed slots while the aborted ops' events are
        // still pending.
        let mut fresh = Vec::new();
        for id in 5..=7u64 {
            let out =
                p.start_operation(op(id, 0, 2, &[id as u32, 12], SimTime::ZERO), SimTime::ZERO);
            let (t, e) = out.schedule.expect("first step");
            let ClusterEvent::Lookup { op: key } = e else {
                panic!("first step is a lookup, got {e:?}");
            };
            assert!(
                freed.contains(&key.slot()),
                "slot {} was not freed",
                key.slot()
            );
            fresh.push((t, e));
        }

        // Delivering the stale events must change nothing: the run matches
        // one where they were never delivered.
        let mut clean = p.clone();
        let with_stale = drive(
            &mut p,
            stale
                .into_iter()
                .chain(survivor)
                .chain(fresh.iter().copied()),
        );
        let without = drive(&mut clean, survivor.into_iter().chain(fresh));
        assert_eq!(with_stale, without);
        let mut ids: Vec<u64> = with_stale.iter().map(|c| c.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![4, 5, 6, 7]);
        assert!(with_stale.iter().all(|c| c.span.is_some()));
        // Started = completed + aborted + in flight.
        assert_eq!(7, p.completions() + p.fault_stats().ops_aborted);
        assert_eq!(p.inflight_ops(), 0);
        assert_eq!(p.accesses(), clean.accesses());
        p.check_invariants();
    }

    #[test]
    fn restart_rejoins_cold_and_serves_again() {
        let mut p = plane();
        p.apply_allocation(NodeId(1), ClassId(1), 32, SimTime::ZERO);
        let out = p.start_operation(op(1, 1, 1, &[1], SimTime::ZERO), SimTime::ZERO);
        let t1 = drive(&mut p, out.schedule)[0].finished;
        p.crash_node(NodeId(1));
        assert_eq!(p.dedicated_pages(NodeId(1), ClassId(1)), 0);
        assert_eq!(p.apply_allocation(NodeId(1), ClassId(1), 32, t1), 0);

        p.restart_node(NodeId(1));
        assert!(p.is_up(NodeId(1)));
        assert_eq!(p.fault_stats().restarts, 1);
        // Cold: nothing resident, allocations work again.
        assert_eq!(p.pool_stats(NodeId(1), ClassId(1)).hits, 0);
        assert_eq!(p.apply_allocation(NodeId(1), ClassId(1), 32, t1), 32);
        let out = p.start_operation(op(2, 1, 1, &[1], t1), t1);
        let done = drive(&mut p, out.schedule);
        assert_eq!(done.len(), 1);
        assert_eq!(p.disk_reads(NodeId(1)), 2, "cold rejoin re-reads disk");
        p.check_invariants();
    }

    #[test]
    fn dead_holder_bounces_to_home() {
        let mut p = plane();
        // Node 2 reads page 0 (home: node 0, which serves from disk without
        // caching) — the only cached copy ends up at node 2.
        let out = p.start_operation(op(1, 0, 2, &[0], SimTime::ZERO), SimTime::ZERO);
        let t1 = drive(&mut p, out.schedule)[0].finished;
        assert_eq!(p.directory().copies(PageId(0)), 1);
        // Node 1 requests page 0; the home forwards to holder node 2 —
        // which dies while the forward is on the wire. The op must still
        // terminate via bounce + home disk read.
        let mut next = p.start_operation(op(2, 0, 1, &[0], t1), t1).schedule;
        let mut completed = None;
        while let Some((t, e)) = next {
            if matches!(e, ClusterEvent::ReqAtHolder { holder, .. } if holder == NodeId(2)) {
                p.crash_node(NodeId(2));
            }
            let step = p.handle(t, e);
            completed = completed.or(step.completed);
            next = step.schedule;
        }
        assert!(completed.is_some(), "bounced op completes from home disk");
        assert_eq!(p.fault_stats().crashes, 1);
        assert!(p.disk_reads(NodeId(0)) >= 2, "home disk served the bounce");
        p.check_invariants();
    }

    #[test]
    fn home_load_accounts_requests_and_fanin() {
        let mut p = plane();
        // Node 0 misses page 1 (home node 1): one remote home read.
        let out = p.start_operation(op(1, 0, 0, &[1], SimTime::ZERO), SimTime::ZERO);
        let t1 = drive(&mut p, out.schedule)[0].finished;
        // Node 0 misses page 0 (its own home): local home read, no fan-in.
        let out = p.start_operation(op(2, 0, 0, &[0], t1), t1);
        drive(&mut p, out.schedule);
        let hl = p.home_load();
        assert_eq!(hl.home_reads, vec![1, 1, 0]);
        assert_eq!(hl.remote_fanin, vec![0, 1, 0]);
        // Round-robin homes 2000 pages over 3 nodes: 667/667/666.
        assert_eq!(hl.home_pages.iter().sum::<u32>(), 2000);
        assert_eq!(hl.home_pages[0], 667);
    }

    #[test]
    fn hot_ring_spreads_a_hot_page_across_homes() {
        let params = ClusterParams {
            nodes: 8,
            placement: PlacementSpec::HotRing(crate::homes::HotRingSpec::default()),
            ..ClusterParams::default()
        };
        let mut p = DataPlane::new(params);
        let hot = PageId(7);
        assert_eq!(p.homes().replication(hot), 1);
        // One interval of traffic concentrated on one page...
        let mut t = SimTime::ZERO;
        for i in 0..40u64 {
            let origin = (i % 8) as u16;
            let out = p.start_operation(op(i + 1, 0, origin, &[7], t), t);
            t = drive(&mut p, out.schedule)
                .last()
                .map(|c| c.finished)
                .unwrap_or(t);
        }
        p.on_interval(t);
        // ...drives its replication degree up, so different origins now
        // route home reads to different nodes.
        assert!(
            p.homes().replication(hot) > 1,
            "hot page kept degree {}",
            p.homes().replication(hot)
        );
        let homes: std::collections::BTreeSet<NodeId> =
            (0..8).map(|o| p.homes().home_for(hot, NodeId(o))).collect();
        assert!(homes.len() > 1, "fan-in not spread: {homes:?}");
        // An idle interval cools it back down.
        for _ in 0..8 {
            p.on_interval(t);
        }
        assert_eq!(p.homes().replication(hot), 1);
    }

    /// The work counters of a fixed scripted run: they moved into the
    /// directory's per-page records with the heat memo, and must count the
    /// same hits, misses, retries and recomputes as the standalone memo
    /// table did.
    #[test]
    fn reprice_counters_of_a_scripted_run_are_pinned() {
        let mut p = DataPlane::new(ClusterParams {
            buffer_pages_per_node: 24,
            db_pages: 120,
            ..ClusterParams::default()
        });
        p.apply_allocation(NodeId(1), ClassId(1), 8, SimTime::ZERO);
        let mut rng = dmm_sim::SimRng::seed_from_u64(0x5EED);
        let mut t = SimTime::ZERO;
        let mut id = 0;
        for _interval in 0..12 {
            for _batch in 0..10 {
                let starts: Vec<_> = (0..4)
                    .filter_map(|_| {
                        id += 1;
                        let pages = [0, 1].map(|_| {
                            let hot = rng.index(120) + 1;
                            rng.index(hot) as u32
                        });
                        let class = rng.index(2) as u16;
                        let origin = rng.index(3) as u16;
                        p.start_operation(op(id, class, origin, &pages, t), t)
                            .schedule
                    })
                    .collect();
                t = drive(&mut p, starts)
                    .iter()
                    .map(|c| c.finished)
                    .max()
                    .expect("the batch completes");
            }
            p.on_interval(t);
        }
        p.check_invariants();
        let r = *p.reprice_stats();
        assert_eq!(
            (
                r.heat_cache_hits,
                r.heat_cache_misses,
                r.heap_retries,
                r.recomputes
            ),
            (843, 543, 277, 1386)
        );
    }

    #[test]
    fn install_faults_wires_drop_model_and_stalls() {
        let mut p = plane();
        let plan = FaultPlan::new(3)
            .message_drop(0.9)
            .disk_stall_ms(NodeId(0), 0, 1_000, 8.0);
        p.install_faults(&plan);
        let out = p.start_operation(op(1, 0, 0, &[0], SimTime::ZERO), SimTime::ZERO);
        let done = drive(&mut p, out.schedule);
        assert_eq!(done.len(), 1);
        // The cold local read hit the stall window.
        assert!(done[0].response_ms() > 8.0 * 8.0);
        assert_eq!(p.nodes[0].disk.stalled_reads(), 1);
    }

    /// A 4-rung ladder (dram + cxl + remote + disk) with per-node capacities
    /// small enough that a 20-page working set overflows dram.
    fn extended_params() -> ClusterParams {
        let tiers = crate::tier::TierLadder::new(vec![
            crate::tier::TierSpec::new("dram", 0.03),
            crate::tier::TierSpec::new("cxl", 0.25)
                .frames(24)
                .bandwidth(2_000_000_000),
            crate::tier::TierSpec::new("remote", 0.5),
            crate::tier::TierSpec::new("disk", 12.6),
        ])
        .expect("valid ladder");
        ClusterParams {
            buffer_pages_per_node: 8,
            tiers,
            ..ClusterParams::default()
        }
    }

    #[test]
    fn extended_ladder_promotes_demotes_and_completes() {
        let mut p = DataPlane::new(extended_params());
        let mut id = 0u64;
        let mut completed = 0usize;
        // Three passes over a working set larger than dram but within
        // dram + cxl: pass 1 installs and demotes the overflow, later
        // passes hit the cxl copies and promote them back.
        for round in 0..3u64 {
            let mut start = Vec::new();
            for page in 0..20u32 {
                id += 1;
                let at = SimTime::from_nanos(round * 1_000_000_000 + u64::from(page) * 10_000_000);
                let out = p.start_operation(op(id, 0, 0, &[page], at), at);
                start.extend(out.schedule);
            }
            completed += drive(&mut p, start).len();
        }
        assert_eq!(completed, 60);
        let b = &p.nodes[0].buffer;
        assert!(
            b.demotions().iter().sum::<u64>() > 0,
            "dram overflow must demote into cxl"
        );
        assert!(
            b.promotions().iter().sum::<u64>() > 0,
            "slow-tier hits must promote"
        );
        let occ = p.tier_occupancy();
        assert_eq!(occ.len(), 2);
        assert_eq!(occ[0].0, "dram");
        assert_eq!(occ[0].2, 8 * 3);
        assert_eq!((occ[1].0.as_str(), occ[1].2), ("cxl", 24 * 3));
        assert!(
            p.costs().observations(p.costs().hit_slot(1)) > 0,
            "cxl hits must be observed in their own cost slot"
        );
        p.check_invariants();
    }
}
