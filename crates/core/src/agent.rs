//! Local agents (paper §5, phase (a)).
//!
//! One agent runs per (node, class): it computes the inter-arrival rate and
//! the mean response time of its class's operations over each observation
//! interval, and reports to the class coordinator when something significant
//! changed — a response-time shift beyond the significance threshold, an
//! allocation change, or fresh arrival-rate information. No-goal agents'
//! reports are fanned out to *every* goal coordinator, since every
//! optimization needs the no-goal response time for its objective.

use dmm_buffer::{ClassId, PoolStats};
use dmm_cluster::NodeId;
use dmm_obs::Histogram;
use dmm_sim::stats::WindowMean;

/// Bucket layout shared by every per-interval response-time histogram:
/// log-linear edges from 10 µs to 10 s with 8 subdivisions per octave
/// (≈ 12 % worst-case relative bucket width). Agents of a quantile-goal
/// class all use this layout, so the coordinator can merge their
/// histograms bit-exactly in node order.
pub fn rt_histogram() -> Histogram {
    Histogram::log_linear(10_000, 10_000_000_000, 8)
}

/// One interval's summary from a local agent.
#[derive(Debug, PartialEq)]
pub struct AgentObservation {
    /// Reporting node.
    pub node: NodeId,
    /// Reporting class.
    pub class: ClassId,
    /// Mean response time over the interval (ms); `None` if no operation
    /// completed.
    pub mean_rt_ms: Option<f64>,
    /// Integer-exact response-time histogram (ns) over the interval;
    /// collected only for quantile-goal classes (see
    /// [`LocalAgent::enable_rt_histograms`]), `None` otherwise.
    pub rt_hist: Option<Histogram>,
    /// Operations completed in the interval.
    pub completions: u64,
    /// Observed arrival rate λ_{k,i} in ops/ms.
    pub arrival_rate_per_ms: f64,
    /// Page accesses against this class's pool during the interval.
    pub pool_accesses: u64,
    /// Hits among those accesses.
    pub pool_hits: u64,
    /// Granted dedicated frames at interval end.
    pub granted_pages: usize,
    /// Frames still available to this class on the node
    /// (`SIZEᵢ − Σ_{l≠k} LM_{l,i}`).
    pub avail_pages: usize,
}

/// `clone_from` reuses the target's histogram buffers, so a report copied
/// into a recycled observation of the same class allocates nothing.
impl Clone for AgentObservation {
    fn clone(&self) -> Self {
        AgentObservation {
            rt_hist: self.rt_hist.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let mut rt_hist = self.rt_hist.take();
        rt_hist.clone_from(&source.rt_hist);
        *self = AgentObservation { rt_hist, ..*source };
    }
}

impl AgentObservation {
    /// An observation of nothing yet: the buffer an agent drains into.
    fn empty(node: NodeId, class: ClassId) -> Self {
        AgentObservation {
            node,
            class,
            mean_rt_ms: None,
            rt_hist: None,
            completions: 0,
            arrival_rate_per_ms: 0.0,
            pool_accesses: 0,
            pool_hits: 0,
            granted_pages: 0,
            avail_pages: 0,
        }
    }

    /// Pool hit rate, if any accesses occurred.
    pub fn hit_rate(&self) -> Option<f64> {
        if self.pool_accesses == 0 {
            None
        } else {
            Some(self.pool_hits as f64 / self.pool_accesses as f64)
        }
    }
}

/// The per-(node, class) measurement agent.
#[derive(Debug)]
pub struct LocalAgent {
    node: NodeId,
    class: ClassId,
    rt_window: WindowMean,
    /// Per-interval response-time histogram (ns); allocated only for
    /// quantile-goal classes, so mean-goal runs pay nothing.
    rt_hist: Option<Histogram>,
    /// The last closed interval's observation. Its histogram and `rt_hist`
    /// swap at each boundary, so draining copies and allocates nothing.
    drained: AgentObservation,
    /// Lifetime completion count (never reset; used for makespan-style
    /// throughput accounting across the whole run).
    completions_total: u64,
    arrivals_in_interval: u64,
    last_pool_stats: PoolStats,
    last_reported_rt: Option<f64>,
    last_reported_alloc: usize,
    significance: f64,
}

impl LocalAgent {
    /// Agent with the given significance threshold (fractional response-time
    /// change that triggers a report; the paper reports "a significant
    /// change").
    pub fn new(node: NodeId, class: ClassId, significance: f64) -> Self {
        assert!(significance >= 0.0);
        LocalAgent {
            node,
            class,
            rt_window: WindowMean::new(),
            rt_hist: None,
            drained: AgentObservation::empty(node, class),
            completions_total: 0,
            arrivals_in_interval: 0,
            last_pool_stats: PoolStats::default(),
            last_reported_rt: None,
            last_reported_alloc: usize::MAX,
            significance,
        }
    }

    /// Node this agent runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Class this agent observes.
    pub fn class(&self) -> ClassId {
        self.class
    }

    /// Re-bases the pool-statistics snapshot (call when the data plane's
    /// cumulative counters are reset at the end of warm-up).
    pub fn reset_pool_baseline(&mut self) {
        self.last_pool_stats = PoolStats::default();
    }

    /// Records the arrival of one class operation at this node.
    pub fn on_arrival(&mut self) {
        self.arrivals_in_interval += 1;
    }

    /// Turns on per-interval response-time histogram collection (the
    /// [`rt_histogram`] layout). Called once at construction time for
    /// agents of quantile-goal classes; mean-goal agents never allocate a
    /// histogram, which keeps the mean-goal path byte-identical to the
    /// quantile-free implementation.
    pub fn enable_rt_histograms(&mut self) {
        self.rt_hist = Some(rt_histogram());
        self.drained.rt_hist = Some(rt_histogram());
    }

    /// Whether this agent collects response-time histograms.
    pub fn collects_rt_histograms(&self) -> bool {
        self.rt_hist.is_some()
    }

    /// Records the completion of one class operation (response time in ms).
    pub fn on_completion(&mut self, rt_ms: f64) {
        self.rt_window.push(rt_ms);
        self.completions_total += 1;
    }

    /// Lifetime number of completions this agent has seen (monotone; not
    /// reset at interval or warm-up boundaries).
    pub fn completions_total(&self) -> u64 {
        self.completions_total
    }

    /// Records the exact response time in nanoseconds into the interval
    /// histogram. No-op unless [`LocalAgent::enable_rt_histograms`] was
    /// called — the mean path is untouched either way.
    pub fn record_rt_ns(&mut self, rt_ns: u64) {
        if let Some(h) = &mut self.rt_hist {
            h.record(rt_ns);
        }
    }

    /// Closes the interval. `pool` is the *cumulative* stats of this class's
    /// pool on this node (the agent keeps the previous snapshot and
    /// differences internally). Returns the observation, which stays valid
    /// until the next boundary, and whether it is significant enough to
    /// send.
    pub fn end_interval(
        &mut self,
        interval_ms: f64,
        granted_pages: usize,
        avail_pages: usize,
        pool: PoolStats,
    ) -> (&AgentObservation, bool) {
        let (mean_rt_ms, completions) = match self.rt_window.drain() {
            Some((m, n)) => (Some(m), n),
            None => (None, 0),
        };
        // Drain the interval histogram (when collected): the observation
        // takes this interval's distribution and the agent starts fresh in
        // the buffer the previous interval's was drained into.
        if let (Some(live), Some(drained)) = (&mut self.rt_hist, &mut self.drained.rt_hist) {
            std::mem::swap(live, drained);
            live.reset();
        }
        let arrival_rate = self.arrivals_in_interval as f64 / interval_ms;
        self.arrivals_in_interval = 0;

        let accesses = (pool.hits + pool.misses)
            .saturating_sub(self.last_pool_stats.hits + self.last_pool_stats.misses);
        let hits = pool.hits.saturating_sub(self.last_pool_stats.hits);
        self.last_pool_stats = pool;

        let obs = &mut self.drained;
        obs.mean_rt_ms = mean_rt_ms;
        obs.completions = completions;
        obs.arrival_rate_per_ms = arrival_rate;
        obs.pool_accesses = accesses;
        obs.pool_hits = hits;
        obs.granted_pages = granted_pages;
        obs.avail_pages = avail_pages;

        let significant = self.is_significant(&self.drained);
        if significant {
            if let Some(rt) = self.drained.mean_rt_ms {
                self.last_reported_rt = Some(rt);
            }
            self.last_reported_alloc = granted_pages;
        }
        (&self.drained, significant)
    }

    fn is_significant(&self, obs: &AgentObservation) -> bool {
        if obs.granted_pages != self.last_reported_alloc {
            return true; // partitioning changed: new measure point needed
        }
        match (obs.mean_rt_ms, self.last_reported_rt) {
            (Some(rt), Some(prev)) => (rt - prev).abs() > self.significance * prev.max(1e-9),
            (Some(_), None) => true, // first data ever
            (None, _) => false,      // nothing new to say
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agent() -> LocalAgent {
        LocalAgent::new(NodeId(0), ClassId(1), 0.05)
    }

    fn stats(hits: u64, misses: u64) -> PoolStats {
        PoolStats {
            hits,
            misses,
            ..PoolStats::default()
        }
    }

    #[test]
    fn first_interval_with_data_is_significant() {
        let mut a = agent();
        a.on_arrival();
        a.on_completion(10.0);
        let (obs, sig) = a.end_interval(5000.0, 64, 512, stats(3, 1));
        assert!(sig);
        assert_eq!(obs.mean_rt_ms, Some(10.0));
        assert_eq!(obs.completions, 1);
        assert!((obs.arrival_rate_per_ms - 1.0 / 5000.0).abs() < 1e-12);
        assert_eq!(obs.pool_accesses, 4);
        assert_eq!(obs.hit_rate(), Some(0.75));
    }

    #[test]
    fn small_change_is_not_significant() {
        let mut a = agent();
        a.on_completion(10.0);
        let (_, sig) = a.end_interval(5000.0, 64, 512, stats(0, 0));
        assert!(sig);
        a.on_completion(10.2); // 2% change < 5% threshold
        let (_, sig) = a.end_interval(5000.0, 64, 512, stats(0, 0));
        assert!(!sig);
        a.on_completion(12.0); // vs last *reported* 10.0: 20%
        let (_, sig) = a.end_interval(5000.0, 64, 512, stats(0, 0));
        assert!(sig);
    }

    #[test]
    fn allocation_change_forces_report() {
        let mut a = agent();
        a.on_completion(10.0);
        let (_, sig) = a.end_interval(5000.0, 64, 512, stats(0, 0));
        assert!(sig);
        a.on_completion(10.0);
        let (_, sig) = a.end_interval(5000.0, 128, 512, stats(0, 0));
        assert!(sig, "new partitioning needs a new measure point");
    }

    #[test]
    fn empty_interval_not_significant() {
        let mut a = agent();
        a.on_completion(10.0);
        a.end_interval(5000.0, 64, 512, stats(0, 0));
        let (obs, sig) = a.end_interval(5000.0, 64, 512, stats(0, 0));
        assert!(!sig);
        assert_eq!(obs.mean_rt_ms, None);
        assert_eq!(obs.completions, 0);
    }

    #[test]
    fn pool_stats_are_differenced() {
        let mut a = agent();
        a.end_interval(5000.0, 0, 512, stats(10, 10));
        let (obs, _) = a.end_interval(5000.0, 0, 512, stats(25, 15));
        assert_eq!(obs.pool_hits, 15);
        assert_eq!(obs.pool_accesses, 20);
    }
}
