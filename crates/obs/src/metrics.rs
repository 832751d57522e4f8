//! Metrics primitives: fixed-bucket histograms and the [`MetricsSnapshot`]
//! that aggregates them with named counters and gauges.
//!
//! Everything here is integer-exact where it matters for determinism:
//! histograms record `u64` values (the simulator's native nanoseconds) with
//! saturating integer totals, so merging per-component instances is exactly
//! associative and commutative — per-thread or per-node metrics can be
//! combined in any grouping and produce bit-identical snapshots.

use crate::json::Json;

/// Entries of [`Histogram`]'s bit-length index: one per bit length 0..=64,
/// plus the end of the last range.
const BIT_LENGTHS: usize = 66;

/// A fixed-bucket histogram over `u64` values (typically nanoseconds).
///
/// `bounds` are inclusive upper bucket edges; one overflow bucket catches
/// everything above the last edge. Totals saturate instead of wrapping,
/// which keeps [`merge`](Histogram::merge) associative and commutative.
#[derive(Debug, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// `index[k]` is the number of edges below `2^(k-1)`, the smallest value
    /// of bit length `k` (`index[0] = 0`, `index[65] = bounds.len()`). A
    /// value of bit length `k` is above every edge before `index[k]` and at
    /// most every edge from `index[k + 1]` on, so [`record`](Self::record)
    /// searches only the edges in between: at most 2 for a doubling layout,
    /// at most `steps + 1` for a log-linear one.
    index: [u16; BIT_LENGTHS],
    counts: Vec<u64>,
    total: u64,
    count: u64,
    /// Smallest recorded value (`u64::MAX` sentinel while empty).
    min_seen: u64,
    /// Largest recorded value (0 while empty).
    max_seen: u64,
}

/// `clone_from` reuses the target's buffers: copying a histogram into one
/// of the same layout allocates nothing.
impl Clone for Histogram {
    fn clone(&self) -> Self {
        Histogram {
            bounds: self.bounds.clone(),
            counts: self.counts.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let mut bounds = std::mem::take(&mut self.bounds);
        let mut counts = std::mem::take(&mut self.counts);
        bounds.clone_from(&source.bounds);
        counts.clone_from(&source.counts);
        *self = Histogram {
            bounds,
            counts,
            ..*source
        };
    }
}

impl Histogram {
    /// Histogram with the given inclusive upper bucket edges (must be
    /// strictly increasing, non-empty and fewer than 65 535).
    pub fn new(bounds: Vec<u64>) -> Self {
        assert!(
            Histogram::valid_bounds(&bounds),
            "histogram bounds must be non-empty, strictly increasing and fewer than 65 535"
        );
        Histogram::from_valid_bounds(bounds)
    }

    /// Whether [`Histogram::new`] accepts `bounds`.
    fn valid_bounds(bounds: &[u64]) -> bool {
        !bounds.is_empty()
            && bounds.windows(2).all(|w| w[0] < w[1])
            && bounds.len() < usize::from(u16::MAX)
    }

    /// An empty histogram over bounds already checked by
    /// [`valid_bounds`](Self::valid_bounds).
    fn from_valid_bounds(bounds: Vec<u64>) -> Self {
        let index = std::array::from_fn(|k| match k {
            0 => 0,
            k if k == BIT_LENGTHS - 1 => bounds.len() as u16,
            k => bounds.partition_point(|&b| b < 1u64 << (k - 1)) as u16,
        });
        let n = bounds.len() + 1;
        Histogram {
            bounds,
            index,
            counts: vec![0; n],
            total: 0,
            count: 0,
            min_seen: u64::MAX,
            max_seen: 0,
        }
    }

    /// Doubling bucket edges: `first, 2·first, …` for `buckets` edges. With
    /// `first = 1 µs` and 24 buckets the last edge is ≈ 8.4 s — the full
    /// dynamic range of the simulator's queue waits.
    pub fn exponential(first: u64, buckets: usize) -> Self {
        assert!(first > 0 && buckets > 0);
        let mut bounds = Vec::with_capacity(buckets);
        let mut edge = first;
        for _ in 0..buckets {
            bounds.push(edge);
            edge = edge.saturating_mul(2);
        }
        bounds.dedup(); // saturation can repeat u64::MAX
        Histogram::new(bounds)
    }

    /// Log-linear bucket edges: each octave `[b, 2b)` is subdivided into
    /// `steps_per_octave` equal-width buckets, giving a bounded *relative*
    /// bucket width of `1/steps_per_octave` across the whole range — fine
    /// enough for quantile extraction where [`Histogram::exponential`]'s
    /// doubling edges are too coarse. All edges are computed with integer
    /// arithmetic (`b·(steps+j)/steps`), so the layout is bit-identical on
    /// every platform. Edges saturate at `u64::MAX`, which ends the layout
    /// whatever `last` is.
    pub fn log_linear(first: u64, last: u64, steps_per_octave: u64) -> Self {
        assert!(first > 0 && steps_per_octave > 0 && last > first);
        let mut bounds: Vec<u64> = Vec::new();
        let push = |edge: u64, bounds: &mut Vec<u64>| {
            if bounds.last().is_none_or(|&b| edge > b) {
                bounds.push(edge);
            }
        };
        let mut base = first;
        'octaves: loop {
            for j in 0..steps_per_octave {
                // Widened so an edge past the rail saturates instead of
                // collapsing to `u64::MAX / steps`, which could never reach
                // `last`.
                let edge = (u128::from(base) * u128::from(steps_per_octave + j)
                    / u128::from(steps_per_octave))
                .min(u128::from(u64::MAX)) as u64;
                push(edge, &mut bounds);
                if edge >= last {
                    break 'octaves;
                }
            }
            base = base.saturating_mul(2);
        }
        Histogram::new(bounds)
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let bits = (u64::BITS - value.leading_zeros()) as usize;
        let lo = usize::from(self.index[bits]);
        let hi = usize::from(self.index[bits + 1]);
        let idx = lo + self.bounds[lo..hi].partition_point(|&b| b < value);
        self.counts[idx] += 1;
        self.total = self.total.saturating_add(value);
        self.count += 1;
        self.min_seen = self.min_seen.min(value);
        self.max_seen = self.max_seen.max(value);
    }

    /// Merges another histogram with identical bounds into this one.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "merge needs identical buckets");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c = c.saturating_add(*o);
        }
        self.total = self.total.saturating_add(other.total);
        self.count = self.count.saturating_add(other.count);
        self.min_seen = self.min_seen.min(other.min_seen);
        self.max_seen = self.max_seen.max(other.max_seen);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of recorded values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Smallest recorded value, `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min_seen)
    }

    /// Largest recorded value, `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max_seen)
    }

    /// Deterministic nearest-rank quantile, `None` if empty.
    ///
    /// Walks the cumulative bucket counts to the bucket holding the
    /// `⌈q·count⌉`-th value and returns that bucket's inclusive upper edge,
    /// clamped into `[min, max]` of the recorded values. Properties that
    /// hold by construction (and are pinned by property tests):
    ///
    /// * monotone non-decreasing in `q`;
    /// * always bracketed by the observed min and max;
    /// * invariant under merge order (bucket counts and min/max merge
    ///   commutatively);
    /// * exact when all recorded values are equal (the clamp collapses the
    ///   bucket edge onto the single value);
    /// * defined for values in the overflow bucket (returns the observed
    ///   max rather than an edge) — never panics.
    ///
    /// `q` is clamped into `[0, 1]`; NaN reads as 0 (the minimum).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        // Nearest rank: the smallest k with cumulative(k) ≥ ⌈q·count⌉.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative = cumulative.saturating_add(c);
            if cumulative >= target {
                let edge = self.bounds.get(i).copied().unwrap_or(self.max_seen);
                return Some(edge.clamp(self.min_seen, self.max_seen));
            }
        }
        Some(self.max_seen)
    }

    /// The inclusive upper bucket edges.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds.len() + 1` entries; last is overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Drops all recorded values, keeping the bucket layout.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.count = 0;
        self.min_seen = u64::MAX;
        self.max_seen = 0;
    }

    /// JSON form (`bounds`, `counts`, `total`, `count`, `min`, `max`).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("bounds", self.bounds.as_slice())
            .field("counts", self.counts.as_slice())
            .field("total", self.total)
            .field("count", self.count)
            .field("min", self.min_seen)
            .field("max", self.max_seen)
    }

    /// Rebuilds from [`Histogram::to_json`] output; `None` for a malformed
    /// record, including bounds [`Histogram::new`] would refuse.
    pub fn from_json(json: &Json) -> Option<Histogram> {
        let arr_u64 = |key: &str| -> Option<Vec<u64>> {
            json.get(key)?.as_arr()?.iter().map(Json::as_u64).collect()
        };
        let bounds = arr_u64("bounds")?;
        let counts = arr_u64("counts")?;
        if !Histogram::valid_bounds(&bounds) || counts.len() != bounds.len() + 1 {
            return None;
        }
        // min/max were added alongside quantile extraction; tolerate their
        // absence in snapshots written before that (empty-histogram
        // sentinels are the only honest reconstruction).
        Some(Histogram {
            counts,
            total: json.get("total")?.as_u64()?,
            count: json.get("count")?.as_u64()?,
            min_seen: json.get("min").and_then(Json::as_u64).unwrap_or(u64::MAX),
            max_seen: json.get("max").and_then(Json::as_u64).unwrap_or(0),
            ..Histogram::from_valid_bounds(bounds)
        })
    }
}

/// First edge of the queue-wait layout, in nanoseconds (1 µs).
const WAIT_FIRST_EDGE: u64 = 1_000;
/// Doubling edges of the queue-wait layout (the last is ≈ 1.05 s).
const WAIT_EDGES: usize = 21;

/// Queue waits counted in closed form: the counts
/// `Histogram::exponential(1_000, 21)` would hold, kept inline in a
/// fixed-size array so recording needs no search and no heap access.
///
/// A value `v` falls in bucket 0 when `v ≤ 1000`, else in bucket
/// `min(bit_length((v − 1) / 1000), 21)` (21 is the overflow bucket): `v`
/// lies in `(1000·2^(k−1), 1000·2^k]` exactly when `(v − 1) / 1000` lies
/// in `[2^(k−1), 2^k)`. [`to_histogram`](Self::to_histogram) hands back the
/// identical [`Histogram`], and totals saturate the same way, so snapshots
/// built from these counts are byte-identical to recording the histogram
/// directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitCounts {
    counts: [u64; WAIT_EDGES + 1],
    total: u64,
    count: u64,
    /// Smallest recorded value (`u64::MAX` sentinel while empty).
    min_seen: u64,
    /// Largest recorded value (0 while empty).
    max_seen: u64,
}

impl Default for WaitCounts {
    fn default() -> Self {
        Self::new()
    }
}

impl WaitCounts {
    /// No waits recorded.
    pub const fn new() -> Self {
        WaitCounts {
            counts: [0; WAIT_EDGES + 1],
            total: 0,
            count: 0,
            min_seen: u64::MAX,
            max_seen: 0,
        }
    }

    /// The bucket `value` falls in (`WAIT_EDGES` = overflow).
    #[inline]
    fn bucket(value: u64) -> usize {
        // `saturating_sub` folds 0 into the `v ≤ 1000` case.
        let above = value.saturating_sub(1) / WAIT_FIRST_EDGE;
        ((u64::BITS - above.leading_zeros()) as usize).min(WAIT_EDGES)
    }

    /// Records one wait, in nanoseconds.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket(value)] += 1;
        self.total = self.total.saturating_add(value);
        self.count += 1;
        self.min_seen = self.min_seen.min(value);
        self.max_seen = self.max_seen.max(value);
    }

    /// Adds `other`'s counts, as [`Histogram::merge`] would.
    pub fn merge(&mut self, other: &WaitCounts) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c = c.saturating_add(*o);
        }
        self.total = self.total.saturating_add(other.total);
        self.count = self.count.saturating_add(other.count);
        self.min_seen = self.min_seen.min(other.min_seen);
        self.max_seen = self.max_seen.max(other.max_seen);
    }

    /// Sum of the recorded waits, in nanoseconds (saturating).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of recorded waits.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Drops all recorded waits.
    pub fn reset(&mut self) {
        *self = WaitCounts::new();
    }

    /// The same counts as a `Histogram::exponential(1_000, 21)`.
    pub fn to_histogram(&self) -> Histogram {
        let mut h = Histogram::exponential(WAIT_FIRST_EDGE, WAIT_EDGES);
        h.counts.copy_from_slice(&self.counts);
        h.total = self.total;
        h.count = self.count;
        h.min_seen = self.min_seen;
        h.max_seen = self.max_seen;
        h
    }
}

/// A point-in-time aggregation of named counters, gauges and histograms.
///
/// Components *fill* a snapshot (each under its own name prefix); the order
/// of insertion is preserved, so a snapshot built by deterministic code
/// serializes identically on every run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, Histogram)>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        MetricsSnapshot::default()
    }

    /// Records a named counter value.
    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.push((name.into(), value));
    }

    /// Records a named gauge value.
    pub fn gauge(&mut self, name: impl Into<String>, value: f64) {
        self.gauges.push((name.into(), value));
    }

    /// Records a named histogram.
    pub fn histogram(&mut self, name: impl Into<String>, hist: Histogram) {
        self.histograms.push((name.into(), hist));
    }

    /// Looks up a counter by name.
    pub fn get_counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn get_gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram by name.
    pub fn get_histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// All counters in insertion order.
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    /// All gauges in insertion order.
    pub fn gauges(&self) -> &[(String, f64)] {
        &self.gauges
    }

    /// All histograms in insertion order.
    pub fn histograms(&self) -> &[(String, Histogram)] {
        &self.histograms
    }

    /// JSON form: `{"counters":{…},"gauges":{…},"histograms":{…}}`.
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(n, v)| (n.clone(), Json::U64(*v)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(n, v)| (n.clone(), Json::F64(*v)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(n, h)| (n.clone(), h.to_json()))
                .collect(),
        );
        Json::obj()
            .field("counters", counters)
            .field("gauges", gauges)
            .field("histograms", histograms)
    }

    /// Rebuilds from [`MetricsSnapshot::to_json`] output.
    pub fn from_json(json: &Json) -> Option<MetricsSnapshot> {
        let mut snap = MetricsSnapshot::new();
        for (name, v) in json.get("counters")?.as_obj()? {
            snap.counters.push((name.clone(), v.as_u64()?));
        }
        for (name, v) in json.get("gauges")?.as_obj()? {
            snap.gauges.push((name.clone(), v.as_f64()?));
        }
        for (name, v) in json.get("histograms")?.as_obj()? {
            snap.histograms
                .push((name.clone(), Histogram::from_json(v)?));
        }
        Some(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_values() {
        let mut h = Histogram::new(vec![10, 100, 1000]);
        for v in [5, 10, 11, 100, 5000] {
            h.record(v);
        }
        assert_eq!(h.counts(), &[2, 2, 0, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.total(), 5126);
        assert!((h.mean() - 5126.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn clone_from_copies_into_the_targets_buffers() {
        let mut source = Histogram::log_linear(10, 10_000, 4);
        for v in [7, 40, 41, 9_000, 50_000] {
            source.record(v);
        }
        let mut target = Histogram::log_linear(10, 10_000, 4);
        target.record(3);
        let counts = target.counts().as_ptr();
        target.clone_from(&source);
        assert_eq!(target, source);
        assert_eq!(target.counts().as_ptr(), counts, "buffer reused");
        assert_eq!(target.quantile(0.5), source.quantile(0.5));
    }

    #[test]
    fn exponential_layout() {
        let h = Histogram::exponential(1_000, 24);
        assert_eq!(h.bounds().len(), 24);
        assert_eq!(h.bounds()[0], 1_000);
        assert_eq!(h.bounds()[23], 1_000 << 23);
    }

    #[test]
    fn quantile_walks_cumulative_counts() {
        let mut h = Histogram::new(vec![10, 100, 1000]);
        for v in [5, 7, 50, 60, 900, 950, 5000] {
            h.record(v);
        }
        assert_eq!(h.min(), Some(5));
        assert_eq!(h.max(), Some(5000));
        // rank ⌈0.25·7⌉ = 2 → first bucket (edge 10)
        assert_eq!(h.quantile(0.25), Some(10));
        // rank ⌈0.5·7⌉ = 4 → second bucket (edge 100)
        assert_eq!(h.quantile(0.5), Some(100));
        // rank 7 → overflow bucket → observed max, not an edge
        assert_eq!(h.quantile(1.0), Some(5000));
        // q ≤ 0 → rank 1, first bucket's edge
        assert_eq!(h.quantile(0.0), Some(10));
        assert_eq!(h.quantile(f64::NAN), Some(10));
    }

    #[test]
    fn quantile_on_empty_is_none() {
        let h = Histogram::new(vec![10]);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn quantile_exact_on_point_distribution() {
        let mut h = Histogram::exponential(1_000, 24);
        for _ in 0..100 {
            h.record(37_500);
        }
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(h.quantile(q), Some(37_500));
        }
    }

    #[test]
    fn log_linear_layout_is_fine_grained() {
        let h = Histogram::log_linear(10_000, 10_000_000_000, 8);
        let b = h.bounds();
        assert_eq!(b[0], 10_000);
        assert!(*b.last().unwrap() >= 10_000_000_000);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        // Relative width stays within one subdivision step.
        assert!(b
            .windows(2)
            .all(|w| (w[1] - w[0]) as f64 / w[0] as f64 <= 1.0 / 8.0 + 1e-9));
    }

    #[test]
    fn log_linear_ends_at_the_rail_when_last_is_u64_max() {
        let h = Histogram::log_linear(10_000, u64::MAX, 8);
        let b = h.bounds();
        assert_eq!(b[0], 10_000);
        assert_eq!(*b.last().unwrap(), u64::MAX);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn log_linear_below_one_edge_per_step_dedups() {
        // With first < steps, the first octaves repeat edges (1·(8+j)/8 = 1
        // for every j); only strictly increasing ones are kept.
        let h = Histogram::log_linear(1, 100, 8);
        let b = h.bounds();
        assert_eq!(&b[..4], &[1, 2, 3, 4]);
        assert!(*b.last().unwrap() >= 100);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn from_json_refuses_bounds_new_refuses() {
        let good = Histogram::new(vec![10, 100]).to_json();
        assert!(Histogram::from_json(&good).is_some());
        let with_bounds = |bounds: &[u64], counts: &[u64]| {
            Json::obj()
                .field("bounds", bounds)
                .field("counts", counts)
                .field("total", 0u64)
                .field("count", 0u64)
        };
        assert_eq!(Histogram::from_json(&with_bounds(&[], &[0])), None);
        assert_eq!(
            Histogram::from_json(&with_bounds(&[10, 10], &[0, 0, 0])),
            None
        );
        assert_eq!(
            Histogram::from_json(&with_bounds(&[100, 10], &[0, 0, 0])),
            None
        );
    }

    #[test]
    fn merge_adds() {
        let mut a = Histogram::new(vec![10, 100]);
        let mut b = a.clone();
        a.record(5);
        b.record(50);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 1, 1]);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut h = Histogram::exponential(1, 4);
        h.record(3);
        let mut s = MetricsSnapshot::new();
        s.counter("sim.events", 42);
        s.gauge("net.utilization", 0.25);
        s.histogram("disk.wait_ns", h);
        let json = s.to_json();
        let back = MetricsSnapshot::from_json(&json).expect("roundtrips");
        assert_eq!(back, s);
        assert_eq!(back.get_counter("sim.events"), Some(42));
    }
}
