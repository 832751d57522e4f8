//! Measure-point management (paper §5, phase (b)).
//!
//! The coordinator of class `k` stores measure points
//! `(LM_{k,1}, …, LM_{k,N}) ↦ (RT̄_k, RT̄_0)` and must keep the `N+1` most
//! recent points whose difference vectors are linearly independent so the
//! hyperplane approximation of phase (d) is unique. A new report either
//! *updates* the most recent point (same partitioning, fresher response
//! times) or *creates* a new point (the partitioning changed); insertion
//! uses the `O(N²)` incremental Gauss tracker, with a full re-selection
//! fallback when recency and independence conflict.

use dmm_linalg::incremental::select_independent_newest;
use dmm_sim::{SimDuration, SimTime};

/// One measurement: the class's granted allocation vector (MB per node) and
/// the weighted-mean response times observed under it.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurePoint {
    /// Granted dedicated buffer per node, in MB.
    pub alloc_mb: Vec<f64>,
    /// Weighted mean response time of the goal class (ms, Eq. 4 weighting).
    pub rt_class_ms: f64,
    /// Weighted mean response time of the no-goal class (ms).
    pub rt_nogoal_ms: f64,
    /// When the measurement was recorded.
    pub at: SimTime,
}

/// Bounded history of measure points with independent-subset selection.
#[derive(Debug, Clone)]
pub struct MeasureStore {
    nodes: usize,
    /// All retained points, oldest first.
    history: Vec<MeasurePoint>,
    /// Indices into `history` of the selected independent points, newest
    /// first. Invariant: differences to the newest are linearly independent.
    selected: Vec<usize>,
    /// Relative tolerance for allocation equality and independence tests.
    tol: f64,
    /// Override of [`MeasureStore::needed`] while the cluster is degraded:
    /// with `d` nodes down, every new allocation vector carries zeros at the
    /// dead indices, so at most `(N − d) + 1` affinely independent points
    /// exist and waiting for `N + 1` would starve the fit forever.
    rank_target: Option<usize>,
    max_history: usize,
    /// Points older than this are dropped: the response-time surface drifts
    /// with the workload, and a stale direction must be re-probed rather
    /// than trusted (the paper's "dynamic" property, §1).
    max_age: SimDuration,
}

impl MeasureStore {
    /// Store for an `nodes`-node system. Retains at most `4·(N+1)` points.
    ///
    /// The staleness horizon scales with the rank target: a full-rank fit
    /// needs `N + 1` affinely independent points, and the warm-up prober
    /// accrues at most one new direction per ~3 observation intervals (the
    /// probed interval plus the settling checks an allocation change
    /// shadows). A fixed horizon therefore starves the fit forever once
    /// `N` is large enough — at 5 s intervals the old 300 s default
    /// retains ~20 probe points, while N = 64 needs 65 — so the default
    /// is `4·(N+1)` intervals' worth of seconds, floored at the original
    /// 300 s (the floor keeps every `N ≤ 14` configuration byte-identical).
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0);
        let horizon_secs = (5 * 4 * (nodes as u64 + 1)).max(300);
        MeasureStore {
            nodes,
            history: Vec::new(),
            selected: Vec::new(),
            tol: 1e-9,
            rank_target: None,
            max_history: 4 * (nodes + 1),
            max_age: SimDuration::from_secs(horizon_secs),
        }
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// True if no points are retained.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// Number of points needed for a unique hyperplane fit: `N + 1`, or the
    /// degraded-topology override set via [`MeasureStore::set_rank_target`].
    pub fn needed(&self) -> usize {
        self.rank_target.unwrap_or(self.nodes + 1)
    }

    /// Overrides the full-rank point count while nodes are down (pass
    /// `live + 1` for `live` surviving nodes); `None` restores `N + 1`.
    /// Takes effect on the next [`MeasureStore::record`]/reselection.
    pub fn set_rank_target(&mut self, target: Option<usize>) {
        if let Some(t) = target {
            assert!((2..=self.nodes + 1).contains(&t), "rank target in [2, N+1]");
        }
        self.rank_target = target;
        self.reselect();
    }

    /// True once `N+1` independent points are available.
    pub fn has_full_rank(&self) -> bool {
        self.selected.len() >= self.needed()
    }

    /// Records a report. If `alloc_mb` equals the newest point's allocation
    /// (within tolerance) the newest point's response times are refreshed;
    /// otherwise a new point is appended and the independent subset is
    /// re-derived (incremental in the common case).
    pub fn record(&mut self, alloc_mb: Vec<f64>, rt_class_ms: f64, rt_nogoal_ms: f64, at: SimTime) {
        assert_eq!(alloc_mb.len(), self.nodes);
        assert!(rt_class_ms.is_finite() && rt_nogoal_ms.is_finite());
        if let Some(last) = self.history.last_mut() {
            if Self::same_alloc(&last.alloc_mb, &alloc_mb, self.tol) {
                // Same partitioning: blend response times for stability
                // (fresh data dominates).
                last.rt_class_ms = 0.5 * (last.rt_class_ms + rt_class_ms);
                last.rt_nogoal_ms = 0.5 * (last.rt_nogoal_ms + rt_nogoal_ms);
                last.at = at;
                return;
            }
        }
        self.history.push(MeasurePoint {
            alloc_mb,
            rt_class_ms,
            rt_nogoal_ms,
            at,
        });
        let horizon = self.max_age;
        self.history.retain(|p| at.since(p.at) <= horizon);
        if self.history.len() > self.max_history {
            let drop = self.history.len() - self.max_history;
            self.history.drain(..drop);
        }
        self.reselect();
    }

    /// The selected independent points, newest first.
    pub fn selected_points(&self) -> Vec<&MeasurePoint> {
        self.selected.iter().map(|&i| &self.history[i]).collect()
    }

    /// Points for the hyperplane fit: the independent subset (guaranteeing a
    /// unique solution) plus the most recent other points, up to `2·(N+1)`
    /// total. The extras turn the exact interpolation into a least-squares
    /// fit, averaging out per-interval measurement noise.
    pub fn fit_points(&self) -> Vec<&MeasurePoint> {
        let mut idx: Vec<usize> = self.selected.clone();
        for i in (0..self.history.len()).rev() {
            if idx.len() >= 2 * self.needed() {
                break;
            }
            if !idx.contains(&i) {
                idx.push(i);
            }
        }
        idx.iter().map(|&i| &self.history[i]).collect()
    }

    /// True if recording a point with allocation `alloc_mb` would create a
    /// *new* independent direction (used by the warm-up prober to guarantee
    /// progress, §5(b)).
    pub fn would_extend_rank(&self, alloc_mb: &[f64]) -> bool {
        if self.history.is_empty() {
            return true;
        }
        let mut allocs: Vec<Vec<f64>> = self
            .selected
            .iter()
            .rev() // oldest first
            .map(|&i| self.history[i].alloc_mb.clone())
            .collect();
        allocs.push(alloc_mb.to_vec());
        let sel = select_independent_newest(&allocs, self.needed(), self.tol);
        // The affine rank of the selected set is (count − 1); the candidate
        // extends it iff the new selection is strictly larger.
        let old_rank = self.selected.len().saturating_sub(1);
        let new_rank = sel.len().saturating_sub(1);
        new_rank > old_rank
    }

    /// Drops all points (e.g. after a drastic workload change).
    pub fn clear(&mut self) {
        self.history.clear();
        self.selected.clear();
    }

    fn reselect(&mut self) {
        let allocs: Vec<Vec<f64>> = self.history.iter().map(|p| p.alloc_mb.clone()).collect();
        self.selected = select_independent_newest(&allocs, self.needed(), self.tol);
    }

    fn same_alloc(a: &[f64], b: &[f64], tol: f64) -> bool {
        let scale = a.iter().chain(b).fold(1.0f64, |s, x| s.max(x.abs()));
        a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol * scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn same_allocation_updates_in_place() {
        let mut s = MeasureStore::new(3);
        s.record(vec![1.0, 1.0, 1.0], 10.0, 5.0, t(1));
        s.record(vec![1.0, 1.0, 1.0], 6.0, 5.0, t(2));
        assert_eq!(s.len(), 1);
        let p = s.selected_points();
        assert!((p[0].rt_class_ms - 8.0).abs() < 1e-12, "blended mean");
    }

    #[test]
    fn reaches_full_rank_with_probes() {
        let mut s = MeasureStore::new(3);
        // Probe sequence: base + unit perturbation per node.
        s.record(vec![0.5, 0.5, 0.5], 10.0, 5.0, t(1));
        assert!(!s.has_full_rank());
        s.record(vec![1.0, 0.5, 0.5], 9.0, 5.2, t(2));
        s.record(vec![0.5, 1.0, 0.5], 9.1, 5.1, t(3));
        assert!(!s.has_full_rank());
        s.record(vec![0.5, 0.5, 1.0], 9.2, 5.3, t(4));
        assert!(s.has_full_rank());
        assert_eq!(s.selected_points().len(), 4);
    }

    #[test]
    fn dependent_point_does_not_reach_rank() {
        let mut s = MeasureStore::new(2);
        s.record(vec![0.0, 0.0], 10.0, 5.0, t(1));
        s.record(vec![1.0, 1.0], 8.0, 5.5, t(2));
        s.record(vec![2.0, 2.0], 6.0, 6.0, t(3)); // collinear
        assert!(!s.has_full_rank());
        s.record(vec![2.0, 0.0], 7.0, 5.8, t(4));
        assert!(s.has_full_rank());
    }

    #[test]
    fn selection_prefers_recent_points() {
        let mut s = MeasureStore::new(2);
        s.record(vec![0.0, 0.0], 10.0, 5.0, t(1));
        s.record(vec![1.0, 0.0], 9.0, 5.0, t(2));
        s.record(vec![0.0, 1.0], 9.5, 5.0, t(3));
        s.record(vec![1.0, 1.0], 8.0, 5.0, t(4));
        assert!(s.has_full_rank());
        let pts = s.selected_points();
        // Newest point always selected first.
        assert_eq!(pts[0].alloc_mb, vec![1.0, 1.0]);
        assert_eq!(pts.len(), 3);
    }

    #[test]
    fn history_is_bounded() {
        let mut s = MeasureStore::new(2);
        for i in 0..100 {
            s.record(vec![i as f64, (i * i % 7) as f64], 5.0, 5.0, t(i));
        }
        assert!(s.len() <= 4 * 3);
        assert!(s.has_full_rank());
    }

    #[test]
    fn would_extend_rank_detects_new_directions() {
        let mut s = MeasureStore::new(2);
        assert!(s.would_extend_rank(&[0.5, 0.5]));
        s.record(vec![0.5, 0.5], 10.0, 5.0, t(1));
        assert!(s.would_extend_rank(&[1.0, 0.5]));
        s.record(vec![1.0, 0.5], 9.0, 5.0, t(2));
        // Collinear continuation adds no rank.
        assert!(!s.would_extend_rank(&[1.5, 0.5]));
        assert!(s.would_extend_rank(&[0.5, 1.0]));
    }

    #[test]
    fn clear_resets() {
        let mut s = MeasureStore::new(2);
        s.record(vec![1.0, 0.0], 9.0, 5.0, t(1));
        s.clear();
        assert!(s.is_empty());
        assert!(!s.has_full_rank());
    }
}
