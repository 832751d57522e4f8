//! Class specifications.

use std::fmt;

use dmm_buffer::{ClassId, PageId, NO_GOAL};
use dmm_sim::SimTime;

/// A step change of a class's arrival rates at a given instant — the
/// "evolving workload" of the paper's §1 ("it is dynamic in that it copes
/// with evolving workload characteristics").
#[derive(Debug, Clone, PartialEq)]
pub struct RateShift {
    /// When the new rates take effect.
    pub at: SimTime,
    /// New per-node arrival rates (ops/ms).
    pub arrival_per_ms: Vec<f64>,
}

/// Which response-time statistic a class's goal constrains.
///
/// The paper's controller targets the *mean* per-interval response time;
/// production SLOs are usually tail targets. A quantile goal drives the
/// whole measure → check → optimize loop off the per-interval per-class
/// quantile extracted from integer-exact response-time histograms instead
/// of the windowed mean — everything downstream (tolerance, measure store,
/// hyperplane fit) consumes the chosen statistic transparently.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum GoalMetric {
    /// Goal on the interval mean response time (the paper's semantics).
    #[default]
    Mean,
    /// Goal on the interval `q`-quantile of response time, `0 < q < 1`
    /// (e.g. `q = 0.95` for a p95 goal).
    Quantile {
        /// The quantile, exclusive in (0, 1).
        q: f64,
    },
}

impl GoalMetric {
    /// True for a quantile goal.
    pub fn is_quantile(&self) -> bool {
        matches!(self, GoalMetric::Quantile { .. })
    }

    /// The quantile `q` for quantile goals, `None` for mean goals.
    pub fn quantile(&self) -> Option<f64> {
        match self {
            GoalMetric::Mean => None,
            GoalMetric::Quantile { q } => Some(*q),
        }
    }

    /// Compact label: `"mean"`, or `"p95"` / `"p99.9"` for quantiles
    /// (per-mille precision, trailing zero dropped). The [`fmt::Display`]
    /// form, which writes it without allocating.
    pub fn label(&self) -> String {
        self.to_string()
    }

    /// Validates the metric (quantile must lie strictly inside (0, 1)).
    pub fn validate(&self) -> Result<(), String> {
        match self {
            GoalMetric::Quantile { q } if !(q.is_finite() && *q > 0.0 && *q < 1.0) => {
                Err(format!("goal quantile must lie in (0, 1), got {q}"))
            }
            _ => Ok(()),
        }
    }
}

/// The compact [`GoalMetric::label`]: `mean`, `p95`, `p99.9`, …
impl fmt::Display for GoalMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GoalMetric::Mean => f.write_str("mean"),
            GoalMetric::Quantile { q } => {
                let permille = (q * 1000.0).round() as u64;
                if permille.is_multiple_of(10) {
                    write!(f, "p{}", permille / 10)
                } else {
                    write!(f, "p{}.{}", permille / 10, permille % 10)
                }
            }
        }
    }
}

/// One workload class: its goal, complexity, access skew, page set and
/// per-node arrival rates.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSpec {
    /// Class identity (0 = no-goal).
    pub class: ClassId,
    /// Response time goal in milliseconds (on the statistic selected by
    /// [`ClassSpec::goal_metric`]); `None` for the no-goal class.
    pub goal_ms: Option<f64>,
    /// Which response-time statistic the goal constrains.
    pub goal_metric: GoalMetric,
    /// Page accesses per operation (§7.2 base experiment: 4).
    pub pages_per_op: usize,
    /// Zipf skew θ over this class's page set (0 = uniform).
    pub zipf_theta: f64,
    /// The class's page set, ranked hottest first (index = Zipf rank).
    pub pages: Vec<PageId>,
    /// Arrival rate λ_{k,i} in operations per millisecond, per node.
    pub arrival_per_ms: Vec<f64>,
    /// Scheduled step changes of the arrival rates, in time order.
    pub rate_shifts: Vec<RateShift>,
}

impl ClassSpec {
    /// The arrival rates in force at `now` (the base rates until the first
    /// shift, then the most recent shift's rates).
    pub fn rates_at(&self, now: SimTime) -> &[f64] {
        self.rate_shifts
            .iter()
            .rev()
            .find(|s| s.at <= now)
            .map_or(&self.arrival_per_ms, |s| &s.arrival_per_ms)
    }
}

impl ClassSpec {
    /// True for a goal class.
    pub fn is_goal_class(&self) -> bool {
        self.goal_ms.is_some()
    }

    /// Validates internal consistency; the error names the class and the
    /// first fault found.
    pub fn validate(&self, nodes: usize, db_pages: u32) -> Result<(), String> {
        let rates_ok = |rates: &[f64]| rates.len() == nodes && rates.iter().all(|&r| r >= 0.0);
        let no_goal = self.class == NO_GOAL;
        let checks = [
            (!self.pages.is_empty(), "empty page set"),
            (
                self.pages.iter().all(|p| p.0 < db_pages),
                "page outside database",
            ),
            (self.pages_per_op >= 1, "no page per operation"),
            (self.zipf_theta >= 0.0, "negative skew theta"),
            (
                rates_ok(&self.arrival_per_ms),
                "arrival rates must be ≥ 0, one per node",
            ),
            (
                self.rate_shifts.iter().all(|s| rates_ok(&s.arrival_per_ms)),
                "shift rates must be ≥ 0, one per node",
            ),
            (
                self.rate_shifts.windows(2).all(|w| w[0].at < w[1].at),
                "rate shifts must be in time order",
            ),
            (
                !no_goal || self.goal_ms.is_none(),
                "no-goal class cannot carry a goal",
            ),
            (
                !no_goal || !self.goal_metric.is_quantile(),
                "no-goal class cannot carry a quantile goal metric",
            ),
            (no_goal || self.goal_ms.is_some(), "goal class needs a goal"),
            (
                self.goal_ms.is_none_or(|g| g > 0.0),
                "goal must be positive",
            ),
        ];
        if let Some((_, fault)) = checks.iter().find(|(ok, _)| !ok) {
            return Err(format!("{}: {fault}", self.class));
        }
        self.goal_metric
            .validate()
            .map_err(|e| format!("{}: {e}", self.class))
    }
}

/// The complete workload: one spec per class, class ids contiguous from 0.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Class specs; index = class id.
    pub classes: Vec<ClassSpec>,
}

impl WorkloadSpec {
    /// Validates the whole workload against a cluster shape: the no-goal
    /// class first, then goal classes, ids contiguous from 0.
    pub fn validate(&self, nodes: usize, db_pages: u32) -> Result<(), String> {
        if self.classes.is_empty() {
            return Err("no classes, not even the no-goal class".to_string());
        }
        for (i, c) in self.classes.iter().enumerate() {
            if c.class.index() != i {
                return Err(format!(
                    "{} at index {i}: class ids must be contiguous",
                    c.class
                ));
            }
            c.validate(nodes, db_pages)?;
        }
        Ok(())
    }

    /// Number of goal classes.
    pub fn goal_classes(&self) -> usize {
        self.classes.iter().filter(|c| c.is_goal_class()).count()
    }

    /// Spec of `class`.
    pub fn class(&self, class: ClassId) -> &ClassSpec {
        &self.classes[class.index()]
    }

    /// The paper's §7.2 base workload: one goal class and the no-goal class,
    /// disjoint page sets splitting the database evenly, 4 pages per
    /// operation, skew `theta`. The no-goal class arrives 3× as often as the
    /// goal class (background bulk work vs. the protected class), which
    /// keeps the paper's premise — "dedicated buffer areas speed up the
    /// operations of the corresponding classes" — true over the whole
    /// dedication range: without a dedicated pool the goal class only gets
    /// its (small) fair share of the shared LRU frames.
    pub fn base_two_class(
        nodes: usize,
        db_pages: u32,
        theta: f64,
        goal_arrival_per_ms_per_node: f64,
        initial_goal_ms: f64,
    ) -> WorkloadSpec {
        let nogoal_arrival_per_ms_per_node = 3.0 * goal_arrival_per_ms_per_node;
        let half = db_pages / 2;
        let goal_pages: Vec<PageId> = (0..half).map(PageId).collect();
        let nogoal_pages: Vec<PageId> = (half..db_pages).map(PageId).collect();
        WorkloadSpec {
            classes: vec![
                ClassSpec {
                    class: NO_GOAL,
                    goal_ms: None,
                    goal_metric: GoalMetric::Mean,
                    pages_per_op: 4,
                    zipf_theta: theta,
                    pages: nogoal_pages,
                    arrival_per_ms: vec![nogoal_arrival_per_ms_per_node; nodes],
                    rate_shifts: Vec::new(),
                },
                ClassSpec {
                    class: ClassId(1),
                    goal_ms: Some(initial_goal_ms),
                    goal_metric: GoalMetric::Mean,
                    pages_per_op: 4,
                    zipf_theta: theta,
                    pages: goal_pages,
                    arrival_per_ms: vec![goal_arrival_per_ms_per_node; nodes],
                    rate_shifts: Vec::new(),
                },
            ],
        }
    }

    /// The §7.4 workload: two goal classes k1 (tighter goal) and k2 plus the
    /// no-goal class. `sharing` ∈ \[0, 1\] is the fraction of each goal class's
    /// page set shared with the other; shared pages are the hottest ranks of
    /// *both* classes (see module docs).
    #[allow(clippy::too_many_arguments)]
    pub fn two_goal_classes(
        nodes: usize,
        db_pages: u32,
        theta: f64,
        arrival_per_ms_per_node: f64,
        goal1_ms: f64,
        goal2_ms: f64,
        sharing: f64,
    ) -> WorkloadSpec {
        assert!((0.0..=1.0).contains(&sharing));
        assert!(goal1_ms <= goal2_ms, "k1 is the tighter goal by convention");
        // Three equal thirds: k1, k2, no-goal. The shared block is carved
        // from the front (hottest ranks) of k1's third and replaces the
        // front of k2's third.
        let third = db_pages / 3;
        let shared = (sharing * third as f64).round() as u32;
        let k1_pages: Vec<PageId> = (0..third).map(PageId).collect();
        let mut k2_pages: Vec<PageId> = (0..shared).map(PageId).collect();
        k2_pages.extend((third + shared..2 * third).map(PageId));
        k2_pages.extend((third..third + shared).map(PageId));
        // k2 keeps exactly `third` pages: shared head + its private tail.
        k2_pages.truncate(third as usize);
        let nogoal_pages: Vec<PageId> = (2 * third..db_pages).map(PageId).collect();
        WorkloadSpec {
            classes: vec![
                ClassSpec {
                    class: NO_GOAL,
                    goal_ms: None,
                    goal_metric: GoalMetric::Mean,
                    pages_per_op: 4,
                    zipf_theta: theta,
                    pages: nogoal_pages,
                    arrival_per_ms: vec![arrival_per_ms_per_node; nodes],
                    rate_shifts: Vec::new(),
                },
                ClassSpec {
                    class: ClassId(1),
                    goal_ms: Some(goal1_ms),
                    goal_metric: GoalMetric::Mean,
                    pages_per_op: 4,
                    zipf_theta: theta,
                    pages: k1_pages,
                    arrival_per_ms: vec![arrival_per_ms_per_node; nodes],
                    rate_shifts: Vec::new(),
                },
                ClassSpec {
                    class: ClassId(2),
                    goal_ms: Some(goal2_ms),
                    goal_metric: GoalMetric::Mean,
                    pages_per_op: 4,
                    zipf_theta: theta,
                    pages: k2_pages,
                    arrival_per_ms: vec![arrival_per_ms_per_node; nodes],
                    rate_shifts: Vec::new(),
                },
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_workload_is_valid_and_disjoint() {
        let w = WorkloadSpec::base_two_class(3, 2000, 0.5, 0.02, 5.0);
        w.validate(3, 2000).expect("valid");
        assert_eq!(w.goal_classes(), 1);
        let goal: std::collections::HashSet<_> = w.class(ClassId(1)).pages.iter().collect();
        let nogoal: std::collections::HashSet<_> = w.class(NO_GOAL).pages.iter().collect();
        assert!(goal.is_disjoint(&nogoal));
        assert_eq!(goal.len() + nogoal.len(), 2000);
    }

    #[test]
    fn sharing_zero_is_disjoint() {
        let w = WorkloadSpec::two_goal_classes(3, 2100, 0.0, 0.02, 3.0, 6.0, 0.0);
        w.validate(3, 2100).expect("valid");
        let k1: std::collections::HashSet<_> = w.class(ClassId(1)).pages.iter().collect();
        let k2: std::collections::HashSet<_> = w.class(ClassId(2)).pages.iter().collect();
        assert!(k1.is_disjoint(&k2));
    }

    #[test]
    fn sharing_half_overlaps_hot_heads() {
        let w = WorkloadSpec::two_goal_classes(3, 2100, 0.0, 0.02, 3.0, 6.0, 0.5);
        w.validate(3, 2100).expect("valid");
        let k1 = &w.class(ClassId(1)).pages;
        let k2 = &w.class(ClassId(2)).pages;
        let shared = 350; // 0.5 · 700
                          // The first `shared` ranks of k2 are k1's hottest ranks.
        assert_eq!(&k2[..shared], &k1[..shared]);
        // Sets overlap by exactly `shared`.
        let s1: std::collections::HashSet<_> = k1.iter().collect();
        let s2: std::collections::HashSet<_> = k2.iter().collect();
        assert_eq!(s1.intersection(&s2).count(), shared);
        assert_eq!(k2.len(), 700);
    }

    #[test]
    fn sharing_one_is_identical_sets() {
        let w = WorkloadSpec::two_goal_classes(3, 2100, 0.0, 0.02, 3.0, 6.0, 1.0);
        let k1: std::collections::HashSet<_> = w.class(ClassId(1)).pages.iter().collect();
        let k2: std::collections::HashSet<_> = w.class(ClassId(2)).pages.iter().collect();
        assert_eq!(k1, k2);
    }

    #[test]
    fn goal_metric_labels() {
        assert_eq!(GoalMetric::Mean.label(), "mean");
        assert_eq!(GoalMetric::Quantile { q: 0.95 }.label(), "p95");
        assert_eq!(GoalMetric::Quantile { q: 0.999 }.label(), "p99.9");
        assert_eq!(GoalMetric::Quantile { q: 0.5 }.label(), "p50");
        assert!(GoalMetric::Quantile { q: 0.95 }.is_quantile());
        assert_eq!(GoalMetric::Quantile { q: 0.95 }.quantile(), Some(0.95));
        assert_eq!(GoalMetric::Mean.quantile(), None);
    }

    #[test]
    #[should_panic(expected = "goal quantile")]
    fn quantile_outside_unit_interval_rejected() {
        let mut w = WorkloadSpec::base_two_class(2, 100, 0.0, 0.01, 5.0);
        w.classes[1].goal_metric = GoalMetric::Quantile { q: 1.0 };
        w.validate(2, 100).unwrap();
    }

    #[test]
    fn rate_shifts_take_effect_in_order() {
        use dmm_sim::SimTime;
        let mut w = WorkloadSpec::base_two_class(2, 100, 0.0, 0.01, 5.0);
        let c = &mut w.classes[1];
        c.rate_shifts = vec![
            RateShift {
                at: SimTime::from_nanos(10),
                arrival_per_ms: vec![0.02, 0.02],
            },
            RateShift {
                at: SimTime::from_nanos(20),
                arrival_per_ms: vec![0.04, 0.0],
            },
        ];
        w.validate(2, 100).unwrap();
        let c = w.class(ClassId(1));
        assert_eq!(c.rates_at(SimTime::from_nanos(5)), &[0.01, 0.01]);
        assert_eq!(c.rates_at(SimTime::from_nanos(10)), &[0.02, 0.02]);
        assert_eq!(c.rates_at(SimTime::from_nanos(25)), &[0.04, 0.0]);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_shifts_rejected() {
        use dmm_sim::SimTime;
        let mut w = WorkloadSpec::base_two_class(2, 100, 0.0, 0.01, 5.0);
        w.classes[1].rate_shifts = vec![
            RateShift {
                at: SimTime::from_nanos(20),
                arrival_per_ms: vec![0.02, 0.02],
            },
            RateShift {
                at: SimTime::from_nanos(10),
                arrival_per_ms: vec![0.04, 0.04],
            },
        ];
        w.validate(2, 100).unwrap();
    }

    #[test]
    #[should_panic(expected = "outside database")]
    fn validation_catches_bad_pages() {
        let mut w = WorkloadSpec::base_two_class(2, 100, 0.0, 0.01, 5.0);
        w.classes[1].pages.push(PageId(5000));
        w.validate(2, 100).unwrap();
    }
}
