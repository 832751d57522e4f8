//! Goal-range calibration (paper §7.3).
//!
//! "We choose the goals randomly from [goal_min, goal_max], where goal_min
//! corresponds to the response time of the goal class when 2/3 · Σ SIZEᵢ of
//! the cache memory is dedicated to it; in turn, goal_max corresponds to the
//! response time achieved by 1/3 · Σ SIZEᵢ of the cache being dedicated."
//!
//! The calibration runs two short simulations with those static fractions
//! and measures the settled mean response time of the class.
//!
//! For a quantile-goal class the same protocol applies to the goal metric:
//! the calibration simulations observe the per-interval goal quantile (the
//! merged-histogram p-th percentile the controller will later judge) and the
//! band brackets *that* statistic, so a p95 goal drawn from the range is
//! reachable by construction just like a mean goal.

use dmm_buffer::ClassId;
use dmm_workload::GoalRange;

use crate::baselines::ControllerKind;
use crate::system::{Simulation, SystemConfig};

/// Measures `[goal_min, goal_max]` for `class` under `config`'s workload.
/// `settle_intervals` are run before `measure_intervals` are averaged.
pub fn calibrate_goal_range(
    config: &SystemConfig,
    class: ClassId,
    settle_intervals: u32,
    measure_intervals: u32,
) -> GoalRange {
    let at_two_thirds = response_at_fraction(
        config,
        class,
        2.0 / 3.0,
        settle_intervals,
        measure_intervals,
    );
    let at_one_third = response_at_fraction(
        config,
        class,
        1.0 / 3.0,
        settle_intervals,
        measure_intervals,
    );
    // Short measurements of bucketed quantiles can tie or invert by a few
    // percent: order the two readings, then guard against a degenerate band
    // (also what a cache-friendly workload produces).
    let min_ms = at_two_thirds.min(at_one_third);
    let max_ms = at_two_thirds.max(at_one_third).max(min_ms * 1.2);
    GoalRange::new(min_ms, max_ms)
}

fn response_at_fraction(
    config: &SystemConfig,
    class: ClassId,
    fraction: f64,
    settle: u32,
    measure: u32,
) -> f64 {
    let mut cfg = config.clone();
    cfg.controller = ControllerKind::None;
    cfg.goal_range = None;
    let quantile_goal = cfg.workload.classes[class.index()]
        .goal_metric
        .is_quantile();
    let mut sim = Simulation::new(cfg);
    sim.dedicate_fraction(class, fraction)
        .expect("calibration dedicates a valid fraction to a goal class");
    sim.run_intervals(settle + measure);
    // Calibrate the statistic the controller will actually judge: the
    // settled goal quantile for quantile goals, the settled mean otherwise.
    if quantile_goal {
        sim.mean_observed_quantile_ms(class, measure as usize)
            .expect("class produced completions during calibration")
    } else {
        sim.mean_observed_ms(class, measure as usize)
            .expect("class produced completions during calibration")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::SatisfactionMode;
    use dmm_buffer::TierPolicy;
    use dmm_cluster::{SpanMode, TierSpec};

    #[test]
    fn more_memory_means_tighter_goal() {
        let cfg = SystemConfig::builder()
            .seed(11)
            .goal_ms(8.0)
            .db_pages(400)
            .buffer_pages_per_node(96)
            .goal_rate_per_ms(0.008)
            .warmup_intervals(2)
            .build()
            .expect("valid test config");
        let range = calibrate_goal_range(&cfg, ClassId(1), 4, 4);
        assert!(range.min_ms > 0.0);
        assert!(range.max_ms > range.min_ms);
    }

    #[test]
    fn quantile_goal_calibrates_on_the_quantile() {
        let base = SystemConfig::builder()
            .seed(11)
            .goal_ms(8.0)
            .db_pages(400)
            .buffer_pages_per_node(96)
            .goal_rate_per_ms(0.008)
            .warmup_intervals(2);
        let mean_cfg = base.clone().build().expect("valid test config");
        let p_cfg = base.goal_quantile(0.95).build().expect("valid test config");
        let mean_range = calibrate_goal_range(&mean_cfg, ClassId(1), 4, 4);
        let p_range = calibrate_goal_range(&p_cfg, ClassId(1), 4, 4);
        // The p95 band sits above the mean band: tails are slower than
        // centers under the identical workload and allocations.
        assert!(
            p_range.min_ms > mean_range.min_ms,
            "p95 floor {} should exceed mean floor {}",
            p_range.min_ms,
            mean_range.min_ms
        );
    }

    #[test]
    fn tied_or_inverted_readings_still_yield_a_band() {
        // The benchmark's `tiered_tail` shape: at (settle, measure) = (6, 6)
        // the two bucketed p95 readings tie at seed 5 and invert at seed 10.
        for seed in [5, 10] {
            let cfg = SystemConfig::builder()
                .seed(seed)
                .theta(0.8)
                .goal_quantile(0.95)
                .db_pages(800)
                .buffer_pages_per_node(48)
                .tiers(vec![
                    TierSpec::new("dram", 0.03),
                    TierSpec::new("cxl", 0.25)
                        .frames(48)
                        .bandwidth(2_000_000_000),
                    TierSpec::new("remote", 0.5),
                    TierSpec::new("disk", 12.6),
                ])
                .tier_policy(TierPolicy::Hotness)
                .satisfaction(SatisfactionMode::UpperBound)
                .spans(SpanMode::Histograms)
                .build()
                .expect("valid test config");
            let range = calibrate_goal_range(&cfg, ClassId(1), 6, 6);
            assert!(range.min_ms > 0.0, "seed {seed}");
            assert!(range.max_ms >= range.min_ms * 1.2, "seed {seed}");
        }
    }
}
