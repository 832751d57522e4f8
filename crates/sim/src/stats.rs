//! Online statistics.
//!
//! * [`Welford`] — numerically stable running mean/variance.
//! * [`WindowMean`] — per-observation-interval mean that can be drained at
//!   interval boundaries (what the paper's agents report every 5000 ms).
//! * [`ConfidenceInterval`] — normal-approximation CI used to decide when the
//!   convergence experiments (§7.1) have been replicated enough ("accuracy of
//!   less than 1 iteration … with a statistical confidence of 99 percent").

/// Running mean / variance via Welford's algorithm.
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 if fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
    }
}

/// A mean accumulated over one observation interval, then drained.
#[derive(Debug, Clone, Default)]
pub struct WindowMean {
    sum: f64,
    n: u64,
}

impl WindowMean {
    /// Empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation to the current window.
    pub fn push(&mut self, x: f64) {
        self.sum += x;
        self.n += 1;
    }

    /// Observations in the current window.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the current window, `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.sum / self.n as f64)
        }
    }

    /// Returns the window mean (if any) and resets for the next interval.
    pub fn drain(&mut self) -> Option<(f64, u64)> {
        let out = self.mean().map(|m| (m, self.n));
        self.sum = 0.0;
        self.n = 0;
        out
    }
}

/// Two-sided confidence interval on a mean, normal approximation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate.
    pub mean: f64,
    /// Half-width of the interval.
    pub half_width: f64,
}

/// z-quantile for 99% two-sided confidence.
pub const Z_99: f64 = 2.5758;
/// z-quantile for 95% two-sided confidence.
pub const Z_95: f64 = 1.9600;

impl ConfidenceInterval {
    /// CI from a Welford accumulator at z-score `z` (see [`Z_99`]).
    /// With fewer than 2 observations the half-width is infinite.
    pub fn from_welford(w: &Welford, z: f64) -> Self {
        if w.count() < 2 {
            return ConfidenceInterval {
                mean: w.mean(),
                half_width: f64::INFINITY,
            };
        }
        let se = w.std_dev() / (w.count() as f64).sqrt();
        ConfidenceInterval {
            mean: w.mean(),
            half_width: z * se,
        }
    }

    /// True if the half-width is below `target`.
    pub fn is_tighter_than(&self, target: f64) -> bool {
        self.half_width < target
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Unbiased variance of that classic dataset is 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let mut a = Welford::new();
        let mut b = Welford::new();
        let mut all = Welford::new();
        for i in 0..50 {
            let x = (i as f64).sin() * 10.0;
            if i % 2 == 0 {
                a.push(x)
            } else {
                b.push(x)
            }
            all.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn window_mean_drains() {
        let mut w = WindowMean::new();
        assert_eq!(w.drain(), None);
        w.push(1.0);
        w.push(3.0);
        assert_eq!(w.drain(), Some((2.0, 2)));
        assert_eq!(w.drain(), None);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let mut w = Welford::new();
        w.push(1.0);
        let ci = ConfidenceInterval::from_welford(&w, Z_99);
        assert!(ci.half_width.is_infinite());
        for i in 0..1000 {
            w.push(if i % 2 == 0 { 0.9 } else { 1.1 });
        }
        let ci = ConfidenceInterval::from_welford(&w, Z_99);
        assert!(ci.is_tighter_than(0.05), "half width {}", ci.half_width);
        assert!((ci.mean - 1.0).abs() < 0.01);
    }
}
