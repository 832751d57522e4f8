//! The stochastic inputs of the ICDE'99 evaluation.
//!
//! * [`Exponential`] — interarrival times (§7.1: "inter-arrival time 1/λ
//!   assumed to be exponentially distributed").
//! * [`Zipf`] — page identities (§7.1: access frequency of page `p` is
//!   `C · 1/p^θ` with `C = 1/Σ_{q=1..M} q^{-θ}`). Implemented by inverse
//!   transform over a precomputed CDF with a guide table (O(M) setup, O(1)
//!   expected per sample), which is exact for any skew. At θ = 0 the CDF
//!   is `(i + 1) / M` exactly, so it is computed on the fly and neither
//!   table is built.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// Exponential distribution with the given mean, sampled by inverse
/// transform.
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    mean_ns: f64,
}

impl Exponential {
    /// Creates a distribution of durations with mean `mean`.
    pub fn from_mean(mean: SimDuration) -> Self {
        assert!(!mean.is_zero(), "exponential mean must be positive");
        Exponential {
            mean_ns: mean.as_nanos() as f64,
        }
    }

    /// Mean as a duration.
    pub fn mean(&self) -> SimDuration {
        SimDuration::from_nanos(self.mean_ns as u64)
    }

    /// Draws one interarrival time.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        // 1 - U avoids ln(0); U ∈ [0,1) so 1-U ∈ (0,1].
        let u = 1.0 - rng.uniform01();
        let x = -self.mean_ns * u.ln();
        SimDuration::from_nanos(x.max(0.0).round() as u64)
    }
}

/// Zipf distribution over `{0, 1, …, m-1}` with skew `theta ≥ 0`;
/// `theta = 0` degenerates to the uniform distribution.
#[derive(Debug, Clone)]
pub struct Zipf {
    m: usize,
    /// The CDF by index; empty at θ = 0, where it is `(i + 1) / m`.
    cdf: Vec<f64>,
    /// Guide table (Chen–Asau indexed search): `guide[j]` is the first
    /// index whose CDF exceeds `j / m`, so a draw `u` starts its scan at
    /// `guide[⌊u·m⌋]` and takes one probe per item in its bucket — one in
    /// expectation. Empty at θ = 0, where that index is `j` itself.
    guide: Vec<u32>,
    theta: f64,
}

impl Zipf {
    /// Builds the distribution over `m` items (ranks 1..=m internally; the
    /// sampler returns 0-based indices where index 0 is the hottest item).
    pub fn new(m: usize, theta: f64) -> Self {
        assert!(m > 0, "Zipf needs at least one item");
        assert!(theta >= 0.0, "Zipf skew must be non-negative");
        if theta == 0.0 {
            // Every term is 1.0, so the running sums are exact integers and
            // the normalized CDF is `(i + 1) / m` to the last bit.
            return Zipf {
                m,
                cdf: Vec::new(),
                guide: Vec::new(),
                theta,
            };
        }
        let mut cdf = Vec::with_capacity(m);
        let mut acc = 0.0;
        for rank in 1..=m {
            acc += 1.0 / (rank as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against FP slop at the top end.
        *cdf.last_mut().expect("non-empty") = 1.0;
        let mut guide = Vec::with_capacity(m);
        let mut i = 0;
        for j in 0..m {
            // The last CDF value is 1 > j / m, so the scan stops in range.
            while cdf[i] <= j as f64 / m as f64 {
                i += 1;
            }
            guide.push(u32::try_from(i).expect("Zipf items fit in u32"));
        }
        Zipf {
            m,
            cdf,
            guide,
            theta,
        }
    }

    /// Number of items.
    pub fn items(&self) -> usize {
        self.m
    }

    /// The skew parameter θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Probability mass of 0-based index `i`.
    pub fn pmf(&self, i: usize) -> f64 {
        if i == 0 {
            self.cdf_at(0)
        } else {
            self.cdf_at(i) - self.cdf_at(i - 1)
        }
    }

    /// CDF value of 0-based index `i < m`.
    fn cdf_at(&self, i: usize) -> f64 {
        if self.cdf.is_empty() {
            (i + 1) as f64 / self.m as f64
        } else {
            self.cdf[i]
        }
    }

    /// Draws one 0-based index.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        self.index_of(rng.uniform01())
    }

    /// The first index whose CDF value exceeds `u ∈ [0, 1)`.
    fn index_of(&self, u: f64) -> usize {
        let bucket = ((u * self.m as f64) as usize).min(self.m - 1);
        let mut i = if self.guide.is_empty() {
            bucket
        } else {
            self.guide[bucket] as usize
        };
        // `u · m` can round across a bucket edge: step back while the CDF
        // just below still exceeds `u`, then forward past every value ≤ `u`.
        while i > 0 && self.cdf_at(i - 1) > u {
            i -= 1;
        }
        while self.cdf_at(i) <= u {
            i += 1;
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SimRng::seed_from_u64(11);
        let dist = Exponential::from_mean(SimDuration::from_millis(20));
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| dist.sample(&mut rng).as_millis_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 20.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for i in 0..4 {
            assert!((z.pmf(i) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_pmf_matches_formula() {
        let m = 5;
        let theta = 0.8;
        let z = Zipf::new(m, theta);
        let c: f64 = (1..=m).map(|q| 1.0 / (q as f64).powf(theta)).sum();
        for i in 0..m {
            let expect = (1.0 / ((i + 1) as f64).powf(theta)) / c;
            assert!((z.pmf(i) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_samples_follow_pmf() {
        let m = 100;
        let z = Zipf::new(m, 1.0);
        let mut rng = SimRng::seed_from_u64(5);
        let n = 200_000;
        let mut counts = vec![0u32; m];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        // Hottest item should dominate and match its mass within noise.
        let p0 = counts[0] as f64 / n as f64;
        assert!((p0 - z.pmf(0)).abs() < 0.01, "p0 {p0} vs {}", z.pmf(0));
        assert!(counts[0] > counts[m / 2]);
        // CDF coverage: every index reachable.
        assert!(counts.iter().filter(|&&c| c > 0).count() > m / 2);
    }

    /// The binary search the guide table replaced: on a strictly
    /// increasing CDF, the first index whose value exceeds `u`.
    fn binary_search_index(cdf: &[f64], u: f64) -> usize {
        match cdf.binary_search_by(|c| c.partial_cmp(&u).expect("no NaN in CDF")) {
            Ok(i) => (i + 1).min(cdf.len() - 1),
            Err(i) => i,
        }
    }

    /// The CDF as built by running sum for every skew, θ = 0 included.
    fn summed_cdf(m: usize, theta: f64) -> Vec<f64> {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=m)
            .map(|rank| {
                acc += 1.0 / (rank as f64).powf(theta);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        *cdf.last_mut().expect("non-empty") = 1.0;
        cdf
    }

    #[test]
    fn guide_table_matches_binary_search() {
        let mut rng = SimRng::seed_from_u64(0x2199);
        let mut draws = 0;
        for m in [1, 2, 7, 400, 1_000, 3_200, 12_000] {
            for theta in [0.0, 0.5, 0.8, 1.0, 2.0] {
                let z = Zipf::new(m, theta);
                let cdf = summed_cdf(m, theta);
                assert!(
                    cdf.windows(2).all(|w| w[0] < w[1]),
                    "m {m} θ {theta}: CDF not strictly increasing"
                );
                // θ = 0 builds no tables; its closed form is the summed CDF
                // to the last bit.
                assert_eq!(z.cdf.is_empty(), theta == 0.0, "m {m} θ {theta}");
                for (i, c) in cdf.iter().enumerate() {
                    assert_eq!(z.cdf_at(i).to_bits(), c.to_bits(), "m {m} θ {theta} i {i}");
                }
                // Each bucket edge and its neighbours, where `u · m` rounds.
                let edges = (0..m).flat_map(|j| {
                    let u = j as f64 / m as f64;
                    [u.next_down().max(0.0), u, u.next_up()]
                });
                // Exact CDF values are the binary search's `Ok` branch.
                let cdf_values = cdf[..m - 1].iter().copied();
                let random = (0..30_000).map(|_| rng.uniform01());
                for u in edges.chain(cdf_values).chain(random) {
                    assert_eq!(
                        z.index_of(u),
                        binary_search_index(&cdf, u),
                        "m {m} θ {theta} u {u}"
                    );
                    draws += 1;
                }
            }
        }
        assert!(draws >= 1_000_000, "{draws} draws");
    }

    #[test]
    fn zipf_sample_in_range_at_extremes() {
        let z = Zipf::new(1, 2.0);
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }
}
