//! Seeded property tests for the metrics substrate: histogram merge is
//! associative and commutative, and a populated
//! [`MetricsSnapshot`] round-trips through its JSON encoding byte-for-byte.
//!
//! dmm-obs sits below dmm-sim in the dependency graph, so the generator is
//! a local SplitMix64 rather than `dmm_sim::SimRng`.

use dmm_obs::{Histogram, MetricsSnapshot, WaitCounts};

/// SplitMix64 — enough randomness for input generation, no dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A histogram over shared bounds filled with random values (occasionally
/// far beyond the last bound, to exercise the overflow bucket).
fn random_hist(rng: &mut Rng) -> Histogram {
    let mut h = Histogram::exponential(1_000, 12);
    for _ in 0..rng.below(200) {
        let v = if rng.below(10) == 0 {
            rng.below(u64::MAX / 2)
        } else {
            rng.below(5_000_000)
        };
        h.record(v);
    }
    h
}

fn assert_hist_eq(a: &Histogram, b: &Histogram, ctx: &str) {
    assert_eq!(a.bounds(), b.bounds(), "{ctx}: bounds");
    assert_eq!(a.counts(), b.counts(), "{ctx}: counts");
    assert_eq!(a.count(), b.count(), "{ctx}: count");
    assert_eq!(a.total(), b.total(), "{ctx}: total");
}

#[test]
fn histogram_merge_is_commutative() {
    for seed in 0..64u64 {
        let mut rng = Rng(seed);
        let a = random_hist(&mut rng);
        let b = random_hist(&mut rng);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_hist_eq(&ab, &ba, &format!("seed {seed}"));
    }
}

#[test]
fn histogram_merge_is_associative() {
    for seed in 100..164u64 {
        let mut rng = Rng(seed);
        let a = random_hist(&mut rng);
        let b = random_hist(&mut rng);
        let c = random_hist(&mut rng);
        // (a ∪ b) ∪ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ∪ (b ∪ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_hist_eq(&left, &right, &format!("seed {seed}"));
    }
}

#[test]
fn histogram_merge_preserves_mass() {
    for seed in 200..232u64 {
        let mut rng = Rng(seed);
        let a = random_hist(&mut rng);
        let b = random_hist(&mut rng);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.count(), a.count() + b.count(), "seed {seed}");
        assert_eq!(
            m.total(),
            a.total().saturating_add(b.total()),
            "seed {seed}"
        );
    }
}

#[test]
fn snapshot_round_trips_through_json() {
    for seed in 400..432u64 {
        let mut rng = Rng(seed);
        let mut snap = MetricsSnapshot::new();
        for i in 0..rng.below(8) {
            snap.counter(format!("c{i}"), rng.next());
        }
        for i in 0..rng.below(8) {
            // Finite gauges only: NaN is unrepresentable in JSON.
            let v = (rng.below(1 << 52) as f64) / 1e6 - 1e3;
            snap.gauge(format!("g{i}"), v);
        }
        for i in 0..rng.below(4) {
            snap.histogram(format!("h{i}"), random_hist(&mut rng));
        }
        let json = snap.to_json();
        let text = json.to_string();
        let reparsed = dmm_obs::Json::parse(&text).expect("parse back");
        let back = MetricsSnapshot::from_json(&reparsed).expect("decode");
        assert_eq!(
            text,
            back.to_json().to_string(),
            "seed {seed}: snapshot JSON must round-trip byte-for-byte"
        );
    }
}

// ---------------------------------------------------------------------------
// Quantile extraction (the statistic quantile-goal controllers run on).
// ---------------------------------------------------------------------------

/// Quantiles to probe in every property, including the extremes.
const QS: [f64; 7] = [0.01, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99];

#[test]
fn quantile_is_monotone_in_q() {
    for seed in 500..564u64 {
        let mut rng = Rng(seed);
        let h = random_hist(&mut rng);
        let mut prev = None;
        for q in QS {
            let cur = h.quantile(q);
            if let (Some(p), Some(c)) = (prev, cur) {
                assert!(c >= p, "seed {seed}: quantile({q}) = {c} < {p}");
            }
            if cur.is_some() {
                prev = cur;
            }
        }
        // Empty histograms answer None for every q; populated ones never.
        assert_eq!(h.quantile(0.5).is_some(), h.count() > 0, "seed {seed}");
    }
}

#[test]
fn quantile_is_bracketed_by_min_and_max() {
    for seed in 600..664u64 {
        let mut rng = Rng(seed);
        let h = random_hist(&mut rng);
        if h.count() == 0 {
            continue;
        }
        let (min, max) = (h.min().expect("data"), h.max().expect("data"));
        for q in QS {
            let v = h.quantile(q).expect("populated");
            assert!(
                (min..=max).contains(&v),
                "seed {seed}: quantile({q}) = {v} outside [{min}, {max}]"
            );
        }
    }
}

#[test]
fn quantile_is_merge_order_invariant() {
    for seed in 700..748u64 {
        let mut rng = Rng(seed);
        let parts: Vec<Histogram> = (0..4).map(|_| random_hist(&mut rng)).collect();
        // Merge in node order and in reverse; the quantile read from the
        // coordinator's merged histogram must not depend on the order.
        let mut fwd = Histogram::exponential(1_000, 12);
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = Histogram::exponential(1_000, 12);
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        for q in QS {
            assert_eq!(
                fwd.quantile(q),
                rev.quantile(q),
                "seed {seed}: quantile({q}) depends on merge order"
            );
        }
    }
}

#[test]
fn quantile_is_exact_on_point_distributions() {
    for seed in 800..832u64 {
        let mut rng = Rng(seed);
        // Everything lands on one value (possibly in the overflow bucket):
        // every quantile is that value exactly, not a bucket edge.
        let v = rng.below(u64::MAX / 2);
        let mut h = Histogram::exponential(1_000, 12);
        for _ in 0..1 + rng.below(100) {
            h.record(v);
        }
        for q in QS {
            assert_eq!(h.quantile(q), Some(v), "seed {seed}: value {v}");
        }
    }
}

#[test]
fn quantile_on_empty_histogram_is_none_for_any_q() {
    let h = Histogram::exponential(1_000, 12);
    for q in [-1.0, 0.0, 0.01, 0.5, 0.99, 1.0, 2.0, f64::NAN] {
        assert_eq!(h.quantile(q), None, "q = {q}");
    }
}

#[test]
fn quantile_in_saturated_top_bucket_is_defined_and_bounded() {
    // All mass beyond the last bound: the nearest-rank walk falls through
    // every bounded bucket, and the answer must still be a defined value
    // clamped to the observed maximum — never a panic, never u64::MAX from
    // an open-ended bucket.
    let mut h = Histogram::exponential(1_000, 4);
    let last_bound = *h.bounds().last().expect("bounds");
    let values = [last_bound + 1, last_bound * 2, last_bound * 10];
    for v in values {
        h.record(v);
    }
    for q in QS {
        let v = h.quantile(q).expect("populated");
        assert!(
            (values[0]..=values[2]).contains(&v),
            "quantile({q}) = {v} outside the observed overflow range"
        );
    }
    assert_eq!(
        h.quantile(0.99),
        Some(values[2]),
        "top of the overflow mass"
    );
    // Degenerate q inputs on the same histogram stay defined too.
    assert!(h.quantile(f64::NAN).is_some());
    assert!(h.quantile(-3.0).is_some());
    assert!(h.quantile(7.0).is_some());
}

/// Records every probe value into a fresh copy of `layout` and checks it
/// lands in the bucket a full binary search over the bounds names.
fn assert_records_into_searched_bucket(layout: &Histogram, rng: &mut Rng, ctx: &str) {
    let bounds = layout.bounds();
    let mut probes = vec![0, 1, u64::MAX - 1, u64::MAX];
    for &b in bounds {
        probes.extend([b.saturating_sub(1), b, b.saturating_add(1)]);
    }
    for bits in 0..64 {
        probes.extend([1u64 << bits, (1u64 << bits) - 1]);
    }
    probes.extend((0..256).map(|_| rng.next() >> rng.below(64)));
    for v in probes {
        let mut h = layout.clone();
        h.record(v);
        let expected = bounds.partition_point(|&b| b < v);
        let got = h.counts().iter().position(|&c| c == 1).expect("one count");
        assert_eq!(got, expected, "{ctx}: value {v}");
    }
}

#[test]
fn record_lands_in_the_bucket_a_full_search_names() {
    let mut rng = Rng(0x5EED);
    let mut layouts = vec![
        ("exponential(1 µs, 21)", Histogram::exponential(1_000, 21)),
        ("exponential(1 µs, 24)", Histogram::exponential(1_000, 24)),
        ("exponential(1, 64)", Histogram::exponential(1, 64)),
        ("exponential saturating", Histogram::exponential(3 << 60, 8)),
        (
            "log_linear(10 µs, 10 s, 8)",
            Histogram::log_linear(10_000, 10_000_000_000, 8),
        ),
        ("log_linear dedup", Histogram::log_linear(1, 1 << 20, 8)),
        (
            "log_linear to the rail",
            Histogram::log_linear(3, u64::MAX, 5),
        ),
        (
            "hand-written with 0 and u64::MAX",
            Histogram::new(vec![0, 1, 2, 7, 8, 1_000, 1 << 40, u64::MAX - 1, u64::MAX]),
        ),
        ("single 0 edge", Histogram::new(vec![0])),
        ("single u64::MAX edge", Histogram::new(vec![u64::MAX])),
    ];
    // Random strictly increasing bounds, dense in some octaves, empty in
    // others.
    for seed in 0..32u64 {
        let mut r = Rng(seed);
        let mut bounds: Vec<u64> = (0..1 + r.below(80))
            .map(|_| r.next() >> r.below(64))
            .collect();
        bounds.sort_unstable();
        bounds.dedup();
        layouts.push(("random", Histogram::new(bounds)));
    }
    for (name, layout) in &layouts {
        assert_records_into_searched_bucket(layout, &mut rng, name);
    }
}

/// The closed-form queue-wait counts equal `Histogram::exponential(1_000,
/// 21)`: value by value on 0, on both sides of every edge `1000·2^k` and on
/// `u64::MAX`; after every 100 of 10⁶ random values over every magnitude;
/// and once merged — so snapshots built from them are byte-identical.
#[test]
fn wait_counts_equal_the_exponential_histogram() {
    let reference = Histogram::exponential(1_000, 21);
    let mut edges = vec![0, 1, u64::MAX - 1, u64::MAX];
    for k in 0..64 {
        let edge = 1_000u64.saturating_mul(1 << k);
        edges.extend([edge - 1, edge, edge.saturating_add(1)]);
    }
    for &v in &edges {
        let mut one = WaitCounts::new();
        one.record(v);
        let mut one_ref = reference.clone();
        one_ref.record(v);
        assert_eq!(one.to_histogram(), one_ref, "value {v}");
    }
    let mut rng = Rng(0xC105ED);
    let (mut all, mut all_ref) = (WaitCounts::new(), reference.clone());
    let (mut half, mut half_ref) = (WaitCounts::new(), reference.clone());
    for i in 0..1_000_000u32 {
        let v = rng.next() >> rng.below(64);
        all.record(v);
        all_ref.record(v);
        if i % 2 == 0 {
            half.record(v);
            half_ref.record(v);
        }
        if i % 100 == 99 {
            assert_eq!(all.to_histogram(), all_ref, "after {} values", i + 1);
        }
    }
    assert_eq!(all.to_histogram().to_json(), all_ref.to_json());
    half.merge(&all);
    half_ref.merge(&all_ref);
    assert_eq!(half.to_histogram(), half_ref);
    all.reset();
    assert_eq!(all.to_histogram(), reference);
}
