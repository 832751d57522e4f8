//! `ledger compare <set-A> <set-B>`: the repeatability check behind
//! `repeat.sh`. Each set is a directory of result files named
//! `<workload>.<n>.json` whose last line is a run's result object. For
//! every workload × end-to-end metric the two sets' medians and quartiles
//! are printed with the gap between the medians and the metric's bound;
//! the check fails if any gap exceeds its bound.

use std::collections::BTreeMap;
use std::path::Path;

use dmm::obs::Json;

use crate::measure::median;
use crate::report::{Better, Kind, END_TO_END};

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive" method);
/// the driver uses the same.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let m = x.len();
    if m < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    Some((q3 - q1) / median(values).abs())
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_set(dir: &Path) -> Result<Set, String> {
    let mut set = Set::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some((workload, rest)) = name.split_once('.') else {
            continue;
        };
        if !rest.ends_with(".json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
        let last = text.lines().rev().find(|l| !l.trim().is_empty());
        let doc = last
            .and_then(|l| Json::parse(l).ok())
            .ok_or_else(|| format!("{name}: last line is not a result object"))?;
        if doc.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{name}: run reported correct = false"));
        }
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{name}: no metrics object"))?;
        for (metric, body) in metrics {
            let value = body
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: {metric} has no numeric value"))?;
            set.entry(workload.to_string())
                .or_default()
                .entry(metric.clone())
                .or_default()
                .push(value);
        }
    }
    if set.is_empty() {
        return Err(format!("{}: no result files", dir.display()));
    }
    Ok(set)
}

/// Prints the comparison table; `Ok(true)` when every gap is within bound
/// and every simulated/count metric agrees exactly.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (set_a, set_b) = (read_set(a)?, read_set(b)?);
    let mut ok = true;
    println!(
        "| workload | metric | median A | [q1, q3] A | median B | [q1, q3] B | gap | bound | spread A | spread B | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    for (workload, metrics_a) in &set_a {
        let metrics_b = set_b
            .get(workload)
            .ok_or_else(|| format!("set B has no runs of {workload}"))?;
        for d in END_TO_END {
            let (Some(va), Some(vb)) = (metrics_a.get(d.name), metrics_b.get(d.name)) else {
                return Err(format!("{workload}: {} missing from a set", d.name));
            };
            let (ma, mb) = (median(va), median(vb));
            let gap = worsening(ma, mb, d.better);
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            let exact = d.kind != Kind::Host;
            // Simulated statistics and counts of the same build and seed
            // must agree to the last bit, not merely within bound.
            let verdict = if exact && va.iter().chain(vb).any(|&x| x != va[0]) {
                ok = false;
                "NOT EXACT"
            } else if gap > bound {
                ok = false;
                "GAP > BOUND"
            } else {
                "ok"
            };
            let q = |v: &[f64]| {
                quartiles(v).map_or_else(
                    || "-".to_string(),
                    |[q1, _, q3]| format!("[{q1:.6}, {q3:.6}]"),
                )
            };
            let s = |v: &[f64]| {
                spread(v).map_or_else(|| "-".to_string(), |s| format!("{:.2}%", s * 100.0))
            };
            println!(
                "| {workload} | {} | {ma:.6} | {} | {mb:.6} | {} | {:+.2}% | {:.0}% | {} | {} | {verdict} |",
                d.name,
                q(va),
                q(vb),
                gap * 100.0,
                bound * 100.0,
                s(va),
                s(vb),
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&ten).expect("ten values");
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
    }
}
