#!/bin/sh
# In-process A/B timing of two revisions on one ledger workload.
#
#   tools/ab.sh <rev-a> <rev-b> [workload] [seconds] [repeats] [seed]
#
# Defaults: workload paper_n3, seconds 4, repeats 3, seed 42. Each
# revision is exported with `git archive` into a temporary directory
# (under $TMPDIR, else /tmp, removed on exit); every library package of
# each copy is renamed with a side suffix (`dmm-sim` -> `dmm-sim-a`, ...)
# so both copies link into one generated binary. That binary builds each
# side's workload from the side's own `benchmark/src/workloads.rs` (read,
# never changed), warms both up, then runs the timed intervals of both in
# lockstep: one interval of one side, then the same interval of the other,
# with the side that goes first alternating from interval to interval.
#
# It fails unless, in every repeat, both sides complete exactly the same
# number of operations, deliver the same number of events (`sim.events`)
# and record the same goal-class interval records (`records(GOAL)`,
# compared by their `{:?}` text): it times representation changes only,
# and refuses two revisions that behave differently. Otherwise it prints
# the quiet wall of each side (sum over intervals of the fastest repeat,
# as the ledger folds host time), their ratio a/b (above 1: b is faster)
# and the number of intervals b won, then the median of the per-interval
# ratios a/b with its 95 % sign-test interval: the order statistics
# k and n + 1 - k of the n sorted ratios, k the largest with
# P(Binomial(n, 1/2) <= k - 1) <= 0.025, which cover the true median
# with probability >= 95 % whatever the ratios' distribution. A host-time
# claim needs an interval that excludes 1. Interleaving in one process cancels
# most of the host drift that makes single readings on a shared machine
# swing by tens of percent. The build uses cargo's default release profile, the one the
# ledger is built with. Needs no dependency beyond the toolchain.
set -eu

if [ $# -lt 2 ]; then
    echo "usage: $0 <rev-a> <rev-b> [workload] [seconds] [repeats] [seed]" >&2
    exit 2
fi
rev_a=$1
rev_b=$2
workload=${3:-paper_n3}
seconds=${4:-4}
repeats=${5:-3}
seed=${6:-42}

repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/dmm-ab.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM

# Exports `rev` into $work/<side> with every package renamed `<name>-<side>`.
export_side() {
    rev=$1
    side=$2
    mkdir -p "$work/$side"
    git -C "$repo" archive "$rev" | tar -x -C "$work/$side"
    for manifest in "$work/$side"/crates/*/Cargo.toml; do
        awk -v side="$side" '
            /^\[/ { in_package = ($0 == "[package]") }
            in_package && /^name = "/ { sub(/"$/, "-" side "\"") }
            { print }
        ' "$manifest" > "$manifest.renamed"
        mv "$manifest.renamed" "$manifest"
    done
    sed -i "s/^\(dmm[-a-z]*\) = { path = \"\([^\"]*\)\" }/\1 = { path = \"\2\", package = \"\1-$side\" }/" \
        "$work/$side/Cargo.toml"
}

export_side "$rev_a" a
export_side "$rev_b" b

harness=$work/harness
for side in a b; do
    mkdir -p "$harness/side-$side/src"
    cat > "$harness/side-$side/Cargo.toml" <<EOF
[package]
name = "ab-side-$side"
version = "0.1.0"
edition = "2021"
publish = false

[dependencies]
dmm = { path = "../../$side/crates/dmm", package = "dmm-$side" }
EOF
    cat > "$harness/side-$side/src/lib.rs" <<EOF
//! One side of the A/B harness: the revision's own ledger workloads.

use std::hint::black_box;
use std::time::Instant;

#[path = "$work/$side/benchmark/src/workloads.rs"]
#[allow(dead_code)]
mod workloads;

use workloads::{by_name, instantiate, prepare, Prepared, Running, Workload, GOAL};

/// A workload resolved, built and warmed up, ready for its timed segment.
pub struct Side {
    workload: Workload,
    prepared: Prepared,
}

impl Side {
    /// Resolves \`name\` at \`seed\` (calibration and donor fits included).
    pub fn new(name: &str, seed: u64) -> Side {
        let workload = by_name(name).unwrap_or_else(|| panic!("no workload {name}"));
        let prepared = prepare(&workload, seed);
        Side { workload, prepared }
    }

    /// Timed intervals for a \`--seconds\` budget.
    pub fn intervals(&self, seconds: u32) -> u32 {
        self.workload.timed_intervals(seconds)
    }

    /// A fresh simulation past its warm-up.
    pub fn start(&self) -> Run {
        let mut running = instantiate(&self.prepared, self.prepared.stream);
        for _ in 0..self.workload.warmup {
            black_box(running.step());
        }
        Run { running }
    }
}

/// One simulation in its timed segment.
pub struct Run {
    running: Running,
}

impl Run {
    /// Runs one interval; its host time in nanoseconds.
    pub fn step(&mut self) -> u64 {
        let t = Instant::now();
        black_box(self.running.step());
        t.elapsed().as_nanos() as u64
    }

    /// Operations completed so far.
    pub fn completions(&self) -> u64 {
        self.running.sim.plane().completions()
    }

    /// Events delivered so far (\`sim.events\`).
    pub fn events(&self) -> u64 {
        let snap = self.running.sim.metrics_snapshot();
        snap.get_counter("sim.events").expect("sim.events is always exported")
    }

    /// The goal class's interval records so far, as \`{:?}\` text.
    pub fn goal_records(&self) -> String {
        format!("{:?}", self.running.sim.records(GOAL))
    }
}
EOF
done

mkdir -p "$harness/runner/src"
cat > "$harness/Cargo.toml" <<'EOF'
[workspace]
members = ["runner", "side-a", "side-b"]
resolver = "2"
EOF
cat > "$harness/runner/Cargo.toml" <<'EOF'
[package]
name = "ab-runner"
version = "0.1.0"
edition = "2021"
publish = false

[dependencies]
ab-side-a = { path = "../side-a" }
ab-side-b = { path = "../side-b" }
EOF
cat > "$harness/runner/src/main.rs" <<'EOF'
//! Drives both sides interval by interval and compares their host time.

use std::process::exit;

fn arg<T: std::str::FromStr>(args: &[String], i: usize, what: &str) -> T {
    args[i].parse().unwrap_or_else(|_| {
        eprintln!("ab: {what} must be a number, got {:?}", args[i]);
        exit(2)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args[1].as_str();
    let seconds: u32 = arg(&args, 2, "seconds");
    let repeats: u32 = arg(&args, 3, "repeats");
    let seed: u64 = arg(&args, 4, "seed");
    if repeats == 0 {
        eprintln!("ab: repeats must be at least 1");
        exit(2);
    }
    let a = ab_side_a::Side::new(name, seed);
    let b = ab_side_b::Side::new(name, seed);
    let intervals = a.intervals(seconds);
    assert_eq!(intervals, b.intervals(seconds), "the sides disagree on the timed length");
    let mut quiet_a = vec![u64::MAX; intervals as usize];
    let mut quiet_b = vec![u64::MAX; intervals as usize];
    let mut completions = 0;
    for repeat in 0..repeats {
        let (mut run_a, mut run_b) = (a.start(), b.start());
        let (start_a, start_b) = (run_a.completions(), run_b.completions());
        for i in 0..intervals as usize {
            let (wall_a, wall_b) = if (i + repeat as usize) % 2 == 0 {
                let wall_a = run_a.step();
                (wall_a, run_b.step())
            } else {
                let wall_b = run_b.step();
                (run_a.step(), wall_b)
            };
            quiet_a[i] = quiet_a[i].min(wall_a);
            quiet_b[i] = quiet_b[i].min(wall_b);
        }
        let (done_a, done_b) = (run_a.completions() - start_a, run_b.completions() - start_b);
        if done_a != done_b {
            eprintln!("ab: repeat {repeat}: a completed {done_a} operations, b {done_b}");
            exit(1);
        }
        let (events_a, events_b) = (run_a.events(), run_b.events());
        if events_a != events_b {
            eprintln!("ab: repeat {repeat}: a delivered {events_a} events, b {events_b}");
            exit(1);
        }
        if run_a.goal_records() != run_b.goal_records() {
            eprintln!("ab: repeat {repeat}: the goal class's interval records differ");
            exit(1);
        }
        completions = done_a;
    }
    let total_a: u64 = quiet_a.iter().sum();
    let total_b: u64 = quiet_b.iter().sum();
    let wins = quiet_a.iter().zip(&quiet_b).filter(|(a, b)| b < a).count();
    println!(
        "ab {name} seed {seed}: {intervals} intervals x {repeats} repeats, \
         {completions} completions per repeat, equal events and goal records on both sides"
    );
    println!(
        "quiet wall a {:.1} ms, b {:.1} ms, ratio a/b {:.4}; b faster in {wins}/{intervals} intervals",
        total_a as f64 / 1e6,
        total_b as f64 / 1e6,
        total_a as f64 / total_b as f64
    );
    let mut ratios: Vec<f64> = quiet_a
        .iter()
        .zip(&quiet_b)
        .map(|(&a, &b)| a as f64 / b as f64)
        .collect();
    ratios.sort_by(f64::total_cmp);
    let n = ratios.len();
    let median = if n % 2 == 1 {
        ratios[n / 2]
    } else {
        (ratios[n / 2 - 1] + ratios[n / 2]) / 2.0
    };
    match sign_test_rank(n) {
        Some((k, tail)) => println!(
            "median per-interval ratio a/b {median:.4}, 95 % sign-test interval \
             [{:.4}, {:.4}] (order statistics {k} and {} of {n}, coverage {:.1} %)",
            ratios[k - 1],
            ratios[n - k],
            n + 1 - k,
            100.0 * (1.0 - 2.0 * tail)
        ),
        None => println!(
            "median per-interval ratio a/b {median:.4}; {n} intervals are too few for a \
             95 % sign-test interval (it needs 6)"
        ),
    }
}

/// The largest `k >= 1` whose lower tail `P(Binomial(n, 1/2) <= k - 1)`
/// is at most 0.025, with that tail; `None` when even `k = 1` exceeds it.
/// Terms are summed from their logarithms, so no `n` underflows.
fn sign_test_rank(n: usize) -> Option<(usize, f64)> {
    let mut ln_term = -(n as f64) * std::f64::consts::LN_2; // ln P(X = 0)
    let mut tail = 0.0;
    let mut found = None;
    for j in 0..n {
        if j > 0 {
            ln_term += ((n - j + 1) as f64 / j as f64).ln();
        }
        tail += ln_term.exp();
        if tail > 0.025 {
            break;
        }
        found = Some((j + 1, tail));
    }
    found
}
EOF

cargo build --release --offline --quiet --manifest-path "$harness/Cargo.toml" \
    --target-dir "$harness/target" -p ab-runner
"$harness/target/release/ab-runner" "$workload" "$seconds" "$repeats" "$seed"
