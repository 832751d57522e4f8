//! `ledger` — the repo's perf ledger.
//!
//! ```text
//! ledger run [--workload W] [--seed S] [--seconds N] [--trace 0|1]
//!            [--repeats R] [--no-trace] [--quick]
//! ledger compare <set-A-dir> <set-B-dir>
//! ledger names
//! ```
//!
//! `run` without `--workload` runs every workload, one child process each
//! (peak memory is per workload). With `--workload` it measures that one
//! and prints, as the last line of stdout, the result object the benchmark
//! contract asks for. See `benchmark/README.md`.

mod alloc;
mod compare;
mod kernels;
mod measure;
mod report;
mod shadow;
mod spans;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use dmm::obs::Json;

use measure::{
    divergence, host_ref_ms, min_f64, min_fold, quality, run_repeat, timed_prepare, Repeat,
};
use report::{Values, END_TO_END, PER_LAYER};
use workloads::{Workload, DEFAULT_REPEATS, REF_SECONDS, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Which passes a run makes and which metrics its result object carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `--trace 0` / `--no-trace`: untraced repeats, end-to-end metrics.
    Untraced,
    /// `--trace 1`: two untraced repeats (the baseline the overhead is
    /// measured against) and the traced run; per-layer metrics.
    Traced,
    /// Neither flag: everything.
    Both,
}

#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: u32,
    mode: Mode,
    repeats: Option<usize>,
    quick: bool,
}

fn parse_run(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 42,
        seconds: REF_SECONDS,
        mode: Mode::Both,
        repeats: None,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v}"))
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.to_string()),
            "--seed" => o.seed = number(value()?)?,
            "--seconds" => {
                let s = number(value()?)?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must lie in 1..=60".to_string());
                }
                o.seconds = s as u32;
            }
            "--trace" => {
                o.mode = match value()? {
                    "0" => Mode::Untraced,
                    "1" => Mode::Traced,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--no-trace" => o.mode = Mode::Untraced,
            "--repeats" => {
                let r = number(value()?)? as usize;
                if !(2..=64).contains(&r) {
                    return Err("--repeats must lie in 2..=64".to_string());
                }
                o.repeats = Some(r);
            }
            "--quick" => o.quick = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if let Some(name) = &o.workload {
        if workloads::by_name(name).is_none() {
            let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; known: {}",
                known.join(", ")
            ));
        }
    }
    Ok(o)
}

/// What the untraced repeats of one run established.
pub struct Untraced {
    pub repeats: Vec<Repeat>,
    /// Per-interval minima across the repeats.
    pub quiet: Vec<u64>,
    /// Host reference walk, one reading per repeat.
    pub host_ref_ms: Vec<f64>,
}

impl Untraced {
    /// The quiet wall of the timed segment: Σ per-interval minima.
    pub fn quiet_ns(&self) -> u64 {
        self.quiet.iter().sum()
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Measures one workload, prints its metrics and its result object.
fn run_workload(w: &Workload, o: &Options) -> ExitCode {
    let intervals = w.timed_intervals(o.seconds);
    let repeats = o.repeats.unwrap_or(match o.mode {
        Mode::Traced => 2,
        _ => DEFAULT_REPEATS,
    });
    println!(
        "== {} — seed {}, {} timed intervals x {} repeats after {} warm-up intervals ==",
        w.name, o.seed, intervals, repeats, w.warmup
    );
    println!("   {}", w.why);
    if o.quick {
        println!("   *** --quick: smoke sizes; these numbers are NOT comparable with anything ***");
    }
    let mut violations: Vec<String> = Vec::new();

    // Set-up, part 1: resolve the configuration. Done three times; the
    // work is identical, so the smallest reading is the quietest one.
    let (prepared, first) = timed_prepare(w, o.seed);
    let prepare_s = min_f64([
        first,
        timed_prepare(w, o.seed).1,
        timed_prepare(w, o.seed).1,
    ]);

    // Untraced repeats, a host reference reading after each.
    let mut runs: Vec<Repeat> = Vec::with_capacity(repeats);
    let mut host_ref = Vec::with_capacity(repeats);
    for r in 0..repeats {
        let repeat = run_repeat(w, &prepared, intervals);
        host_ref.push(host_ref_ms());
        if let Some(first) = runs.first() {
            if let Some(d) = divergence(first, &repeat) {
                violations.push(format!("repeat {r} diverged from repeat 0: {d}"));
            }
        }
        runs.push(repeat);
    }
    let peak_rss_mb = measure::peak_rss_mb();
    let walls: Vec<&[u64]> = runs.iter().map(|r| r.wall_ns.as_slice()).collect();
    let quiet = min_fold(&walls);
    let untraced = Untraced {
        quiet,
        repeats: runs,
        host_ref_ms: host_ref,
    };
    let first = &untraced.repeats[0];
    if first.aborted != 0 {
        violations.push(format!("{} operations were aborted", first.aborted));
    }
    if first.records.len() != intervals as usize {
        violations.push(format!(
            "{} interval records for {intervals} timed intervals",
            first.records.len()
        ));
    }

    let quiet_s = untraced.quiet_ns() as f64 / 1e9;
    let warm_s = min_f64(untraced.repeats.iter().map(|r| r.warm_s));
    let q = quality(&first.records);
    let mut e2e = Values::new(END_TO_END);
    e2e.set_n(
        "setup_s",
        prepare_s + warm_s,
        format!(
            "prepare {prepare_s:.3} s (min of 3) + build and warm-up {warm_s:.3} s (min of {repeats})"
        ),
    );
    e2e.set_n(
        "sim_ops_per_s",
        first.ops as f64 / quiet_s,
        format!(
            "{} ops in {intervals} intervals, quiet wall {quiet_s:.4} s",
            first.ops
        ),
    );
    e2e.set("peak_rss_mb", peak_rss_mb);
    e2e.set_n(
        "allocs_per_op",
        first.allocs as f64 / first.ops.max(1) as f64,
        format!("{} allocations", first.allocs),
    );
    e2e.set_n(
        "goal_met_frac",
        q.goal_met_frac,
        format!("{} checks", first.records.len()),
    );
    e2e.set_n(
        "converge_intervals",
        q.converge_intervals,
        format!("{} episodes", q.episodes),
    );
    e2e.set("nogoal_rt_ms", q.nogoal_rt_ms);

    println!(" end-to-end (tracing off):");
    e2e.print();
    println!(
        "  sim_digest {:016x}  timed_intervals {}  timed_ops {}  timed_events {}  ops started {} / aborted {}",
        first.digest, intervals, first.ops, first.events, first.started, first.aborted
    );
    let repeat_walls: Vec<String> = untraced
        .repeats
        .iter()
        .map(|r| format!("{:.3}", r.wall_ns.iter().sum::<u64>() as f64 / 1e9))
        .collect();
    println!(
        "  host noise: repeat walls [{}] s vs quiet {quiet_s:.3} s; host_ref_ms min {:.3} median {:.3}",
        repeat_walls.join(", "),
        min_f64(untraced.host_ref_ms.iter().copied()),
        measure::median(&untraced.host_ref_ms),
    );
    violations.extend(
        e2e.missing()
            .iter()
            .map(|m| format!("metric {m} has no value")),
    );

    let layers = (o.mode != Mode::Untraced).then(|| {
        let traced = traced::run(w, o.seed, &prepared, intervals, &untraced);
        println!(" per-layer (traced run):");
        traced.values.print();
        let dir = out_dir();
        let path = dir.join(format!("trace_{}.json", w.name));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, traced.trace_file.to_string()))
        {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        violations.extend(traced.violations);
        violations.extend(
            traced
                .values
                .missing()
                .iter()
                .map(|m| format!("metric {m} has no value")),
        );
        traced.values
    });

    for v in &violations {
        eprintln!("VIOLATION [{}]: {v}", w.name);
    }
    let mut metrics = Json::obj();
    if o.mode != Mode::Traced {
        metrics = e2e.to_json(metrics);
    }
    if let Some(l) = &layers {
        metrics = l.to_json(metrics);
    }
    let result = Json::obj()
        .field("correct", violations.is_empty())
        .field("attempted", first.started.max(1))
        .field("failed", first.aborted)
        .field("metrics", metrics);
    println!("{result}");
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own, forwarding the flags.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .arg("run")
            .args(args)
            .args(["--workload", w.name])
            .status();
        if !matches!(status, Ok(s) if s.success()) {
            failed.push(w.name);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed workloads: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn print_names() {
    for w in WORKLOADS {
        println!("workload {}", w.name);
    }
    for d in END_TO_END {
        let bound = d.bound.expect("end-to-end metrics carry a bound");
        println!(
            "end_to_end {} {} {} {bound}",
            d.name,
            d.unit,
            d.better.as_str()
        );
    }
    for d in PER_LAYER {
        println!("per_layer {} {} {}", d.name, d.unit, d.better.as_str());
    }
}

const USAGE: &str = "usage: ledger run [--workload W] [--seed S] [--seconds N] [--trace 0|1] \
[--repeats R] [--no-trace] [--quick]\n       ledger compare <set-A-dir> <set-B-dir>\n       ledger names";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => match parse_run(rest) {
            Ok(o) => match &o.workload {
                Some(name) => {
                    let w = workloads::by_name(name).expect("validated by parse_run");
                    let w = if o.quick { w.quick() } else { w };
                    run_workload(&w, &o)
                }
                None => run_all(rest),
            },
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some((cmd, rest)) if cmd == "compare" && rest.len() == 2 => {
            match compare::compare(Path::new(&rest[0]), Path::new(&rest[1])) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => {
                    eprintln!("the two sets do not agree within the benchmark's bounds");
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            }
        }
        Some((cmd, [])) if cmd == "names" => {
            print_names();
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_flags_parse() {
        let o = parse_run(&args("--workload paper_n3 --seed 7 --seconds 10 --trace 1"))
            .expect("driver invocation parses");
        assert_eq!(o.workload.as_deref(), Some("paper_n3"));
        assert_eq!((o.seed, o.seconds, o.mode), (7, 10, Mode::Traced));
        let d = parse_run(&[]).expect("defaults");
        assert_eq!((d.seed, d.seconds, d.mode), (42, REF_SECONDS, Mode::Both));
        assert_eq!(
            parse_run(&args("--no-trace")).expect("ok").mode,
            Mode::Untraced
        );
        assert_eq!(
            parse_run(&args("--trace 0")).expect("ok").mode,
            Mode::Untraced
        );
    }

    #[test]
    fn bad_flags_are_refused() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds 61",
            "--trace 2",
            "--repeats 1",
            "--frobnicate",
            "--seed",
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad} must be refused");
        }
    }
}
