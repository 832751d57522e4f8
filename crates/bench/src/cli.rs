//! The command-line contract of `dmm-repro`: one strict flag parser and one
//! rule for where output files land.
//!
//! Each experiment declares the flags it honours (its entry in
//! [`crate::experiments::EXPERIMENTS`]); [`BenchArgs::parse_from`] refuses
//! everything else — an unknown flag, a flag the experiment does not honour,
//! a missing or unparsable value, an unknown `--only` section — with a
//! message naming the offender and the valid flags. The full flag set:
//!
//! * `--quick` — shrink the experiment for CI smoke runs (fewer intervals,
//!   fewer replications); the experiment decides what "quick" means.
//! * `--json` — additionally write machine-readable results (JSON lines
//!   under `results/`).
//! * `--csv` — print a CSV block for plotting.
//! * `--only <section>` — run only the named section(s); repeatable.
//! * `--seed <u64>` — override the experiment's default base seed.
//! * `--theta <f64>`, `--intervals <u32>` — access skew and run length.
//! * `--spans <N>` — operation-level span tracing, 1-in-N sampling (N ≥ 1).
//! * `--jsonl <path>` — stream the full structured trace to `path`.
//!
//! Every file an experiment writes lands at the **workspace root**, whatever
//! the current directory: evidence documents (`BENCH_*.json`) through
//! [`bench_doc_path`] and data files under `results/` through
//! [`results_path`]. Both anchor at the workspace root through the manifest
//! dir, because `cargo run` may execute from the package directory.

use std::path::{Path, PathBuf};
use std::str::FromStr;

/// A flag an experiment may honour (`--only` is honoured exactly by the
/// experiments that declare sections).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    Quick,
    Json,
    Csv,
    Seed,
    Theta,
    Intervals,
    Spans,
    Jsonl,
}

impl Flag {
    const ALL: [Flag; 8] = [
        Flag::Quick,
        Flag::Json,
        Flag::Csv,
        Flag::Seed,
        Flag::Theta,
        Flag::Intervals,
        Flag::Spans,
        Flag::Jsonl,
    ];

    /// Usage form: the flag plus its value placeholder, if it takes one.
    pub fn usage(self) -> &'static str {
        match self {
            Flag::Quick => "--quick",
            Flag::Json => "--json",
            Flag::Csv => "--csv",
            Flag::Seed => "--seed <u64>",
            Flag::Theta => "--theta <f64>",
            Flag::Intervals => "--intervals <u32>",
            Flag::Spans => "--spans <N>",
            Flag::Jsonl => "--jsonl <path>",
        }
    }

    /// The flag as written on the command line.
    pub fn name(self) -> &'static str {
        let usage = self.usage();
        usage.split_once(' ').map_or(usage, |(name, _)| name)
    }
}

/// Usage form of an experiment's whole flag set, `--only` sections included.
pub fn usage(flags: &[Flag], sections: &[&str]) -> String {
    let mut parts: Vec<String> = flags.iter().map(|f| f.usage().to_string()).collect();
    if !sections.is_empty() {
        parts.push(format!("--only {}", sections.join("|")));
    }
    parts.join(" ")
}

/// The parsed flags of one experiment run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchArgs {
    /// Shrink the run for CI smoke tests (`--quick`).
    pub quick: bool,
    /// Also write machine-readable results (`--json`).
    pub json: bool,
    /// Also print a CSV block (`--csv`).
    pub csv: bool,
    /// Sections to run; empty means all (`--only a --only b`).
    pub only: Vec<String>,
    /// Base-seed override (`--seed 7`).
    pub seed: Option<u64>,
    /// Access-skew override (`--theta 0.5`).
    pub theta: Option<f64>,
    /// Run-length override in observation intervals (`--intervals 40`).
    pub intervals: Option<u32>,
    /// Span sampling divisor (`--spans 16`), at least 1.
    pub spans: Option<u32>,
    /// Trace output path (`--jsonl PATH`).
    pub jsonl: Option<String>,
}

impl BenchArgs {
    /// Parses `args` against an experiment's contract: the `flags` it
    /// honours and its `--only` `sections` (empty: `--only` is refused).
    /// The error names the offending argument and the valid flags.
    pub fn parse_from<I>(args: I, flags: &[Flag], sections: &[&str]) -> Result<Self, String>
    where
        I: IntoIterator<Item = String>,
    {
        let valid = || match usage(flags, sections) {
            u if u.is_empty() => "this experiment takes no flags".to_string(),
            u => format!("valid flags: {u}"),
        };
        let mut out = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--only" {
                if sections.is_empty() {
                    return Err(format!("`--only` is not honoured here; {}", valid()));
                }
                let section = value::<String>(&mut args, "--only", "a section name")?;
                if !sections.contains(&section.as_str()) {
                    return Err(format!(
                        "unknown --only section `{section}`; expected one of: {}",
                        sections.join(", ")
                    ));
                }
                out.only.push(section);
                continue;
            }
            let Some(flag) = Flag::ALL.into_iter().find(|f| f.name() == arg) else {
                return Err(format!("unknown flag `{arg}`; {}", valid()));
            };
            if !flags.contains(&flag) {
                return Err(format!("`{arg}` is not honoured here; {}", valid()));
            }
            let name = flag.name();
            match flag {
                Flag::Quick => out.quick = true,
                Flag::Json => out.json = true,
                Flag::Csv => out.csv = true,
                Flag::Seed => out.seed = Some(value(&mut args, name, "an unsigned integer")?),
                Flag::Theta => out.theta = Some(value(&mut args, name, "a number")?),
                Flag::Intervals => {
                    out.intervals = Some(value(&mut args, name, "an unsigned integer")?)
                }
                Flag::Spans => {
                    let what = "a sampling divisor of at least 1";
                    match value(&mut args, name, what)? {
                        0 => return Err(format!("`{name}` needs {what}, got `0`")),
                        every => out.spans = Some(every),
                    }
                }
                Flag::Jsonl => out.jsonl = Some(value(&mut args, name, "a path")?),
            }
        }
        Ok(out)
    }

    /// Whether `section` should run under the `--only` selection (every
    /// section runs when no `--only` was given).
    pub fn wants(&self, section: &str) -> bool {
        self.only.is_empty() || self.only.iter().any(|s| s == section)
    }

    /// The base seed: the `--seed` override or the experiment's default.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }
}

/// Takes the value following `flag`. A missing value, one that looks like
/// the next flag, or one that does not parse as `T` is an error.
fn value<T: FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    match args.next() {
        None => Err(format!("`{flag}` needs {what}")),
        Some(v) => match v.parse() {
            Ok(parsed) if !v.starts_with("--") => Ok(parsed),
            _ => Err(format!("`{flag}` needs {what}, got `{v}`")),
        },
    }
}

/// Workspace-root path of an evidence document (`BENCH_*.json`).
pub fn bench_doc_path(file: &str) -> PathBuf {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(file)
}

/// Workspace-root `results/<file>` path, creating `results/` on demand.
pub fn results_path(file: &str) -> PathBuf {
    let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .join("results")
        .join(file);
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    path
}

/// Writes an evidence document (one JSON object + trailing newline) to the
/// workspace root and reports where.
pub fn write_bench_doc(file: &str, doc: &dmm::obs::Json) {
    let path = bench_doc_path(file);
    std::fs::write(&path, doc.to_string() + "\n").unwrap_or_else(|e| panic!("write {file}: {e}"));
    println!("\nwrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{find, EXPERIMENTS};

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// Parses `args` against the named experiment's table entry.
    fn parse(experiment: &str, args: &[&str]) -> Result<BenchArgs, String> {
        let e = find(experiment).expect("experiment in the table");
        BenchArgs::parse_from(strings(args), e.flags, e.sections)
    }

    #[test]
    fn parses_the_shared_flag_set() {
        let all = [Flag::Quick, Flag::Json, Flag::Csv, Flag::Seed];
        let args = BenchArgs::parse_from(
            strings(&[
                "--quick", "--json", "--only", "micro", "--only", "e2e", "--seed", "7",
            ]),
            &all,
            &["micro", "e2e", "other"],
        )
        .expect("valid flags");
        assert!(args.quick && args.json && !args.csv);
        assert_eq!(args.only, ["micro", "e2e"]);
        assert_eq!(args.seed_or(42), 7);
        assert!(args.wants("micro") && args.wants("e2e") && !args.wants("other"));

        let trace = parse(
            "debug_trace",
            &[
                "--theta",
                "0.5",
                "--seed",
                "7",
                "--intervals",
                "40",
                "--spans",
                "16",
                "--jsonl",
                "t.jsonl",
            ],
        )
        .expect("debug_trace flags");
        assert_eq!(trace.theta, Some(0.5));
        assert_eq!(
            (trace.seed, trace.intervals, trace.spans),
            (Some(7), Some(40), Some(16))
        );
        assert_eq!(trace.jsonl.as_deref(), Some("t.jsonl"));
    }

    #[test]
    fn defaults_run_everything() {
        let args = BenchArgs::parse_from(Vec::new(), &[Flag::Seed], &["a", "b"]).expect("no flags");
        assert_eq!(args, BenchArgs::default());
        assert!(args.wants("a") && args.wants("b"));
        assert_eq!(args.seed_or(42), 42);
        // Unknown flags are refused, not skipped.
        let err =
            BenchArgs::parse_from(strings(&["--unknown-flag"]), &[Flag::Seed], &[]).unwrap_err();
        assert!(err.contains("`--unknown-flag`"), "{err}");
        assert!(err.contains("--seed <u64>"), "{err}");
    }

    #[test]
    fn unknown_only_sections_are_rejected_with_the_valid_list() {
        let args = parse("scale", &["--only", "fabric", "--only", "probe"]).expect("known");
        assert_eq!(args.only, ["fabric", "probe"]);
        let err = parse("scale", &["--only", "probe", "--only", "sweep"]).unwrap_err();
        assert!(err.contains("`sweep`"), "{err}");
        assert!(err.contains("balance, fabric, probe, n64"), "{err}");
        let err = parse("multiclass", &["--only", "both"]).unwrap_err();
        assert!(err.contains("`both`"), "{err}");
        assert!(err.contains("disjoint, sharing"), "{err}");
        let err = parse("fig2_base", &["--only", "all"]).unwrap_err();
        assert!(err.contains("`--only` is not honoured"), "{err}");
    }

    #[test]
    fn the_flag_contract_names_every_offender() {
        // (experiment, args, text the error must contain)
        let cases: [(&str, &[&str], &str); 9] = [
            ("fig2_base", &["--qiuck"], "unknown flag `--qiuck`"),
            ("table1", &["--json"], "`--json` is not honoured"),
            (
                "workload_shift",
                &["--seed", "7"],
                "`--seed` is not honoured",
            ),
            (
                "fig2_base",
                &["--seed"],
                "`--seed` needs an unsigned integer",
            ),
            ("fig2_base", &["--seed", "x"], "got `x`"),
            (
                "debug_trace",
                &["--jsonl", "--spans", "4"],
                "`--jsonl` needs a path, got `--spans`",
            ),
            (
                "debug_trace",
                &["--spans", "0"],
                "`--spans` needs a sampling divisor",
            ),
            ("debug_trace", &["0.5", "7", "40"], "unknown flag `0.5`"),
            (
                "scale",
                &["--only", "sweep"],
                "unknown --only section `sweep`",
            ),
        ];
        for (experiment, args, expected) in cases {
            let err = parse(experiment, args).unwrap_err();
            assert!(err.contains(expected), "{experiment} {args:?}: {err}");
        }
        // Every refusal of a flag lists the valid ones.
        let err = parse("workload_shift", &["--seed", "7"]).unwrap_err();
        assert!(err.contains("valid flags: --json"), "{err}");
        let err = parse("table1", &["--json"]).unwrap_err();
        assert!(err.contains("takes no flags"), "{err}");
    }

    #[test]
    fn experiment_names_are_unique() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[i + 1..].iter().all(|o| o.name != e.name),
                "duplicate experiment `{}`",
                e.name
            );
        }
        assert_eq!(EXPERIMENTS.len(), 14);
    }

    #[test]
    fn evidence_paths_anchor_at_the_workspace_root() {
        assert!(bench_doc_path("BENCH_x.json").ends_with("BENCH_x.json"));
        assert!(results_path("x.jsonl").ends_with("results/x.jsonl"));
    }
}
