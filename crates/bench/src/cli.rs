//! Shared command-line conventions of the experiment harnesses.
//!
//! Every `dmm-bench` binary understands the same small flag set, parsed
//! here once instead of ad hoc per binary:
//!
//! * `--quick` — shrink the experiment for CI smoke runs (fewer intervals,
//!   fewer replications); the binary decides what "quick" means.
//! * `--json` — additionally write machine-readable results (JSON lines to
//!   `results/`, or the binary's `BENCH_*.json` evidence document).
//! * `--csv` — additionally print a CSV block for plotting.
//! * `--only <section>` — run only the named section(s); repeatable.
//! * `--seed <u64>` — override the binary's default base seed.
//!
//! Evidence documents land at the **workspace root** (`BENCH_*.json`) and
//! data files under `results/`, via [`bench_doc_path`] / [`results_path`]:
//! `cargo run`/`cargo bench` may execute with the package directory as cwd,
//! so both anchor at the workspace root through the manifest dir.

use std::path::{Path, PathBuf};

/// The flags shared by every experiment harness binary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
}

impl BenchArgs {
    /// Parses the process arguments. Unknown flags are ignored so binaries
    /// can keep bespoke extras (e.g. `debug_trace`'s `--jsonl`).
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (tests, embedding).
    pub fn parse_from<I>(args: I) -> Self
    where
        I: IntoIterator<Item = String>,
    {
        let mut out = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => out.quick = true,
                "--json" => out.json = true,
                "--csv" => out.csv = true,
                "--only" => {
                    out.only
                        .push(args.next().expect("--only needs a section name"));
                }
                "--seed" => {
                    out.seed = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .expect("--seed needs an unsigned integer"),
                    );
                }
                _ => {}
            }
        }
        out
    }

    /// Whether `section` should run under the `--only` selection (every
    /// section runs when no `--only` was given).
    pub fn wants(&self, section: &str) -> bool {
        self.only.is_empty() || self.only.iter().any(|s| s == section)
    }

    /// Rejects an `--only` name outside `known`, so a misspelled or retired
    /// section fails loudly instead of silently running nothing. The error
    /// names the offender and lists the valid sections.
    pub fn check_only(&self, known: &[&str]) -> Result<(), String> {
        match self.only.iter().find(|s| !known.contains(&s.as_str())) {
            Some(unknown) => Err(format!(
                "unknown --only section `{unknown}`; expected one of: {}",
                known.join(", ")
            )),
            None => Ok(()),
        }
    }

    /// The base seed: the `--seed` override or the binary's default.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
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

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_shared_flag_set() {
        let args = BenchArgs::parse_from(strings(&[
            "--quick", "--json", "--only", "micro", "--only", "e2e", "--seed", "7",
        ]));
        assert!(args.quick && args.json && !args.csv);
        assert_eq!(args.only, ["micro", "e2e"]);
        assert_eq!(args.seed_or(42), 7);
        assert!(args.wants("micro") && args.wants("e2e") && !args.wants("other"));
    }

    #[test]
    fn defaults_run_everything() {
        let args = BenchArgs::parse_from(strings(&["--unknown-flag"]));
        assert_eq!(args, BenchArgs::default());
        assert!(args.wants("anything"));
        assert_eq!(args.seed_or(42), 42);
    }

    #[test]
    fn unknown_only_sections_are_rejected_with_the_valid_list() {
        let known = ["balance", "fabric", "probe", "n64"];
        let args = BenchArgs::parse_from(strings(&["--only", "fabric", "--only", "probe"]));
        assert_eq!(args.check_only(&known), Ok(()));
        assert_eq!(BenchArgs::default().check_only(&known), Ok(()));
        let err = BenchArgs::parse_from(strings(&["--only", "probe", "--only", "sweep"]))
            .check_only(&known)
            .unwrap_err();
        assert!(err.contains("`sweep`"), "{err}");
        assert!(err.contains("balance, fabric, probe, n64"), "{err}");
    }

    #[test]
    fn evidence_paths_anchor_at_the_workspace_root() {
        assert!(bench_doc_path("BENCH_x.json").ends_with("BENCH_x.json"));
        assert!(results_path("x.jsonl").ends_with("results/x.jsonl"));
    }
}
