//! A minimal microbenchmark harness (no external deps): warm up, grow the
//! batch size until a sample takes long enough to time reliably, then
//! report the best-of-N nanoseconds per iteration.
//!
//! Used by the `harness = false` benches under `benches/`; run them with
//! `cargo bench -p dmm-bench`.

use std::time::Instant;

use crate::cli::{BenchArgs, Flag};

/// Result of one microbenchmark: best observed per-iteration time.
#[derive(Debug, Clone)]
pub struct MicroResult {
    pub name: String,
    pub ns_per_iter: f64,
    pub iters_per_sample: u64,
    pub samples: usize,
}

impl MicroResult {
    pub fn json_line(&self) -> String {
        use dmm::obs::Json;
        let mut out = String::new();
        Json::obj()
            .field("bench", self.name.as_str())
            .field("ns_per_iter", self.ns_per_iter)
            .field("iters_per_sample", self.iters_per_sample)
            .field("samples", self.samples as u64)
            .write(&mut out);
        out
    }
}

/// Times `f`, auto-calibrating the batch size so each sample runs for at
/// least ~5 ms, and reports the fastest of `samples` batches (the standard
/// way to suppress scheduling noise without statistics machinery).
pub fn bench_micro<F: FnMut()>(name: &str, mut f: F) -> MicroResult {
    // Warm-up: also provides a first duration estimate for calibration.
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() >= 5 || iters >= 1 << 30 {
            break;
        }
        // Grow geometrically toward the 5 ms floor.
        iters = (iters * 4).max(4);
    }
    let samples = 7usize;
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = start.elapsed().as_nanos() as f64 / iters as f64;
        if ns < best {
            best = ns;
        }
    }
    let r = MicroResult {
        name: name.to_string(),
        ns_per_iter: best,
        iters_per_sample: iters,
        samples,
    };
    println!("{:<40} {:>12.1} ns/iter", r.name, r.ns_per_iter);
    r
}

/// Whether `--json` was passed, the harness's only flag. `cargo bench`
/// adds its own `--bench`, which is skipped; anything else is refused with
/// exit code 2, as `dmm-repro` refuses it.
pub fn json_requested() -> bool {
    let args = std::env::args().skip(1).filter(|a| a != "--bench");
    match BenchArgs::parse_from(args, &[Flag::Json], &[]) {
        Ok(parsed) => parsed.json,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// Writes one JSON line per result into the workspace-root `results/<file>`.
pub fn write_json(results: &[MicroResult], file: &str) {
    let path = crate::cli::results_path(file);
    let body: String = results.iter().map(|r| r.json_line() + "\n").collect();
    std::fs::write(&path, body).expect("write bench json");
    eprintln!("wrote {}", path.display());
}
