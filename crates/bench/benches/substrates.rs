//! Microbenchmarks of the hot substrate paths: buffer pool operations,
//! Zipf sampling, the simplex solver, and one full simulated observation
//! interval of the base experiment. Pass `--json` to also write
//! `results/substrates.jsonl`.

use std::hint::black_box;

use dmm::buffer::{PageId, PolicySpec, Pool};
use dmm::core::{Simulation, SystemConfig};
use dmm::sim::dist::Zipf;
use dmm::sim::{SimRng, SimTime};
use dmm_bench::micro::{bench_micro, maybe_write_json};
use dmm_lp::{Problem, Relation};

fn main() {
    let mut results = Vec::new();

    for (name, spec) in [
        ("lru", PolicySpec::Lru),
        ("lru2", PolicySpec::LruK(2)),
        ("cost", PolicySpec::CostBased),
    ] {
        let mut pool = Pool::new(512, spec);
        let zipf = Zipf::new(2000, 0.8);
        let mut rng = SimRng::seed_from_u64(1);
        let mut t = 0u64;
        results.push(bench_micro(&format!("buffer/pool_access_{name}"), || {
            t += 1;
            let page = PageId(zipf.sample(&mut rng) as u32);
            let now = SimTime::from_nanos(t);
            if pool.contains(page) {
                pool.on_hit(page, now);
            } else {
                pool.on_miss();
                pool.insert(page, now);
            }
        }));
    }

    {
        let zipf = Zipf::new(2000, 1.0);
        let mut rng = SimRng::seed_from_u64(2);
        results.push(bench_micro("zipf_sample_2000", || {
            black_box(zipf.sample(&mut rng));
        }));
    }

    results.push(bench_micro("simplex_10x10", || {
        let mut p = Problem::minimize(10);
        for j in 0..10 {
            p.set_objective(j, ((j * 7 % 5) as f64) - 2.0);
            p.set_bounds(j, 0.0, 4.0);
        }
        for i in 0..10 {
            let terms: Vec<(usize, f64)> =
                (0..10).map(|j| (j, ((i + j) % 3) as f64 + 0.5)).collect();
            p.constraint(&terms, Relation::Le, 20.0);
        }
        black_box(p.solve().expect("feasible"));
    }));

    {
        let cfg = SystemConfig::builder()
            .seed(3)
            .theta(0.5)
            .goal_ms(10.0)
            .build()
            .expect("valid bench config");
        let mut sim = Simulation::new(cfg);
        sim.run_intervals(5); // warm
        results.push(bench_micro("simulate_one_interval", || {
            sim.run_intervals(1);
        }));
    }

    maybe_write_json(&results, "substrates.jsonl");
}
