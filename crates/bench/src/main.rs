//! `dmm-repro <experiment> [flags]`: runs one of the paper's §7
//! experiments. With no experiment, or with `--help`, prints the table of
//! experiments and the flags each honours. A usage error exits with code 2.

use dmm_bench::experiments::{find, help};
use dmm_bench::BenchArgs;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", help());
        return;
    }
    let Some(name) = args.first() else {
        eprint!("{}", help());
        std::process::exit(2);
    };
    let Some(experiment) = find(name) else {
        eprint!("dmm-repro: unknown experiment `{name}`\n\n{}", help());
        std::process::exit(2);
    };
    match BenchArgs::parse_from(args[1..].to_vec(), experiment.flags, experiment.sections) {
        Ok(parsed) => (experiment.run)(&parsed),
        Err(e) => {
            eprintln!("dmm-repro {name}: {e}");
            std::process::exit(2);
        }
    }
}
