//! The experiments `dmm-repro` runs, one module each, and the table that
//! names them with the flags each honours.

mod ablation_controller;
mod ablation_replacement;
mod debug_trace;
mod degradation;
mod fig2_base;
mod multiclass;
mod objective_variants;
mod overhead;
mod scale;
mod table1;
mod table2_skew;
mod tail;
mod tiering;
mod workload_shift;

use crate::cli::{usage, BenchArgs, Flag};

/// One row of the experiment table.
pub struct Experiment {
    /// The name given on the command line.
    pub name: &'static str,
    /// The flags the experiment honours; every other flag is refused.
    pub flags: &'static [Flag],
    /// The sections `--only` selects from (empty: `--only` is refused).
    pub sections: &'static [&'static str],
    /// Runs the experiment.
    pub run: fn(&BenchArgs),
}

/// A table row: experiment `$name` (named after its module), the flags it
/// honours and its `--only` sections.
macro_rules! experiment {
    ($name:ident, [$($flag:ident),*], $sections:expr) => {
        Experiment {
            name: stringify!($name),
            flags: &[$(Flag::$flag),*],
            sections: $sections,
            run: $name::run,
        }
    };
}

/// Every experiment, by name.
#[rustfmt::skip]
pub const EXPERIMENTS: [Experiment; 14] = [
    experiment!(ablation_controller,  [],                                     &[]),
    experiment!(ablation_replacement, [],                                     &[]),
    experiment!(debug_trace,          [Theta, Seed, Intervals, Spans, Jsonl], &[]),
    experiment!(degradation,          [Quick, Seed],                          &[]),
    experiment!(fig2_base,            [Csv, Json, Seed],                      &[]),
    experiment!(multiclass,           [],                                     &multiclass::SECTIONS),
    experiment!(objective_variants,   [],                                     &[]),
    experiment!(overhead,             [Json, Quick],                          &[]),
    experiment!(scale,                [Quick],                                &scale::SECTIONS),
    experiment!(table1,               [],                                     &[]),
    experiment!(table2_skew,          [Json],                                 &[]),
    experiment!(tail,                 [Quick, Seed],                          &[]),
    experiment!(tiering,              [Quick, Seed],                          &[]),
    experiment!(workload_shift,       [Json],                                 &[]),
];

/// The experiment called `name`, if there is one.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// The `--help` text: usage and one line per experiment with its flags.
pub fn help() -> String {
    let mut out = String::from("usage: dmm-repro <experiment> [flags]\n\n");
    for e in &EXPERIMENTS {
        let flags = usage(e.flags, e.sections);
        out.push_str(format!("  {:<22}{flags}", e.name).trim_end());
        out.push('\n');
    }
    out
}
