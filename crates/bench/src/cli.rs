//! The `repro` command line, kept in the library so its exit codes are
//! testable:
//!
//! ```text
//! repro [--fast] <experiment|all>...        paper tables and figures
//! repro [--fast] [--gate] bench <name|all>...   first-party measurements
//! ```
//!
//! `--fast` shrinks every size to smoke scale and writes nothing under
//! `results/`; `--gate` turns any missed bench target into exit code 1.

use crate::benches::BENCHES;
use crate::experiments::{self, Scale};
use crate::harness::{write_result, BenchResult};

/// One experiment: its CLI name and entry point.
type Experiment = (&'static str, fn(Scale));

const EXPERIMENTS: &[Experiment] = &[
    ("table1", experiments::table1),
    ("fig7", experiments::fig7),
    ("fig8", experiments::fig8),
    ("fig9", experiments::fig9),
    ("fig10", experiments::fig10),
    ("fig11", experiments::fig11),
    ("table2", experiments::table2),
    ("fig12", experiments::fig12),
    ("fig13", experiments::fig13),
    ("table3", experiments::table3),
    ("table4", experiments::table4),
    ("fig14", experiments::fig14),
    ("validate", experiments::validate),
];

/// What `--gate` makes of finished benches: 1 on any missed target.
pub fn gate_exit_code(results: &[BenchResult]) -> i32 {
    let mut code = 0;
    for r in results.iter().filter(|r| !r.all_targets_met()) {
        eprintln!("gate: bench {} missed a stated target", r.benchmark);
        code = 1;
    }
    code
}

/// Runs `repro` with `args` (the program name already stripped) and
/// returns its exit code.
pub fn run(args: &[String]) -> i32 {
    let flag = |name: &str| args.iter().any(|a| a == name);
    let scale = if flag("--fast") { Scale::fast() } else { Scale::full() };
    let selected: Vec<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(String::as_str).collect();
    let wanted = |name: &str| selected.contains(&"all") || selected.contains(&name);
    let done = |name: &str, t0: std::time::Instant| {
        println!("[{name} done in {:.1?}]\n", t0.elapsed());
    };

    if selected.first() == Some(&"bench") {
        let mut results = Vec::new();
        for (name, file, bench) in BENCHES.iter().filter(|(name, ..)| wanted(name)) {
            let t0 = std::time::Instant::now();
            let result = bench(scale);
            write_result(scale, file, &result);
            done(name, t0);
            results.push(result);
        }
        if results.is_empty() {
            eprintln!("usage: repro [--fast] [--gate] bench <name|all>...");
            eprintln!("no bench matched {:?}; benches:", &selected[1..]);
            for (name, ..) in BENCHES {
                eprintln!("  {name}");
            }
            return 2;
        }
        return if flag("--gate") { gate_exit_code(&results) } else { 0 };
    }

    if selected.is_empty() {
        eprintln!("usage: repro [--fast] <experiment|all>...");
        eprintln!("       repro [--fast] [--gate] bench <name|all>...");
        eprintln!("experiments:");
        for (name, _) in EXPERIMENTS {
            eprintln!("  {name}");
        }
        return 2;
    }
    let mut matched = false;
    for (name, f) in EXPERIMENTS.iter().filter(|(name, _)| wanted(name)) {
        matched = true;
        let t0 = std::time::Instant::now();
        f(scale);
        done(name, t0);
    }
    if !matched {
        eprintln!("no experiment matched {selected:?}");
        return 2;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Target;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn unknown_names_and_empty_command_lines_exit_2() {
        assert_eq!(run(&args("")), 2);
        assert_eq!(run(&args("--fast nosuch")), 2);
        assert_eq!(run(&args("bench nosuch")), 2);
        assert_eq!(run(&args("--fast --gate bench")), 2);
    }

    #[test]
    fn a_gate_miss_is_non_zero_and_a_met_target_is_not() {
        let mut r = BenchResult::new("t", Scale::fast(), 1, "test");
        r.value("overhead_pct", "%", 2.0).target(Target::AtMost(3.0));
        assert_eq!(gate_exit_code(std::slice::from_ref(&r)), 0);
        r.value("speedup", "x", 4.0).target(Target::Above(4.0));
        assert_ne!(gate_exit_code(&[r]), 0);
    }
}
