//! `repro` — regenerates every table and figure of the AETS paper and
//! runs the first-party benches.
//!
//! ```text
//! repro all                     # every experiment, paper scale
//! repro --fast all              # smoke scale (seconds); writes nothing
//! repro fig8 table3             # selected experiments
//! repro bench all               # every bench; writes results/BENCH_*.json
//! repro --fast bench micro      # one bench at smoke scale
//! repro bench telemetry --gate  # non-zero exit on a missed target
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(aets_bench::cli::run(&args));
}
