//! End-to-end benchmark of the AETS backup: ship -> visible -> query.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload paced_htap_chbench --seed 42 --seconds 24 --trace 0
//! ```
//!
//! Without `--workload` every workload runs, each in its own process.
//! See `benchmark/README.md` for what each metric and workload means.

mod catchup_durable;
mod catchup_engine;
mod drill;
mod durable;
mod inputs;
mod paced_htap;
mod query;
mod report;
mod scan_heavy;
mod spec;
mod stats;
mod tracer;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tracer::Tracer;

/// Seconds one run measures when `--seconds` is not given
/// (`run_seconds` in `BENCHMARK.json`).
const RUN_SECONDS: f64 = 24.0;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Same code paths at a twentieth of the size; no bound means anything.
    pub smoke: bool,
}

impl Args {
    /// A size, divided by 20 under `--smoke`.
    pub fn scaled(&self, n: usize) -> usize {
        if self.smoke {
            (n / 20).max(1)
        } else {
            n
        }
    }
}

/// What a workload runs against.
pub struct Ctx {
    pub args: Args,
    pub tracer: Tracer,
    /// Scratch directory for WAL segments and checkpoints, inside the
    /// checkout; removed at exit.
    pub scratch: PathBuf,
    pub report: Report,
}

/// Paces the repetitions of an as-fast-as-possible workload: at least
/// `min` of them, then as many as still end inside the run's seconds.
pub struct Reps {
    start: Instant,
    budget: Duration,
    min: usize,
    done: usize,
}

impl Reps {
    pub fn new(seconds: f64, min: usize) -> Self {
        Self { start: Instant::now(), budget: Duration::from_secs_f64(seconds), min, done: 0 }
    }
}

impl Iterator for Reps {
    type Item = usize;

    /// The next rep's index, or `None` once one more rep of the mean
    /// length so far would overrun.
    fn next(&mut self) -> Option<usize> {
        let spent = self.start.elapsed();
        let fits = self.done == 0 || spent + spent / self.done as u32 <= self.budget;
        (self.done < self.min || fits).then(|| {
            self.done += 1;
            self.done - 1
        })
    }
}

/// One benchmark workload: build its inputs (timed as `setup_s`), then
/// measure.
pub trait Workload {
    type Setup;
    fn setup(args: &Args) -> Self::Setup;
    fn run(setup: Self::Setup, ctx: &mut Ctx);
}

fn drive<W: Workload>(ctx: &mut Ctx) {
    // Set-up runs several times so its reported time is a median.
    let reps = if ctx.args.smoke { 1 } else { 3 };
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(W::setup(&ctx.args));
        times.push(t0.elapsed().as_secs_f64());
    }
    ctx.report.set_median("setup_s", &times);
    let t0 = Instant::now();
    W::run(last.expect("at least one set-up"), ctx);
    if ctx.args.trace {
        // Spans recorded x the measured cost of recording one, over the
        // time they were recorded in. Pairing traced and untraced reps
        // instead measures this sandbox's drift, not a handful of spans.
        let spans = ctx.tracer.len();
        let cost_s = spans as f64 * Tracer::span_cost_ns() / 1e9;
        let pct = cost_s / t0.elapsed().as_secs_f64() * 100.0;
        ctx.report.set("bench.trace_overhead_pct", pct, spans);
    }
    // The afap workloads sample it after their first rep instead: how
    // many reps fit in the time must not leak into a memory number.
    if ctx.report.get("peak_rss_mib") == 0.0 {
        ctx.report.set("peak_rss_mib", report::peak_rss_mib(), 1);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: aets-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--smoke]\nworkloads: {}",
        spec::WORKLOADS.join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value() != "0",
            "--smoke" => args.smoke = true,
            _ => usage(),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        usage();
    }
    if args.smoke {
        args.seconds = args.seconds.min(2.0);
    }
    args
}

/// Runs every workload, one child process each (so `peak_rss_mib` is
/// per workload), relaying their output.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for w in spec::WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &args.seed.to_string()]);
        cmd.args(["--seconds", &args.seconds.to_string()]);
        cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd.status().expect("spawn workload process");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.workload.is_empty() {
        return run_all(&args);
    }

    let out = if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    };
    let scratch = out.join("scratch").join(std::process::id().to_string());
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let mut ctx = Ctx { tracer: Tracer::new(args.trace), scratch, report: Report::default(), args };

    match ctx.args.workload.as_str() {
        "catchup_durable_chbench" => drive::<catchup_durable::CatchupDurable>(&mut ctx),
        "catchup_engine_bustracker" => drive::<catchup_engine::CatchupEngine>(&mut ctx),
        "paced_htap_chbench" => drive::<paced_htap::PacedHtap>(&mut ctx),
        "scan_heavy_chbench" => drive::<scan_heavy::ScanHeavy>(&mut ctx),
        _ => usage(),
    }

    let r = &mut ctx.report;
    let share = r.failed as f64 / r.attempted.max(1) as f64;
    r.set("failed_ops_share", share, r.attempted as usize);
    if ctx.args.trace {
        let path = out.join(format!("trace_{}.jsonl", ctx.args.workload));
        match ctx.tracer.write_jsonl(&path) {
            Ok(()) => r.note(format!("{} spans written to {}", ctx.tracer.len(), path.display())),
            Err(e) => r.note(format!("could not write {}: {e}", path.display())),
        }
        println!("--- layer times from spans (ms)");
        println!("{:<34} {:>8} {:>12} {:>12}", "span", "count", "total", "self");
        for (name, t) in ctx.tracer.layer_times() {
            println!(
                "{name:<34} {:>8} {:>12.3} {:>12.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    ctx.report.print(&ctx.args, &ctx.scratch);
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    if ctx.report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
