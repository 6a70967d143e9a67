//! Metric collection and output: a named value with its sample count,
//! the failure ledger, the provenance block, and the one-line JSON
//! result the driver reads.

use crate::inputs::{ENGINE_THREADS, EPOCH_TXNS};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile};
use crate::Args;
use aets_replay::DurableOptions;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, usize)>,
    /// Epochs + queries + digest checks attempted.
    pub attempted: u64,
    /// Timeouts, refusals, ship/ingest errors, a growing backlog — and
    /// every mismatch.
    pub failed: u64,
    /// Outputs that differ from the serial oracle (digests, query
    /// results). Any of these makes the run incorrect.
    pub mismatches: u64,
    pub reps_kept: usize,
    pub reps_discarded: usize,
    pub notes: Vec<String>,
}

impl Report {
    /// Records `name`; it must be in the contract (`spec.rs`). A value
    /// with no sample behind it is not recorded: an end-to-end metric left
    /// unmeasured fails the run, it does not read as a perfect 0.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "{name} is not in spec.rs"
        );
        if samples > 0 && value.is_finite() {
            self.values.insert(name, (value, samples));
        }
    }

    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        self.set(name, median(samples), samples.len());
    }

    pub fn set_pct(&mut self, name: &'static str, samples: &[f64], p: f64) {
        self.set(name, percentile(samples, p), samples.len());
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| v.0)
    }

    /// One failed operation, with the reason kept for the output.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(why);
        }
    }

    /// One output that differs from the oracle.
    pub fn mismatch(&mut self, why: String) {
        self.mismatches += 1;
        self.fail(why);
    }

    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    /// No output differed from the oracle and every end-to-end metric
    /// was measured.
    pub fn correct(&self) -> bool {
        self.mismatches == 0 && END_TO_END.iter().all(|m| self.values.contains_key(m.name))
    }

    /// Human-readable metrics, then the result object as the last line.
    /// With the tracer off the object carries the end-to-end metrics,
    /// with it on the per-layer ones (absent = 0: the layer did no work).
    pub fn print(&self, args: &Args, scratch: &Path) {
        println!("--- provenance");
        for (k, v) in provenance(args, self, scratch) {
            println!("{k:<20} {v}");
        }
        println!("--- metrics ({})", args.workload);
        for m in END_TO_END.iter().chain(PER_LAYER) {
            match self.values.get(m.name) {
                Some((v, n)) => println!("{:<38} {v:>16.3} {:<6} n={n}", m.name, m.unit),
                None if END_TO_END.iter().any(|e| e.name == m.name) => {
                    println!("{:<38} {:>16} {:<6} n=0", m.name, "NOT MEASURED", m.unit)
                }
                None => {}
            }
        }
        println!(
            "failed_ops_share {} / {} = {:.6}",
            self.failed,
            self.attempted,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for n in &self.notes {
            println!("note: {n}");
        }

        let mut metrics = String::new();
        let mut push = |name: &str, unit: &str| {
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            metrics.push_str(&format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                self.get(name)
            ));
        };
        if args.trace {
            PER_LAYER.iter().for_each(|m| push(m.name, m.unit));
        } else {
            END_TO_END.iter().for_each(|m| push(m.name, m.unit));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
fn fs_type(path: &Path) -> String {
    let abs = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let (_, mount, fs) = (it.next()?, it.next()?, it.next()?);
            abs.starts_with(mount).then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Commit of the checkout, read without starting a process; the
/// driver's checkout is not a git repository.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or(head.clone(), |s| s.trim().to_string()),
        None => head,
    }
}

fn provenance(args: &Args, r: &Report, scratch: &Path) -> Vec<(&'static str, String)> {
    let d = DurableOptions::default();
    let fs = fs_type(scratch);
    let fs_note = if fs == "tmpfs" || fs == "ramfs" {
        " (fsync here is a no-op in RAM, not a device number)"
    } else {
        " (sandbox disk; fsync latency is the sandbox's, not a device's)"
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("smoke", args.smoke.to_string()),
        ("nproc", nproc.to_string()),
        ("git_rev", git_rev()),
        ("cargo_profile", if cfg!(debug_assertions) { "debug" } else { "release" }.into()),
        ("reps", format!("{} kept, {} discarded", r.reps_kept, r.reps_discarded)),
        ("engine_threads", ENGINE_THREADS.to_string()),
        ("epoch_txns", EPOCH_TXNS.to_string()),
        ("fsync_policy", format!("{:?}", d.segment.fsync)),
        (
            "checkpoint_every",
            format!(
                "{} epochs, gc_before_checkpoint {}",
                d.checkpoint_every, d.gc_before_checkpoint
            ),
        ),
        ("scratch_dir", format!("{} on {fs}{fs_note}", scratch.display())),
        (
            "method",
            "inputs from --seed; afap: median over kept reps (rep 0 discarded); paced: all \
             samples of the window, timed from the schedule; tracer off for end-to-end, on \
             (plus layer drill) for per-layer; outputs checked against the serial oracle"
                .into(),
        ),
    ]
}
