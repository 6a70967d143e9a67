//! Degraded-mode flight recorder.
//!
//! When a run hits an anomaly — a group quarantine, a fleet failover, a
//! net-shipping resync — the in-memory rings hold exactly the forensic
//! record an operator needs, and exactly the record that is gone once
//! the process exits. The flight recorder makes that record durable: on
//! each trigger event it dumps a bounded JSON bundle (recent spans,
//! undelivered events, a full metric snapshot) into its directory,
//! keeping only the newest eight bundles.
//!
//! Dumps are best-effort by design: they run inside
//! [`crate::Telemetry::event`] on replay/supervision threads, so an
//! unwritable directory must never take the node down — errors are
//! counted, not propagated.

use crate::events::events_json;
use crate::trace::spans_json;
use crate::Telemetry;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Newest bundles kept on disk; older ones are deleted.
const RETENTION: usize = 8;

/// Most recent spans included per bundle.
const MAX_SPANS: usize = 2048;

/// Dumps bounded post-mortem bundles on anomaly events.
#[derive(Debug)]
pub struct FlightRecorder {
    dir: PathBuf,
    next_seq: AtomicU64,
    failed: AtomicU64,
}

impl FlightRecorder {
    /// Creates the bundle directory `dir` and positions the sequence
    /// after any bundles already in it, so restarts never overwrite
    /// history.
    pub fn create(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let next =
            list_bundles(&dir)?.iter().filter_map(|p| bundle_seq(p)).max().map_or(0, |max| max + 1);
        Ok(Self { dir, next_seq: AtomicU64::new(next), failed: AtomicU64::new(0) })
    }

    /// The bundle directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Dumps failed with an I/O error so far.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Writes one bundle named after `reason` (the trigger event's
    /// snake_case name) and enforces retention. Returns the bundle path.
    pub fn dump(&self, reason: &str, tel: &Telemetry) -> io::Result<PathBuf> {
        match self.try_dump(reason, tel) {
            Ok(path) => Ok(path),
            Err(e) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    fn try_dump(&self, reason: &str, tel: &Telemetry) -> io::Result<PathBuf> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let safe: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == '-' { c } else { '_' })
            .collect();
        let path = self.dir.join(format!("flight-{seq:06}-{safe}.json"));

        let spans = tel.spans().recent(MAX_SPANS);
        let events = tel.peek_events();
        let mut bundle = String::with_capacity(4096);
        bundle.push_str("{\n");
        let _ = writeln!(bundle, "  \"reason\": \"{safe}\",");
        let _ = writeln!(bundle, "  \"seq\": {seq},");
        let _ = writeln!(bundle, "  \"spans\": {},", spans_json(&spans));
        let _ = writeln!(bundle, "  \"spans_dropped\": {},", tel.spans().dropped());
        let _ = writeln!(bundle, "  \"events\": {},", events_json(&events));
        // `render_json` ends with a newline, so the closing brace lands
        // on its own line.
        let _ = write!(bundle, "  \"snapshot\": {}", tel.snapshot().render_json());
        bundle.push_str("}\n");

        // Write-then-rename: a crashed dump leaves a `.tmp`, never a
        // truncated bundle that a post-mortem parser would choke on.
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, bundle.as_bytes())?;
        std::fs::rename(&tmp, &path)?;
        self.enforce_retention()?;
        Ok(path)
    }

    fn enforce_retention(&self) -> io::Result<()> {
        let bundles = list_bundles(&self.dir)?;
        if bundles.len() > RETENTION {
            for old in &bundles[..bundles.len() - RETENTION] {
                std::fs::remove_file(old)?;
            }
        }
        Ok(())
    }
}

/// Bundle files in `dir`, oldest first (sequence prefix orders names).
pub fn list_bundles(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if bundle_seq(&path).is_some() {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

fn bundle_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let rest = name.strip_prefix("flight-")?;
    if !name.ends_with(".json") {
        return None;
    }
    rest.split('-').next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{names, EventKind};

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aets-flight-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn dump_writes_a_parseable_bundle() {
        let dir = scratch("dump");
        let tel = Telemetry::new();
        tel.registry().counter(names::EPOCHS).add(2);
        tel.event(EventKind::GroupQuarantined { group: 1, reason: "record crc".into() });
        tel.spans().point(7, crate::trace::stages::FLIP_GLOBAL, None, None);

        let fr = FlightRecorder::create(&dir).expect("create");
        let path = fr.dump("group_quarantined", &tel).expect("dump");
        let body = std::fs::read_to_string(&path).expect("bundle readable");
        assert!(body.contains("\"reason\": \"group_quarantined\""));
        assert!(body.contains("\"stage\": \"flip_global\""));
        assert!(body.contains("\"kind\": \"group_quarantined\""));
        assert!(body.contains("\"name\": \"aets_epochs_total\""));
        assert_eq!(fr.failed(), 0);
        // The dump peeked, never drained: the real consumer still sees it.
        assert_eq!(tel.drain_events().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_keeps_only_the_newest_bundles() {
        let dir = scratch("retention");
        let tel = Telemetry::new();
        let fr = FlightRecorder::create(&dir).expect("create");
        for i in 0..RETENTION + 4 {
            fr.dump(&format!("trigger_{i}"), &tel).expect("dump");
        }
        let bundles = list_bundles(&dir).expect("list");
        assert_eq!(bundles.len(), RETENTION);
        assert!(bundles[0].to_string_lossy().contains("flight-000004"), "{bundles:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_resumes_the_sequence_without_overwriting() {
        let dir = scratch("restart");
        let tel = Telemetry::new();
        {
            let fr = FlightRecorder::create(&dir).expect("create");
            fr.dump("first", &tel).expect("dump");
        }
        let fr = FlightRecorder::create(&dir).expect("reopen");
        let path = fr.dump("second", &tel).expect("dump");
        assert!(path.to_string_lossy().contains("flight-000001"));
        assert_eq!(list_bundles(&dir).expect("list").len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
