//! Trace capture and deterministic replay.
//!
//! A *trace* is a JSONL file recording everything that crossed the
//! node's boundary — epoch deliveries and analytical queries, each
//! stamped with its arrival time — plus a final summary line. Capturing
//! a trace during a live (or chaotic) run turns an irreproducible
//! network interleaving into a replayable artifact: feed it back through
//! [`TraceReplayer`] and the engine must reproduce the same final
//! `global_cmt_ts` and byte-identical query results, in any of three
//! modes:
//!
//! * [`ReplayMode::Sequential`] — events in recorded order, no clock:
//!   the default for CI (fast and strictly deterministic).
//! * [`ReplayMode::Paced`] — sleeps out the recorded inter-event gaps
//!   (optionally time-scaled) to reproduce the temporal shape.
//! * [`ReplayMode::AsFastAsPossible`] — bulk-ingests every epoch first,
//!   then runs the queries at their recorded `qts`. Under MVCC with GC
//!   off this provably yields the same snapshots: each query reads at
//!   its recorded timestamp regardless of when later epochs landed.
//!
//! The format is line-oriented JSON built and parsed with the tiny
//! hand-rolled codec below (the workspace builds offline — no JSON
//! dependency). Epoch payloads travel hex-encoded with their CRC, so a
//! trace is also integrity-checked end to end.

use aets_common::{
    hex_decode, hex_encode, json_escape, ColumnId, EpochId, Error, FxHasher, Result, RowKey,
    TableId, Timestamp,
};
use aets_memtable::{Aggregate, MemDb};
use aets_replay::{
    eval_spec, OutputKind, QueryOutput, QuerySpec, QueryTarget, ReplayEngine, SerialEngine,
    VisibilityBoard,
};
use aets_wal::EncodedEpoch;
use std::hash::Hasher;
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;
use std::time::Duration;

/// One recorded boundary event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// An epoch delivery.
    Epoch {
        /// Arrival time on the recorder's clock (micros).
        at_us: u64,
        /// The delivered epoch.
        epoch: EncodedEpoch,
    },
    /// An analytical query and its recorded result.
    Query {
        /// Arrival time on the recorder's clock (micros).
        at_us: u64,
        /// Snapshot timestamp the query read at.
        qts_us: u64,
        /// Scanned table.
        table: TableId,
        /// Optional inclusive key range.
        key_range: Option<(u64, u64)>,
        /// What the query computed (see [`render_output_kind`]).
        output: String,
        /// The rendered result (see [`render_result`]) — the byte-exact
        /// string replay must reproduce.
        result: String,
    },
    /// The summary line closing a trace.
    End {
        /// Final `global_cmt_ts` watermark (micros).
        global_cmt_ts_us: u64,
        /// Epoch events recorded.
        epochs: u64,
        /// Query events recorded.
        queries: u64,
    },
}

impl TraceEvent {
    /// Recorder-clock arrival time; the `end` line reports 0.
    pub fn at_us(&self) -> u64 {
        match self {
            TraceEvent::Epoch { at_us, .. } | TraceEvent::Query { at_us, .. } => *at_us,
            TraceEvent::End { .. } => 0,
        }
    }
}

/// Renders an [`OutputKind`] as the trace's stable `output` token.
pub fn render_output_kind(kind: &OutputKind) -> Result<String> {
    Ok(match kind {
        OutputKind::Count => "count".to_string(),
        OutputKind::Rows => "rows".to_string(),
        OutputKind::AggregateCol { column, agg } => {
            format!("agg:{}:{:?}", column.raw(), agg)
        }
    })
}

fn parse_output_kind(token: &str) -> Result<OutputKind> {
    if token == "count" {
        return Ok(OutputKind::Count);
    }
    if token == "rows" {
        return Ok(OutputKind::Rows);
    }
    if let Some(rest) = token.strip_prefix("agg:") {
        let (col, kind) = rest
            .split_once(':')
            .ok_or_else(|| Error::Codec(format!("trace output token {token:?}")))?;
        let column = ColumnId::new(
            col.parse::<u16>().map_err(|_| Error::Codec(format!("trace agg column {col:?}")))?,
        );
        let agg = match kind {
            "Sum" => Aggregate::Sum,
            "Avg" => Aggregate::Avg,
            "Min" => Aggregate::Min,
            "Max" => Aggregate::Max,
            other => return Err(Error::Codec(format!("trace agg kind {other:?}"))),
        };
        return Ok(OutputKind::AggregateCol { column, agg });
    }
    Err(Error::Codec(format!("trace output token {token:?}")))
}

/// Renders a [`QueryOutput`] as the trace's stable, comparison-ready
/// `result` string. Row sets are compressed to a length plus an
/// [`FxHasher`] digest of their `Debug` text — deterministic (FxHash has
/// no random state) and byte-comparable without storing every row.
pub fn render_result(out: &QueryOutput) -> String {
    match out {
        QueryOutput::Count(n) => format!("count={n}"),
        QueryOutput::Aggregate(v) => format!("agg={v:?}"),
        QueryOutput::Rows(rows) => {
            let mut h = FxHasher::default();
            for (k, row) in rows {
                h.write(format!("{k:?}={row:?};").as_bytes());
            }
            format!("rows={};fxhash={:016x}", rows.len(), h.finish())
        }
    }
}

// --- minimal JSON line codec -------------------------------------------

/// Extracts `"field":<u64>` from a JSON line.
fn field_u64(line: &str, field: &str) -> Result<u64> {
    let pat = format!("\"{field}\":");
    let at = line
        .find(&pat)
        .ok_or_else(|| Error::Codec(format!("trace line missing field {field:?}")))?;
    let rest = &line[at + pat.len()..];
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().map_err(|_| Error::Codec(format!("trace field {field:?} not a number")))
}

fn field_u64_opt(line: &str, field: &str) -> Option<u64> {
    field_u64(line, field).ok()
}

/// Extracts `"field":"<string>"` from a JSON line (no escapes inside the
/// strings this codec emits except `\"` and `\\`).
fn field_str(line: &str, field: &str) -> Result<String> {
    let pat = format!("\"{field}\":\"");
    let at = line
        .find(&pat)
        .ok_or_else(|| Error::Codec(format!("trace line missing field {field:?}")))?;
    let rest = &line[at + pat.len()..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Ok(out),
            '\\' => match chars.next() {
                Some(e) => out.push(e),
                None => break,
            },
            c => out.push(c),
        }
    }
    Err(Error::Codec(format!("unterminated string field {field:?}")))
}

fn encode_event(e: &TraceEvent) -> String {
    match e {
        TraceEvent::Epoch { at_us, epoch } => format!(
            "{{\"kind\":\"epoch\",\"at_us\":{},\"seq\":{},\"txns\":{},\"max_commit_ts_us\":{},\"crc32\":{},\"bytes\":\"{}\"}}",
            at_us,
            epoch.id.raw(),
            epoch.txn_count,
            epoch.max_commit_ts.as_micros(),
            epoch.crc32,
            hex_encode(&epoch.bytes),
        ),
        TraceEvent::Query { at_us, qts_us, table, key_range, output, result } => {
            let range = key_range
                .map(|(lo, hi)| format!(",\"lo\":{lo},\"hi\":{hi}"))
                .unwrap_or_default();
            format!(
                "{{\"kind\":\"query\",\"at_us\":{},\"qts_us\":{},\"table\":{}{},\"output\":\"{}\",\"result\":\"{}\"}}",
                at_us,
                qts_us,
                table.raw(),
                range,
                json_escape(output),
                json_escape(result),
            )
        }
        TraceEvent::End { global_cmt_ts_us, epochs, queries } => format!(
            "{{\"kind\":\"end\",\"global_cmt_ts_us\":{global_cmt_ts_us},\"epochs\":{epochs},\"queries\":{queries}}}"
        ),
    }
}

fn decode_event(line: &str) -> Result<TraceEvent> {
    let kind = field_str(line, "kind")?;
    match kind.as_str() {
        "epoch" => {
            let bytes: std::sync::Arc<[u8]> = hex_decode(&field_str(line, "bytes")?)?.into();
            let epoch = EncodedEpoch {
                id: EpochId::new(field_u64(line, "seq")?),
                txn_count: field_u64(line, "txns")? as usize,
                max_commit_ts: Timestamp::from_micros(field_u64(line, "max_commit_ts_us")?),
                crc32: field_u64(line, "crc32")? as u32,
                bytes,
            };
            // A trace is a durability artifact: verify on the way in.
            epoch.verify()?;
            Ok(TraceEvent::Epoch { at_us: field_u64(line, "at_us")?, epoch })
        }
        "query" => {
            let lo = field_u64_opt(line, "lo");
            let hi = field_u64_opt(line, "hi");
            let key_range = match (lo, hi) {
                (Some(lo), Some(hi)) => Some((lo, hi)),
                _ => None,
            };
            Ok(TraceEvent::Query {
                at_us: field_u64(line, "at_us")?,
                qts_us: field_u64(line, "qts_us")?,
                table: TableId::new(field_u64(line, "table")? as u32),
                key_range,
                output: field_str(line, "output")?,
                result: field_str(line, "result")?,
            })
        }
        "end" => Ok(TraceEvent::End {
            global_cmt_ts_us: field_u64(line, "global_cmt_ts_us")?,
            epochs: field_u64(line, "epochs")?,
            queries: field_u64(line, "queries")?,
        }),
        other => Err(Error::Codec(format!("unknown trace event kind {other:?}"))),
    }
}

// --- recorder -----------------------------------------------------------

/// Streams boundary events into a JSONL trace file.
#[derive(Debug)]
pub struct TraceRecorder {
    out: BufWriter<std::fs::File>,
    epochs: u64,
    queries: u64,
    global_cmt_ts_us: u64,
}

impl TraceRecorder {
    /// Creates (truncates) the trace file at `path`.
    pub fn create(path: &Path) -> Result<TraceRecorder> {
        let f = std::fs::File::create(path)
            .map_err(|e| Error::Io(format!("creating trace {}: {e}", path.display())))?;
        Ok(TraceRecorder { out: BufWriter::new(f), epochs: 0, queries: 0, global_cmt_ts_us: 0 })
    }

    fn write_line(&mut self, line: &str) -> Result<()> {
        self.out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
            .map_err(|e| Error::Io(format!("writing trace: {e}")))
    }

    /// Records an epoch delivery at recorder time `at_us`.
    pub fn record_epoch(&mut self, at_us: u64, epoch: &EncodedEpoch) -> Result<()> {
        self.epochs += 1;
        self.global_cmt_ts_us = self.global_cmt_ts_us.max(epoch.max_commit_ts.as_micros());
        self.write_line(&encode_event(&TraceEvent::Epoch { at_us, epoch: epoch.clone() }))
    }

    /// Records a query and the result it produced. Filtered queries are
    /// refused ([`Error::Config`]): the trace format captures the
    /// scan-shaped workload of the experiments, and silently dropping
    /// filters would record a *different* query than the one that ran.
    pub fn record_query(
        &mut self,
        at_us: u64,
        qts: Timestamp,
        spec: &QuerySpec,
        result: &QueryOutput,
    ) -> Result<()> {
        if !spec.filters.is_empty() {
            return Err(Error::Config("trace capture does not support filtered queries".into()));
        }
        self.queries += 1;
        self.write_line(&encode_event(&TraceEvent::Query {
            at_us,
            qts_us: qts.as_micros(),
            table: spec.table,
            key_range: spec.key_range.map(|(lo, hi)| (lo.raw(), hi.raw())),
            output: render_output_kind(&spec.output)?,
            result: render_result(result),
        }))
    }

    /// Writes the summary line and flushes. Returns the recorded final
    /// watermark.
    pub fn finish(mut self) -> Result<u64> {
        let end = TraceEvent::End {
            global_cmt_ts_us: self.global_cmt_ts_us,
            epochs: self.epochs,
            queries: self.queries,
        };
        let line = encode_event(&end);
        self.write_line(&line)?;
        self.out.flush().map_err(|e| Error::Io(format!("flushing trace: {e}")))?;
        Ok(self.global_cmt_ts_us)
    }
}

// --- replayer -----------------------------------------------------------

/// How [`TraceReplayer::run`] schedules the recorded events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplayMode {
    /// Recorded order, no clock.
    Sequential,
    /// Recorded order, sleeping out the inter-event gaps divided by
    /// `time_scale` (2.0 replays twice as fast).
    Paced {
        /// Speed-up factor (must be positive).
        time_scale: f64,
    },
    /// All epochs first, then all queries at their recorded `qts`.
    AsFastAsPossible,
}

/// What a replay run observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceReport {
    /// Epochs re-ingested.
    pub epochs: u64,
    /// Queries re-executed.
    pub queries: u64,
    /// Queries whose rendered result matched the recording byte for
    /// byte.
    pub queries_matched: u64,
    /// `(query index, recorded, replayed)` for each divergence.
    pub mismatches: Vec<(u64, String, String)>,
    /// Final `global_cmt_ts` the sink reported.
    pub final_global_cmt_ts_us: u64,
    /// Final watermark the recording claimed.
    pub recorded_global_cmt_ts_us: u64,
}

impl TraceReport {
    /// Whether the replay reproduced the recording exactly: every query
    /// result matched and the final watermark agrees.
    pub fn reproduced(&self) -> bool {
        self.mismatches.is_empty() && self.final_global_cmt_ts_us == self.recorded_global_cmt_ts_us
    }
}

/// What a trace replays *into*: a [`QueryTarget`] (recorded queries run
/// through `query_one`, the final watermark is `safe_ts`) that can also
/// ingest an epoch.
pub trait TraceSink: QueryTarget {
    /// Ingests one epoch (in recorded order).
    fn ingest(&mut self, epoch: &EncodedEpoch) -> Result<()>;
}

/// The built-in sink: serial replay into a fresh [`MemDb`] +
/// [`VisibilityBoard`], queries served by MVCC snapshot scans. GC never
/// runs, so recorded `qts` snapshots stay reachable in any replay mode.
#[derive(Debug)]
pub struct EngineSink {
    db: MemDb,
    board: VisibilityBoard,
}

impl EngineSink {
    /// A sink over `num_tables` empty tables.
    pub fn new(num_tables: usize) -> EngineSink {
        EngineSink { db: MemDb::new(num_tables), board: VisibilityBoard::builder(1).build() }
    }

    /// The sink's database (for post-replay assertions).
    pub fn db(&self) -> &MemDb {
        &self.db
    }
}

/// The sink serves queries through the same generic surface as a live
/// node or a fleet: `safe_ts` is the board watermark and specs evaluate
/// against the MVCC snapshot (GC never runs, so every recorded `qts`
/// stays reachable and admission never waits).
impl QueryTarget for EngineSink {
    fn safe_ts(&self) -> Timestamp {
        self.board.global_cmt_ts()
    }

    fn query_at(&self, qts: Timestamp, specs: &[QuerySpec]) -> Result<Vec<QueryOutput>> {
        Ok(specs.iter().map(|s| eval_spec(&self.db, s, qts)).collect())
    }
}

impl TraceSink for EngineSink {
    fn ingest(&mut self, epoch: &EncodedEpoch) -> Result<()> {
        SerialEngine.replay(std::slice::from_ref(epoch), &self.db, &self.board).map(|_| ())
    }
}

/// Replays a recorded trace against a [`TraceSink`].
#[derive(Debug)]
pub struct TraceReplayer {
    events: Vec<TraceEvent>,
    end: Option<(u64, u64, u64)>,
}

impl TraceReplayer {
    /// Loads and validates the trace at `path`.
    pub fn open(path: &Path) -> Result<TraceReplayer> {
        let f = std::fs::File::open(path)
            .map_err(|e| Error::Io(format!("opening trace {}: {e}", path.display())))?;
        let mut events = Vec::new();
        let mut end = None;
        for line in std::io::BufReader::new(f).lines() {
            let line = line.map_err(|e| Error::Io(format!("reading trace: {e}")))?;
            if line.trim().is_empty() {
                continue;
            }
            if end.is_some() {
                return Err(Error::Codec("trace has events after its end line".into()));
            }
            match decode_event(&line)? {
                TraceEvent::End { global_cmt_ts_us, epochs, queries } => {
                    end = Some((global_cmt_ts_us, epochs, queries));
                }
                e => events.push(e),
            }
        }
        Ok(TraceReplayer { events, end })
    }

    /// The loaded events (excluding the end line).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Replays into `sink` under `mode`, comparing every query result
    /// against the recording.
    pub fn run(&self, mode: ReplayMode, sink: &mut dyn TraceSink) -> Result<TraceReport> {
        if let ReplayMode::Paced { time_scale } = mode {
            if time_scale <= 0.0 {
                return Err(Error::Config("paced replay needs a positive time scale".into()));
            }
        }
        let mut report = TraceReport::default();
        if let Some((wm, epochs, queries)) = self.end {
            report.recorded_global_cmt_ts_us = wm;
            let (got_e, got_q) = self.counts();
            if (epochs, queries) != (got_e, got_q) {
                return Err(Error::Codec(format!(
                    "trace end line claims {epochs} epochs / {queries} queries, found {got_e} / {got_q}"
                )));
            }
        }
        match mode {
            ReplayMode::Sequential => {
                for e in &self.events {
                    self.step(e, sink, &mut report)?;
                }
            }
            ReplayMode::Paced { time_scale } => {
                let mut prev_at: Option<u64> = None;
                for e in &self.events {
                    if let Some(p) = prev_at {
                        let gap = e.at_us().saturating_sub(p) as f64 / time_scale;
                        if gap >= 1.0 {
                            std::thread::sleep(Duration::from_micros(gap as u64));
                        }
                    }
                    prev_at = Some(e.at_us());
                    self.step(e, sink, &mut report)?;
                }
            }
            ReplayMode::AsFastAsPossible => {
                for e in &self.events {
                    if matches!(e, TraceEvent::Epoch { .. }) {
                        self.step(e, sink, &mut report)?;
                    }
                }
                for e in &self.events {
                    if matches!(e, TraceEvent::Query { .. }) {
                        self.step(e, sink, &mut report)?;
                    }
                }
            }
        }
        report.final_global_cmt_ts_us = sink.safe_ts().as_micros();
        Ok(report)
    }

    fn counts(&self) -> (u64, u64) {
        let e = self.events.iter().filter(|e| matches!(e, TraceEvent::Epoch { .. })).count();
        let q = self.events.iter().filter(|e| matches!(e, TraceEvent::Query { .. })).count();
        (e as u64, q as u64)
    }

    fn step(
        &self,
        event: &TraceEvent,
        sink: &mut dyn TraceSink,
        report: &mut TraceReport,
    ) -> Result<()> {
        match event {
            TraceEvent::Epoch { epoch, .. } => {
                sink.ingest(epoch)?;
                report.epochs += 1;
            }
            TraceEvent::Query { qts_us, table, key_range, output, result, .. } => {
                let spec = QuerySpec {
                    table: *table,
                    key_range: key_range.map(|(lo, hi)| (RowKey::new(lo), RowKey::new(hi))),
                    filters: Vec::new(),
                    output: parse_output_kind(output)?,
                    timeout: None,
                };
                let got = sink.query_one(Timestamp::from_micros(*qts_us), spec)?;
                let rendered = render_result(&got);
                let idx = report.queries;
                report.queries += 1;
                if rendered == *result {
                    report.queries_matched += 1;
                } else {
                    report.mismatches.push((idx, result.clone(), rendered));
                }
            }
            TraceEvent::End { .. } => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aets_wal::{batch_into_epochs, encode_epoch};
    use aets_workloads::tpcc::{self, TpccConfig};

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "aets-trace-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0),
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn stream() -> (Vec<EncodedEpoch>, usize) {
        let w = tpcc::generate(&TpccConfig { num_txns: 600, warehouses: 2, ..Default::default() });
        let n = w.num_tables();
        let epochs =
            batch_into_epochs(w.txns, 64).unwrap().iter().map(encode_epoch).collect::<Vec<_>>();
        (epochs, n)
    }

    fn record_reference(path: &Path, epochs: &[EncodedEpoch], n: usize) -> u64 {
        let mut rec = TraceRecorder::create(path).unwrap();
        let mut live = EngineSink::new(n);
        let mut at = 0u64;
        for (i, e) in epochs.iter().enumerate() {
            at += 100;
            live.ingest(e).unwrap();
            rec.record_epoch(at, e).unwrap();
            // A query after every other epoch, at the live watermark.
            if i % 2 == 1 {
                at += 10;
                let qts = live.safe_ts();
                for spec in [
                    QuerySpec::count(TableId::new((i % n) as u32)),
                    QuerySpec::rows(TableId::new((i % n) as u32))
                        .keys(RowKey::new(0), RowKey::new(u64::MAX / 2)),
                    QuerySpec::aggregate(
                        TableId::new((i % n) as u32),
                        ColumnId::new(0),
                        Aggregate::Sum,
                    ),
                ] {
                    let out = live.query_one(qts, spec.clone()).unwrap();
                    rec.record_query(at, qts, &spec, &out).unwrap();
                }
            }
        }
        rec.finish().unwrap()
    }

    #[test]
    fn record_then_replay_reproduces_in_every_mode() {
        let dir = scratch("modes");
        let path = dir.join("run.jsonl");
        let (epochs, n) = stream();
        let recorded_wm = record_reference(&path, &epochs, n);
        assert!(recorded_wm > 0);

        let replayer = TraceReplayer::open(&path).unwrap();
        for mode in [
            ReplayMode::Sequential,
            ReplayMode::Paced { time_scale: 1_000.0 },
            ReplayMode::AsFastAsPossible,
        ] {
            let mut sink = EngineSink::new(n);
            let report = replayer.run(mode, &mut sink).unwrap();
            assert!(
                report.reproduced(),
                "{mode:?} diverged: {:?} (wm {} vs {})",
                report.mismatches.first(),
                report.final_global_cmt_ts_us,
                report.recorded_global_cmt_ts_us
            );
            assert_eq!(report.final_global_cmt_ts_us, recorded_wm);
            assert!(report.queries > 0 && report.queries_matched == report.queries);
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn divergence_is_detected() {
        let dir = scratch("diverge");
        let path = dir.join("run.jsonl");
        let (epochs, n) = stream();
        record_reference(&path, &epochs, n);

        // A sink with a table missing diverges (its scans return empty).
        struct LossySink(EngineSink);
        impl QueryTarget for LossySink {
            fn safe_ts(&self) -> Timestamp {
                self.0.safe_ts()
            }
            fn query_at(&self, qts: Timestamp, specs: &[QuerySpec]) -> Result<Vec<QueryOutput>> {
                // Misroute every query to table 0: wrong snapshots.
                let misrouted: Vec<QuerySpec> = specs
                    .iter()
                    .map(|s| QuerySpec { table: TableId::new(0), ..s.clone() })
                    .collect();
                self.0.query_at(qts, &misrouted)
            }
        }
        impl TraceSink for LossySink {
            fn ingest(&mut self, epoch: &EncodedEpoch) -> Result<()> {
                self.0.ingest(epoch)
            }
        }
        let replayer = TraceReplayer::open(&path).unwrap();
        let mut sink = LossySink(EngineSink::new(n));
        let report = replayer.run(ReplayMode::Sequential, &mut sink).unwrap();
        assert!(!report.mismatches.is_empty(), "misrouted queries must diverge");
        assert!(!report.reproduced());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corrupt_trace_payloads_are_rejected() {
        let dir = scratch("corrupt");
        let path = dir.join("run.jsonl");
        let (epochs, n) = stream();
        record_reference(&path, &epochs, n);
        let text = std::fs::read_to_string(&path).unwrap();
        // Flip one hex digit inside the first epoch payload.
        let at = text.find("\"bytes\":\"").unwrap() + "\"bytes\":\"".len();
        let mut bad = text.into_bytes();
        bad[at] = if bad[at] == b'0' { b'1' } else { b'0' };
        std::fs::write(&path, bad).unwrap();
        assert!(matches!(TraceReplayer::open(&path), Err(Error::CodecChecksum)));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn non_ascii_and_odd_length_trace_payloads_are_codec_errors() {
        let dir = scratch("non-hex");
        let path = dir.join("run.jsonl");
        let (epochs, n) = stream();
        record_reference(&path, &epochs, n);
        let text = std::fs::read_to_string(&path).unwrap();
        let at = text.find("\"bytes\":\"").unwrap() + "\"bytes\":\"".len();
        // "aé" is three bytes over three hex digits: the payload keeps an
        // even length, and its first pair ends inside the 'é'.
        for bad in [
            format!("{}aé{}", &text[..at], &text[at + 3..]),
            format!("{}{}", &text[..at], &text[at + 1..]),
        ] {
            std::fs::write(&path, bad).unwrap();
            let got = TraceReplayer::open(&path);
            assert!(matches!(got, Err(Error::Codec(_))), "{got:?}");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn filtered_queries_are_refused_at_capture() {
        let dir = scratch("filters");
        let path = dir.join("run.jsonl");
        let mut rec = TraceRecorder::create(&path).unwrap();
        let spec = QuerySpec::count(TableId::new(0)).filter(aets_memtable::Filter {
            column: ColumnId::new(0),
            op: aets_memtable::CmpOp::Eq,
            value: aets_common::Value::Int(1),
        });
        let err = rec.record_query(0, Timestamp::ZERO, &spec, &QueryOutput::Count(0)).unwrap_err();
        assert!(matches!(err, Error::Config(_)));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn events_round_trip_through_the_line_codec() {
        let (epochs, _) = stream();
        let events = vec![
            TraceEvent::Epoch { at_us: 42, epoch: epochs[0].clone() },
            TraceEvent::Query {
                at_us: 50,
                qts_us: 1234,
                table: TableId::new(3),
                key_range: Some((7, 900)),
                output: "agg:2:Sum".into(),
                result: "agg=Some(5.0)".into(),
            },
            TraceEvent::Query {
                at_us: 60,
                qts_us: 99,
                table: TableId::new(0),
                key_range: None,
                output: "count".into(),
                result: "count=17".into(),
            },
            TraceEvent::End { global_cmt_ts_us: 5555, epochs: 1, queries: 2 },
        ];
        for e in events {
            let line = encode_event(&e);
            let got = decode_event(&line).unwrap();
            match (&e, &got) {
                (TraceEvent::Epoch { epoch: a, .. }, TraceEvent::Epoch { epoch: b, .. }) => {
                    assert_eq!(a.id, b.id);
                    assert_eq!(a.bytes, b.bytes);
                    assert_eq!(a.crc32, b.crc32);
                }
                _ => assert_eq!(e, got),
            }
        }
    }
}
