//! Binary codec for the replicated value log.
//!
//! A deliberately simple little-endian framing: each record starts with a
//! one-byte type tag. DML payloads are length-prefixed. The codec is the
//! boundary between the "primary" (workload generators) and the backup's
//! log parser; the dispatch-cost distinction the paper draws between
//! metadata-only parsing (ATR/AETS) and full-data-image parsing (C5) maps
//! onto [`decode_meta`] vs [`decode_record`].
//!
//! Every record carries a trailing CRC32 over its encoded body. One
//! offset parser over the borrowed frame decodes full records for every
//! caller — [`decode_record`] (C5's dispatcher), [`decode_at`] (ATR),
//! [`decode_dml_at`] (AETS's phase-1 translate, which validates the before
//! image without building it), [`decode_batch_into`] (the serial oracle)
//! and [`decode_row`] — and verifies the CRC after the body, so corruption
//! that slipped past the epoch frame check fails the same way whoever
//! reads it. [`decode_meta`] *skips* the CRC: the metadata-only dispatch
//! path never touches data images, and its integrity is covered by the
//! per-epoch CRC verified once at ingest.
//!
//! A decoded text or bytes value owns its payload: each is copied out of
//! the buffer it was read from into one allocation of its own, so no
//! committed version keeps an epoch frame or a checkpoint manifest alive.
//!
//! Encoders append to a `Vec<u8>`; decoders read a `&[u8]` at an offset
//! through [`take`] and its fixed-width twins, the one bounds-checked
//! reader the log codec, the Memtable snapshot, the checkpoint manifest
//! and the WAL segments share.

use crate::crc::crc32;
use crate::entry::{DmlEntry, LogRecord};
use aets_common::{
    ColumnId, DmlOp, Error, Lsn, Result, Row, RowKey, TableId, Timestamp, TxnId, Value,
};
use std::ops::Range;
use std::sync::Arc;

const TAG_BEGIN: u8 = 0xB0;
const TAG_COMMIT: u8 = 0xC0;
const TAG_DML: u8 = 0xD0;

const VTAG_NULL: u8 = 0;
const VTAG_INT: u8 = 1;
const VTAG_FLOAT: u8 = 2;
const VTAG_TEXT: u8 = 3;
const VTAG_BYTES: u8 = 4;

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(VTAG_NULL),
        Value::Int(i) => {
            buf.push(VTAG_INT);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            buf.push(VTAG_FLOAT);
            buf.extend_from_slice(&f.to_le_bytes());
        }
        Value::Text(s) => put_payload(buf, VTAG_TEXT, s.as_bytes()),
        Value::Bytes(b) => put_payload(buf, VTAG_BYTES, b),
    }
}

fn put_payload(buf: &mut Vec<u8>, vtag: u8, payload: &[u8]) {
    buf.push(vtag);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Encodes one row (column/value pairs) in the log's wire format,
/// appending to `buf`. Shared with the Memtable snapshot codec so
/// checkpoints reuse the same battle-tested value encoding as the log.
pub fn encode_row(buf: &mut Vec<u8>, row: &Row) {
    buf.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for (cid, v) in row {
        buf.extend_from_slice(&cid.raw().to_le_bytes());
        put_value(buf, v);
    }
}

/// Decodes the row at `*pos` of `data`, leaving `*pos` past it. Inverse
/// of [`encode_row`].
pub fn decode_row(data: &[u8], pos: &mut usize) -> Result<Row> {
    let mut row = Vec::new();
    row_at(data, pos, Some(&mut row))?;
    Ok(row)
}

/// Encodes one record, appending to `buf`: the record body followed by a
/// CRC32 over the body's bytes.
pub fn encode_record(buf: &mut Vec<u8>, rec: &LogRecord) {
    let start = buf.len();
    let (tag, lsn, txn_id, ts) = match rec {
        LogRecord::Begin { lsn, txn_id, ts } => (TAG_BEGIN, lsn, txn_id, ts),
        LogRecord::Commit { lsn, txn_id, ts } => (TAG_COMMIT, lsn, txn_id, ts),
        LogRecord::Dml(d) => (TAG_DML, &d.lsn, &d.txn_id, &d.ts),
    };
    buf.push(tag);
    for word in [lsn.raw(), txn_id.raw(), ts.as_micros()] {
        buf.extend_from_slice(&word.to_le_bytes());
    }
    if let LogRecord::Dml(d) = rec {
        buf.extend_from_slice(&d.table.raw().to_le_bytes());
        buf.push(d.op.tag());
        buf.extend_from_slice(&d.key.raw().to_le_bytes());
        buf.extend_from_slice(&d.row_version.to_le_bytes());
        buf.push(u8::from(d.before.is_some()));
        encode_row(buf, &d.cols);
        if let Some(before) = &d.before {
            encode_row(buf, before);
        }
    }
    let crc = crc32(&buf[start..]);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Decodes the record at `*pos` of `data`, verifies its trailing CRC32
/// against the body bytes actually read, and leaves `*pos` past it.
pub fn decode_record(data: &[u8], pos: &mut usize) -> Result<LogRecord> {
    record_at(data, pos, true)
}

/// The one record parser: parses the record at `*pos` of `data`,
/// verifies its CRC32 trailer against the body bytes, and leaves `*pos`
/// past the trailer. Each text or bytes value owns a copy of its
/// payload, so a decoded record keeps no frame alive. Without
/// `build_before` a DML before image is validated (tags, lengths, UTF-8)
/// but not built, and `before` comes back `None`.
fn record_at(data: &[u8], pos: &mut usize, build_before: bool) -> Result<LogRecord> {
    let start = *pos;
    let tag = take(data, pos, 1)?[0];
    // The whole fixed header is length-checked before any field is read:
    // lsn(8) + txn(8) + ts(8), then for DML table(4) + op(1) + key(8) +
    // row_version(8) + before-flag(1).
    let fixed = match tag {
        TAG_BEGIN | TAG_COMMIT => take(data, pos, 24)?,
        TAG_DML => take(data, pos, 46)?,
        _ => return Err(Error::CodecBadTag),
    };
    let mut f = 0;
    let lsn = Lsn::new(take_u64(fixed, &mut f)?);
    let txn_id = TxnId::new(take_u64(fixed, &mut f)?);
    let ts = Timestamp::from_micros(take_u64(fixed, &mut f)?);
    let rec = match tag {
        TAG_BEGIN => LogRecord::Begin { lsn, txn_id, ts },
        TAG_COMMIT => LogRecord::Commit { lsn, txn_id, ts },
        _ => {
            let table = TableId::new(take_u32(fixed, &mut f)?);
            let op = DmlOp::from_tag(take(fixed, &mut f, 1)?[0]).ok_or(Error::CodecBadTag)?;
            let key = RowKey::new(take_u64(fixed, &mut f)?);
            let row_version = take_u64(fixed, &mut f)?;
            let has_before = take(fixed, &mut f, 1)?[0] != 0;
            let mut cols = Vec::new();
            row_at(data, pos, Some(&mut cols))?;
            let mut image = Vec::new();
            if has_before {
                row_at(data, pos, build_before.then_some(&mut image))?;
            }
            let before = (has_before && build_before).then_some(image);
            LogRecord::Dml(DmlEntry { lsn, txn_id, ts, table, op, key, row_version, cols, before })
        }
    };
    let body = start..*pos;
    if take_u32(data, pos)? != crc32(&data[body]) {
        return Err(Error::CodecChecksum);
    }
    Ok(rec)
}

/// Metadata of a DML entry decoded without touching the data image.
///
/// This is what ATR and AETS parse at dispatch time ("only need to parse
/// the log metadata", Section VI-B); C5 must decode the full record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordMeta {
    /// Record LSN.
    pub lsn: Lsn,
    /// Producing transaction.
    pub txn_id: TxnId,
    /// Entry creation timestamp.
    pub ts: Timestamp,
    /// Table id for DML records; `None` for BEGIN/COMMIT markers.
    pub table: Option<TableId>,
}

/// Decodes only the metadata of the record at `*pos` of `data`, skipping
/// the data image, and leaves `*pos` past the full record.
///
/// The trailing record CRC32 is skipped, *not* verified: verifying it
/// would force reading the data image, defeating metadata-only parsing.
/// The dispatch path instead relies on the per-epoch CRC checked once at
/// ingest; record CRCs are verified wherever full records are decoded.
/// The scanner's hot loop calls this once per record: pure offset
/// arithmetic, no refcount touched and no sub-slice materialized.
pub fn decode_meta(data: &[u8], pos: &mut usize) -> Result<RecordMeta> {
    let tag = take(data, pos, 1)?[0];
    let lsn = Lsn::new(take_u64(data, pos)?);
    let txn_id = TxnId::new(take_u64(data, pos)?);
    let ts = Timestamp::from_micros(take_u64(data, pos)?);
    let meta = match tag {
        TAG_BEGIN | TAG_COMMIT => RecordMeta { lsn, txn_id, ts, table: None },
        TAG_DML => {
            let table = TableId::new(take_u32(data, pos)?);
            take(data, pos, 17)?; // op(1) + key(8) + row_version(8)
            let has_before = take(data, pos, 1)?[0] != 0;
            skip_row_at(data, pos)?;
            if has_before {
                skip_row_at(data, pos)?;
            }
            RecordMeta { lsn, txn_id, ts, table: Some(table) }
        }
        _ => return Err(Error::CodecBadTag),
    };
    take(data, pos, 4)?; // record CRC32 trailer
    Ok(meta)
}

/// Advances `*pos` past `n` bytes of `data` and returns them, or
/// [`Error::CodecTruncated`] (leaving `*pos` alone) when `data` ends
/// first.
#[inline]
pub fn take<'a>(data: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8]> {
    let end = pos.checked_add(n).ok_or(Error::CodecTruncated)?;
    let slice = data.get(*pos..end).ok_or(Error::CodecTruncated)?;
    *pos = end;
    Ok(slice)
}

/// [`take`] of a little-endian `u16`.
#[inline]
pub fn take_u16(data: &[u8], pos: &mut usize) -> Result<u16> {
    let b = take(data, pos, 2)?;
    Ok(u16::from_le_bytes([b[0], b[1]]))
}

/// [`take`] of a little-endian `u32`.
#[inline]
pub fn take_u32(data: &[u8], pos: &mut usize) -> Result<u32> {
    let b = take(data, pos, 4)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// [`take`] of a little-endian `u64`.
#[inline]
pub fn take_u64(data: &[u8], pos: &mut usize) -> Result<u64> {
    let b = take(data, pos, 8)?;
    Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
}

/// Parses the row at `*pos` of `data`, appending its columns to `out`;
/// with `out` `None` it checks every tag, length and UTF-8 payload and
/// builds nothing.
fn row_at(data: &[u8], pos: &mut usize, mut out: Option<&mut Row>) -> Result<()> {
    let n = take_u16(data, pos)? as usize;
    if let Some(row) = out.as_deref_mut() {
        row.reserve_exact(n);
    }
    for _ in 0..n {
        let cid = ColumnId::new(take_u16(data, pos)?);
        let value = match take(data, pos, 1)?[0] {
            VTAG_NULL => Value::Null,
            VTAG_INT => Value::Int(take_u64(data, pos)? as i64),
            VTAG_FLOAT => Value::Float(f64::from_bits(take_u64(data, pos)?)),
            vtag @ (VTAG_TEXT | VTAG_BYTES) => {
                let len = take_u32(data, pos)? as usize;
                let payload = take(data, pos, len)?;
                let text = || {
                    std::str::from_utf8(payload)
                        .map_err(|_| Error::Codec("invalid utf-8 in text value".into()))
                };
                // A copy into the value's own allocation, never a view:
                // a view would keep all of `data` (an epoch frame, a
                // checkpoint manifest) alive as long as the version lives.
                match (vtag, out.is_some()) {
                    (VTAG_TEXT, true) => Value::Text(Arc::from(text()?)),
                    (VTAG_TEXT, false) => text().map(|_| Value::Null)?,
                    (_, true) => Value::Bytes(Arc::from(payload)),
                    _ => Value::Null,
                }
            }
            _ => return Err(Error::CodecBadTag),
        };
        if let Some(row) = out.as_deref_mut() {
            row.push((cid, value));
        }
    }
    Ok(())
}

fn skip_row_at(data: &[u8], pos: &mut usize) -> Result<()> {
    let n = take_u16(data, pos)? as usize;
    for _ in 0..n {
        take(data, pos, 2)?; // column id
        let vtag = take(data, pos, 1)?[0];
        let skip = match vtag {
            VTAG_NULL => 0,
            VTAG_INT | VTAG_FLOAT => 8,
            VTAG_TEXT | VTAG_BYTES => take_u32(data, pos)? as usize,
            _ => return Err(Error::CodecBadTag),
        };
        take(data, pos, skip)?;
    }
    Ok(())
}

/// Scans a buffer record-by-record, yielding each record's metadata and
/// its byte range, without decoding data images.
///
/// This is the dispatcher's view in ATR and AETS: route on metadata, let a
/// replay worker decode the full record later from the recorded range.
#[derive(Debug, Clone)]
pub struct MetaScanner {
    buf: Arc<[u8]>,
    pos: usize,
}

impl MetaScanner {
    /// Creates a scanner over `buf`.
    pub fn new(buf: Arc<[u8]>) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }
}

impl Iterator for MetaScanner {
    type Item = Result<(RecordMeta, Range<usize>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.buf.len() {
            return None;
        }
        let start = self.pos;
        match decode_meta(&self.buf, &mut self.pos) {
            Ok(meta) => Some(Ok((meta, start..self.pos))),
            Err(e) => {
                self.pos = self.buf.len(); // stop iteration after an error
                Some(Err(e))
            }
        }
    }
}

/// Decodes the full record stored at `range` of `buf` (a range previously
/// produced by [`MetaScanner`]).
pub fn decode_at(buf: &[u8], range: Range<usize>) -> Result<LogRecord> {
    record_at(&buf[..range.end], &mut range.start.clone(), true)
}

/// Decodes the DML record stored at `range` of `buf` the way phase-1
/// translate needs it: every byte is validated and the CRC verified
/// exactly as in [`decode_at`], but the before image is not built
/// (`before` is `None`). A BEGIN/COMMIT record at `range` is an error.
pub fn decode_dml_at(buf: &[u8], range: Range<usize>) -> Result<DmlEntry> {
    match record_at(&buf[..range.end], &mut range.start.clone(), false)? {
        LogRecord::Dml(entry) => Ok(entry),
        other => Err(Error::Codec(format!("expected a DML record, found {other:?}"))),
    }
}

/// Encodes a batch of records into one buffer.
pub fn encode_batch(records: &[LogRecord]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(records.len() * 64);
    for r in records {
        encode_record(&mut buf, r);
    }
    buf
}

/// Decodes a whole buffer into records.
pub fn decode_batch(buf: &[u8]) -> Result<Vec<LogRecord>> {
    let mut out = Vec::new();
    decode_batch_into(buf, &mut out)?;
    Ok(out)
}

/// Decodes a whole epoch frame in one pass, appending records to `out`.
///
/// The batched twin of [`decode_batch`]: the caller owns the output
/// vector, so a replay loop reuses one scratch allocation across epochs.
pub fn decode_batch_into(buf: &[u8], out: &mut Vec<LogRecord>) -> Result<()> {
    let mut pos = 0;
    while pos < buf.len() {
        out.push(record_at(buf, &mut pos, true)?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aets_common::rng::{check, Rng};

    fn sample_dml() -> LogRecord {
        LogRecord::Dml(DmlEntry {
            lsn: Lsn::new(42),
            txn_id: TxnId::new(7),
            ts: Timestamp::from_micros(123456),
            table: TableId::new(3),
            op: DmlOp::Update,
            key: RowKey::new(99),
            row_version: 7,
            cols: vec![
                (ColumnId::new(0), Value::Int(-5)),
                (ColumnId::new(2), Value::Text("hello".into())),
                (ColumnId::new(4), Value::Null),
                (ColumnId::new(5), Value::Float(2.25)),
                (ColumnId::new(6), Value::from(vec![1u8, 2, 3])),
            ],
            before: Some(vec![(ColumnId::new(0), Value::Int(4))]),
        })
    }

    #[test]
    fn round_trip_all_record_kinds() {
        let records = vec![
            LogRecord::Begin {
                lsn: Lsn::new(1),
                txn_id: TxnId::new(7),
                ts: Timestamp::from_micros(5),
            },
            sample_dml(),
            LogRecord::Commit {
                lsn: Lsn::new(43),
                txn_id: TxnId::new(7),
                ts: Timestamp::from_micros(123460),
            },
        ];
        let buf = encode_batch(&records);
        let decoded = decode_batch(&buf).unwrap();
        assert_eq!(decoded, records);
    }

    #[test]
    fn meta_decode_skips_payload_and_consumes_record() {
        let records = vec![sample_dml(), sample_dml()];
        let (buf, mut pos) = (encode_batch(&records), 0);
        let m1 = decode_meta(&buf, &mut pos).unwrap();
        assert_eq!(m1.lsn, Lsn::new(42));
        assert_eq!(m1.table, Some(TableId::new(3)));
        // Second record must decode cleanly from the same position.
        let m2 = decode_meta(&buf, &mut pos).unwrap();
        assert_eq!(m2.txn_id, TxnId::new(7));
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn batched_decode_matches_per_record_decode_and_reuses_scratch() {
        let records = vec![
            LogRecord::Begin {
                lsn: Lsn::new(1),
                txn_id: TxnId::new(7),
                ts: Timestamp::from_micros(5),
            },
            sample_dml(),
            LogRecord::Commit {
                lsn: Lsn::new(43),
                txn_id: TxnId::new(7),
                ts: Timestamp::from_micros(123460),
            },
        ];
        let buf = encode_batch(&records);
        let mut scratch = vec![sample_dml()]; // stale content must be dropped
        decode_batch_into(&buf, &mut scratch).unwrap();
        // decode_batch_into appends; callers clear. Compare against the
        // per-record path on the tail it appended.
        assert_eq!(&scratch[1..], records.as_slice());
        assert_eq!(decode_batch(&buf).unwrap(), records);

        // A corrupted record inside the batch fails the same way.
        let full = encode_batch(&records);
        let pos = full.windows(5).position(|w| w == b"hello").unwrap();
        let mut tampered = full;
        tampered[pos] ^= 0x20;
        let mut out = Vec::new();
        assert!(matches!(decode_batch_into(&tampered, &mut out), Err(Error::CodecChecksum)));
    }

    #[test]
    fn truncated_buffers_error_not_panic() {
        let full = encode_batch(&[sample_dml()]);
        for cut in 0..full.len() {
            assert!(decode_record(&full[..cut], &mut 0).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn payload_corruption_fails_record_checksum() {
        let full = encode_batch(&[sample_dml()]);
        // Flip one bit inside the text payload "hello": full decode must
        // fail the CRC, while the metadata-only path (which skips data
        // images and the CRC trailer by design) still succeeds.
        let pos = full.windows(5).position(|w| w == b"hello").expect("text payload present");
        let mut tampered = full;
        tampered[pos] ^= 0x20;
        assert!(matches!(decode_record(&tampered, &mut 0), Err(Error::CodecChecksum)));
        let mut at = 0;
        let meta = decode_meta(&tampered, &mut at).unwrap();
        assert_eq!(meta.lsn, Lsn::new(42));
        assert_eq!(at, tampered.len());
    }

    /// The address range of every text and bytes payload in `row`.
    fn payloads(row: &Row) -> Vec<Range<usize>> {
        row.iter()
            .filter_map(|(_, v)| match v {
                Value::Text(s) => Some(s.as_bytes()),
                Value::Bytes(b) => Some(&b[..]),
                _ => None,
            })
            .map(|p| p.as_ptr() as usize..p.as_ptr() as usize + p.len())
            .collect()
    }

    fn span(buf: &[u8]) -> Range<usize> {
        buf.as_ptr() as usize..buf.as_ptr() as usize + buf.len()
    }

    /// `row`'s text and bytes payloads all lie outside `frame`.
    fn assert_owns_payloads(frame: &[u8], row: &Row, who: &str) {
        let (frame, got) = (span(frame), payloads(row));
        assert_eq!(got.len(), 2, "{who}: one text and one bytes value");
        for p in got {
            assert!(p.end <= frame.start || p.start >= frame.end, "{who}: {p:?} in {frame:?}");
        }
    }

    #[test]
    fn a_decoded_value_owns_its_payload() {
        let cols = |rec: LogRecord| match rec {
            LogRecord::Dml(d) => d.cols,
            other => panic!("{other:?} is not a DML record"),
        };
        let frame = encode_batch(&[sample_dml()]);
        let n = frame.len();
        assert_owns_payloads(&frame, &cols(decode_at(&frame, 0..n).unwrap()), "decode_at");
        assert_owns_payloads(&frame, &decode_dml_at(&frame, 0..n).unwrap().cols, "decode_dml_at");
        let rec = decode_record(&frame, &mut 0).unwrap();
        assert_owns_payloads(&frame, &cols(rec), "decode_record");
        let mut batch = Vec::new();
        decode_batch_into(&frame, &mut batch).unwrap();
        assert_owns_payloads(&frame, &cols(batch.remove(0)), "decode_batch_into");
        // The snapshot loader's row decoder, over a manifest's row encoding.
        let mut manifest = Vec::new();
        encode_row(&mut manifest, &cols(sample_dml()));
        let row = decode_row(&manifest, &mut 0).unwrap();
        assert_owns_payloads(&manifest, &row, "decode_row");
    }

    #[test]
    fn crc_trailer_corruption_fails_record_checksum() {
        let mut tampered = encode_batch(&[sample_dml()]);
        let last = tampered.len() - 1;
        tampered[last] ^= 0x01;
        assert!(matches!(decode_record(&tampered, &mut 0), Err(Error::CodecChecksum)));
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let b = [0xFFu8; 32];
        assert!(matches!(decode_record(&b, &mut 0), Err(Error::CodecBadTag)));
        assert!(decode_meta(&b, &mut 0).is_err());
    }

    /// A slice-cursor decoder written independently of the offset parser:
    /// the reference it must agree with on every input, corrupt ones
    /// included.
    mod cursor {
        use super::super::*;

        /// Splits `N` bytes off the front of `buf`.
        fn get<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N]> {
            let (head, rest) = buf.split_first_chunk::<N>().ok_or(Error::CodecTruncated)?;
            *buf = rest;
            Ok(*head)
        }

        fn get_u8(buf: &mut &[u8]) -> Result<u8> {
            get::<1>(buf).map(|[b]| b)
        }

        fn get_u16(buf: &mut &[u8]) -> Result<u16> {
            get(buf).map(u16::from_le_bytes)
        }

        fn get_u32(buf: &mut &[u8]) -> Result<u32> {
            get(buf).map(u32::from_le_bytes)
        }

        fn get_u64(buf: &mut &[u8]) -> Result<u64> {
            get(buf).map(u64::from_le_bytes)
        }

        fn get_payload<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8]> {
            let n = get_u32(buf)? as usize;
            if buf.len() < n {
                return Err(Error::CodecTruncated);
            }
            let (payload, rest) = buf.split_at(n);
            *buf = rest;
            Ok(payload)
        }

        fn get_value(buf: &mut &[u8]) -> Result<Value> {
            match get_u8(buf)? {
                VTAG_NULL => Ok(Value::Null),
                VTAG_INT => Ok(Value::Int(get_u64(buf)? as i64)),
                VTAG_FLOAT => Ok(Value::Float(f64::from_bits(get_u64(buf)?))),
                VTAG_TEXT => std::str::from_utf8(get_payload(buf)?)
                    .map(|s| Value::Text(s.into()))
                    .map_err(|_| Error::Codec("invalid utf-8 in text value".into())),
                VTAG_BYTES => Ok(Value::Bytes(get_payload(buf)?.into())),
                _ => Err(Error::CodecBadTag),
            }
        }

        pub fn get_row(buf: &mut &[u8]) -> Result<Row> {
            let n = get_u16(buf)? as usize;
            let mut row = Vec::with_capacity(n);
            for _ in 0..n {
                let cid = ColumnId::new(get_u16(buf)?);
                row.push((cid, get_value(buf)?));
            }
            Ok(row)
        }

        fn decode_body(buf: &mut &[u8]) -> Result<LogRecord> {
            let tag = get_u8(buf)?;
            let fixed = match tag {
                TAG_BEGIN | TAG_COMMIT => 24,
                TAG_DML => 46,
                _ => return Err(Error::CodecBadTag),
            };
            if buf.len() < fixed {
                return Err(Error::CodecTruncated);
            }
            let lsn = Lsn::new(get_u64(buf)?);
            let txn_id = TxnId::new(get_u64(buf)?);
            let ts = Timestamp::from_micros(get_u64(buf)?);
            match tag {
                TAG_BEGIN => Ok(LogRecord::Begin { lsn, txn_id, ts }),
                TAG_COMMIT => Ok(LogRecord::Commit { lsn, txn_id, ts }),
                _ => {
                    let table = TableId::new(get_u32(buf)?);
                    let op = DmlOp::from_tag(get_u8(buf)?).ok_or(Error::CodecBadTag)?;
                    let key = RowKey::new(get_u64(buf)?);
                    let row_version = get_u64(buf)?;
                    let has_before = get_u8(buf)? != 0;
                    let cols = get_row(buf)?;
                    let before = if has_before { Some(get_row(buf)?) } else { None };
                    Ok(LogRecord::Dml(DmlEntry {
                        lsn,
                        txn_id,
                        ts,
                        table,
                        op,
                        key,
                        row_version,
                        cols,
                        before,
                    }))
                }
            }
        }

        pub fn decode_record(buf: &mut &[u8]) -> Result<LogRecord> {
            let whole = *buf;
            let rec = decode_body(buf)?;
            let body = &whole[..whole.len() - buf.len()];
            if get_u32(buf)? != crc32(body) {
                return Err(Error::CodecChecksum);
            }
            Ok(rec)
        }
    }

    /// Text drawn from ASCII and 2-, 3- and 4-byte UTF-8 characters.
    fn random_text(rng: &mut aets_common::rng::Rng) -> String {
        const CHARS: [char; 6] = ['a', 'Z', '7', 'é', '€', '𝄞'];
        (0..rng.below(6)).map(|_| CHARS[rng.below(6) as usize]).collect()
    }

    fn random_row(rng: &mut aets_common::rng::Rng) -> Row {
        (0..rng.below(5))
            .map(|_| {
                let v = match rng.below(5) {
                    0 => Value::Null,
                    1 => Value::Int(rng.next_u64() as i64),
                    2 => Value::Float(rng.uniform(-1e9, 1e9)),
                    3 => Value::from(random_text(rng)),
                    _ => Value::from(
                        (0..rng.below(6)).map(|_| rng.next_u64() as u8).collect::<Vec<_>>(),
                    ),
                };
                (ColumnId::new(rng.below(64) as u16), v)
            })
            .collect()
    }

    /// Seeded records of every kind: markers, and DML of every op with
    /// every value kind, with and without a before image.
    fn random_records(n: usize) -> Vec<LogRecord> {
        let mut rng = aets_common::rng::Rng::new(0xC0DEC);
        (0..n)
            .map(|i| {
                let (lsn, txn_id) = (Lsn::new(rng.next_u64()), TxnId::new(rng.next_u64()));
                let ts = Timestamp::from_micros(rng.next_u64());
                match i % 6 {
                    0 => LogRecord::Begin { lsn, txn_id, ts },
                    1 => LogRecord::Commit { lsn, txn_id, ts },
                    _ => LogRecord::Dml(DmlEntry {
                        lsn,
                        txn_id,
                        ts,
                        table: TableId::new(rng.below(70) as u32),
                        op: DmlOp::from_tag(rng.below(3) as u8).unwrap(),
                        key: RowKey::new(rng.next_u64()),
                        row_version: rng.next_u64(),
                        cols: random_row(&mut rng),
                        before: rng.chance(0.5).then(|| random_row(&mut rng)),
                    }),
                }
            })
            .collect()
    }

    /// The buffers a record must be checked on: the clean encoding, its
    /// every truncation, and its every single-byte flip (three patterns).
    fn damaged(clean: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
        let cuts = (0..clean.len()).map(|cut| (format!("cut at {cut}"), clean[..cut].to_vec()));
        let flips = (0..clean.len()).flat_map(move |pos| {
            [0x01u8, 0xFF, 0x80].map(|mask| {
                let mut bad = clean.to_vec();
                bad[pos] ^= mask;
                (format!("flip {mask:#x} at {pos}"), bad)
            })
        });
        std::iter::once(("clean".to_string(), clean.to_vec())).chain(cuts).chain(flips)
    }

    /// Outcomes compared by their `Debug` form: the same value (NaN
    /// floats included) or the same `Error`, message and all.
    fn show<T: std::fmt::Debug>(r: &Result<T>) -> String {
        format!("{r:?}")
    }

    #[test]
    fn offset_parser_matches_the_cursor_reference_on_every_damage() {
        for rec in random_records(120) {
            let mut enc = Vec::new();
            encode_record(&mut enc, &rec);
            for (what, buf) in damaged(&enc) {
                let want = cursor::decode_record(&mut &buf[..]);
                let ctx = format!("{what} of {rec:?}");
                assert_eq!(show(&decode_record(&buf, &mut 0)), show(&want), "{ctx}");
                assert_eq!(show(&decode_at(&buf, 0..buf.len())), show(&want), "{ctx}");
                // `decode_at` reads only its range, even inside a longer frame.
                let mut framed = buf.clone();
                framed.extend_from_slice(&enc);
                assert_eq!(show(&decode_at(&framed, 0..buf.len())), show(&want), "{ctx}");
                let lean = want.clone().and_then(|r| match r {
                    LogRecord::Dml(d) => Ok(DmlEntry { before: None, ..d }),
                    other => Err(Error::Codec(format!("expected a DML record, found {other:?}"))),
                });
                assert_eq!(show(&decode_dml_at(&buf, 0..buf.len())), show(&lean), "{ctx}");
                let mut batch = Vec::new();
                let got = decode_batch_into(&buf, &mut batch).map(|()| batch);
                let mut cur = &buf[..];
                let mut batch_want = Ok(Vec::new());
                while !cur.is_empty() {
                    match cursor::decode_record(&mut cur) {
                        Ok(r) => batch_want.as_mut().unwrap().push(r),
                        Err(e) => {
                            batch_want = Err(e);
                            break;
                        }
                    }
                }
                assert_eq!(show(&got), show(&batch_want), "{ctx}");
            }
        }
    }

    #[test]
    fn decode_row_matches_the_cursor_reference_on_every_damage() {
        let mut rng = aets_common::rng::Rng::new(7);
        for _ in 0..200 {
            let row = random_row(&mut rng);
            let mut enc = Vec::new();
            encode_row(&mut enc, &row);
            for (what, buf) in damaged(&enc) {
                let (mut a, mut b) = (0, &buf[..]);
                let (got, want) = (decode_row(&buf, &mut a), cursor::get_row(&mut b));
                assert_eq!(show(&got), show(&want), "{what} of {row:?}");
                if want.is_ok() {
                    assert_eq!(buf.len() - a, b.len(), "{what} of {row:?}");
                }
            }
        }
    }

    /// The WAL-codec line of the byte-flip sweep: no single-byte flip of
    /// any record kind decodes, whatever entry point reads it.
    #[test]
    fn every_single_byte_flip_of_a_record_is_rejected() {
        for rec in random_records(120) {
            let mut enc = Vec::new();
            encode_record(&mut enc, &rec);
            for (what, buf) in damaged(&enc).filter(|(what, _)| what.starts_with("flip")) {
                let n = buf.len();
                assert!(decode_record(&buf, &mut 0).is_err(), "{what} of {rec:?}");
                assert!(decode_at(&buf, 0..n).is_err(), "{what} of {rec:?}");
                assert!(decode_batch(&buf).is_err(), "{what} of {rec:?}");
                if matches!(rec, LogRecord::Dml(_)) {
                    assert!(decode_dml_at(&buf, 0..n).is_err(), "{what} of {rec:?}");
                }
            }
        }
    }

    /// `[a-zA-Z0-9]`, in the order the generated strings index it.
    const ALNUM: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";

    fn arb_value(rng: &mut Rng) -> Value {
        match rng.below(5) {
            0 => Value::Null,
            1 => Value::Int(rng.next_u64() as i64),
            2 => Value::Float(rng.uniform(-1e12, 1e12)),
            3 => Value::from(
                (0..rng.below(41))
                    .map(|_| ALNUM[rng.below(62) as usize] as char)
                    .collect::<String>(),
            ),
            _ => Value::from((0..rng.below(64)).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>()),
        }
    }

    fn arb_row(rng: &mut Rng) -> Row {
        (0..rng.below(8)).map(|_| (ColumnId::new(rng.next_u64() as u16), arb_value(rng))).collect()
    }

    fn arb_before(rng: &mut Rng) -> Option<Row> {
        (!rng.chance(0.25)).then(|| arb_row(rng))
    }

    #[test]
    fn dml_round_trips() {
        check("dml_round_trips", 64, |rng| {
            let lsn = rng.next_u64();
            let txn = rng.next_u64();
            let ts = rng.next_u64();
            let table = rng.next_u64() as u32;
            let op = [DmlOp::Insert, DmlOp::Update, DmlOp::Delete][rng.below(3) as usize];
            let key = rng.next_u64();
            let row_version = rng.next_u64();
            let cols = arb_row(rng);
            let before = arb_before(rng);
            let rec = LogRecord::Dml(DmlEntry {
                lsn: Lsn::new(lsn),
                txn_id: TxnId::new(txn),
                ts: Timestamp::from_micros(ts),
                table: TableId::new(table),
                op,
                key: RowKey::new(key),
                row_version,
                cols,
                before,
            });
            let (mut buf, mut pos) = (Vec::new(), 0);
            encode_record(&mut buf, &rec);
            let back = decode_record(&buf, &mut pos).unwrap();
            assert_eq!(back, rec);
            assert_eq!(pos, buf.len());
        });
    }

    #[test]
    fn meta_and_full_decode_agree() {
        check("meta_and_full_decode_agree", 64, |rng| {
            let cols = arb_row(rng);
            let before = arb_before(rng);
            let rec = LogRecord::Dml(DmlEntry {
                lsn: Lsn::new(1),
                txn_id: TxnId::new(2),
                ts: Timestamp::from_micros(3),
                table: TableId::new(4),
                op: DmlOp::Insert,
                key: RowKey::new(5),
                row_version: 1,
                cols,
                before,
            });
            let mut buf = Vec::new();
            encode_record(&mut buf, &rec);
            let (mut p1, mut p2) = (0, 0);
            let meta = decode_meta(&buf, &mut p1).unwrap();
            let full = decode_record(&buf, &mut p2).unwrap();
            assert_eq!(meta.lsn, full.lsn());
            assert_eq!(meta.txn_id, full.txn_id());
            assert_eq!(p1, p2);
        });
    }
}
