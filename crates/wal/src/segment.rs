//! Durable, epoch-aligned WAL segment store.
//!
//! The replicated value log is persisted as a directory of *segment
//! files*, each holding a fixed number of consecutive encoded epochs.
//! Epoch alignment keeps the recovery contract trivial: a segment's name
//! carries its first epoch sequence number, frames inside it are
//! consecutive, and truncation past the checkpoint watermark only ever
//! removes whole segments — the retained suffix is always a contiguous,
//! replayable epoch range.
//!
//! ## On-disk format
//!
//! Segment file `seg-<first_seq>.wal`:
//!
//! ```text
//! +------------+-----------+----------------+------------+
//! | magic u32  | version   | first_seq u64  | header_crc |   20-byte header
//! +------------+-----------+----------------+------------+
//! | frame 0 | frame 1 | ...                               |
//! +----------------------------------------------------- +
//! ```
//!
//! Frame (one epoch):
//!
//! ```text
//! +-----------+---------+---------------+------------------+
//! | magic u32 | seq u64 | txn_count u32 | max_commit_ts u64|
//! +-----------+---------+---------------+------------------+
//! | payload_len u32 | payload_crc u32 | header_crc u32     |   36-byte header
//! +----------------------------------------------------+---+
//! | payload: the epoch's encoded records (payload_len) |
//! +----------------------------------------------------+
//! ```
//!
//! `payload_crc` is exactly the epoch frame CRC stamped by the primary
//! ([`EncodedEpoch::crc32`]), so a frame read back from disk re-enters the
//! ingest path with end-to-end integrity intact. `header_crc` covers the
//! preceding header bytes, so a torn header is as detectable as a torn
//! payload.
//!
//! ## Fsync cadence
//!
//! [`FsyncPolicy`] decides when the append path takes an fsync point.
//! The default ([`FsyncPolicy::EveryEpoch`]) syncs after every appended
//! frame, so an acknowledged append is durable. Group commit
//! ([`FsyncPolicy::Coalesced`]) batches appends under one fsync, trading
//! a bounded window of acknowledged-but-volatile frames (tracked by
//! [`SegmentStore::synced_seq`]) for far fewer fsync calls on the ingest
//! hot path.
//!
//! ## Torn-tail reopen
//!
//! [`SegmentStore::open`] scans every segment front-to-back and truncates
//! the file at the last fully-valid frame: a crash mid-append leaves a
//! torn tail, which simply disappears on reopen (those epochs were never
//! acknowledged as durable past an fsync point anyway, and re-arrive from
//! the primary's feed on resync). Files whose *header* is torn, and
//! segments left non-contiguous by a gap (orphans from an interrupted
//! retention pass), are deleted outright. Both the reopen scan and
//! [`SegmentStore::read_suffix`] read each segment file whole and parse
//! the buffer in place; a segment holds at most
//! [`SegmentConfig::epochs_per_segment`] epochs, which bounds it.
//! `read_suffix` copies each payload out on its own, so a replayed
//! version never pins a whole segment buffer.
//!
//! All filesystem traffic is metered through an optional
//! [`CrashClock`], which is how the crash-matrix
//! tests kill the store mid-segment-write and mid-recovery
//! deterministically.

use crate::codec::{take_u32, take_u64};
use crate::crash::{charge, durable_write, CrashClock};
use crate::crc::crc32;
use crate::epoch::{EncodedEpoch, VerifiedEpoch};
use aets_common::{EpochId, Error, Result, Timestamp};
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEG_MAGIC: u32 = 0x4153_4547; // "ASEG"
const SEG_VERSION: u32 = 1;
const HEADER_LEN: usize = 20;

const FRAME_MAGIC: u32 = 0x4146_524D; // "AFRM"
const FRAME_HEADER_LEN: usize = 36;

/// When the store takes an fsync point on the active segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FsyncPolicy {
    /// One fsync point after every appended epoch: an `Ok` from
    /// [`SegmentStore::append`] implies the frame is durable. The
    /// default, and what the crash matrix assumes unless a schedule
    /// opts into coalescing.
    EveryEpoch,
    /// No implicit fsync; durability happens only at explicit
    /// [`SegmentStore::sync`] calls.
    Manual,
    /// Group commit: appended frames accumulate and one fsync covers
    /// the whole batch, taken when `max_frames` frames are pending or
    /// the oldest pending frame has waited `max_wait`, whichever comes
    /// first. An `Ok` append no longer implies durability — only
    /// [`SegmentStore::synced_seq`] bounds what a crash can lose — and
    /// reopen truncates the tail to the last fully-written frame, so a
    /// torn batch never replays a half-written frame.
    Coalesced {
        /// Pending-frame count that forces an fsync.
        max_frames: u32,
        /// Age of the oldest pending frame that forces an fsync.
        max_wait: Duration,
    },
}

/// Configuration of the segment store.
#[derive(Debug, Clone, Copy)]
pub struct SegmentConfig {
    /// Epochs per segment file; retention works at this granularity.
    pub epochs_per_segment: u64,
    /// Fsync cadence of the append path.
    pub fsync: FsyncPolicy,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        Self { epochs_per_segment: 16, fsync: FsyncPolicy::EveryEpoch }
    }
}

#[derive(Debug)]
struct SegmentMeta {
    first_seq: u64,
    /// Valid frames currently in the file.
    count: u64,
    path: PathBuf,
}

impl SegmentMeta {
    /// One-past-the-last epoch sequence in this segment.
    fn end_seq(&self) -> u64 {
        self.first_seq + self.count
    }
}

/// A durable store of encoded epochs as epoch-aligned segment files.
pub struct SegmentStore {
    dir: PathBuf,
    cfg: SegmentConfig,
    clock: Option<Arc<CrashClock>>,
    /// Retained segments in ascending, contiguous sequence order.
    segments: Vec<SegmentMeta>,
    /// Append handle for the last segment.
    current: Option<File>,
    /// Sequence the next append must carry; `None` until the first epoch
    /// (or after opening an empty directory), when any start is accepted.
    expect_seq: Option<u64>,
    /// Frames appended since the last fsync point.
    pending_frames: u32,
    /// When the oldest pending frame was appended (coalesced policy).
    oldest_pending: Option<Instant>,
    /// Highest sequence known durable (covered by an fsync point).
    synced_seq: Option<u64>,
    /// Called at each fsync point with the number of frames the sync
    /// made durable — how group-commit observability (the
    /// `wal_fsync_coalesced_frames` histogram) is wired without the WAL
    /// crate depending on the telemetry crate.
    sync_observer: Option<Box<dyn Fn(u64) + Send>>,
}

impl std::fmt::Debug for SegmentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentStore")
            .field("dir", &self.dir)
            .field("cfg", &self.cfg)
            .field("segments", &self.segments)
            .field("expect_seq", &self.expect_seq)
            .field("pending_frames", &self.pending_frames)
            .field("synced_seq", &self.synced_seq)
            .finish_non_exhaustive()
    }
}

impl SegmentStore {
    /// Opens (creating if needed) the store rooted at `dir`, recovering
    /// from torn tails and interrupted retention as described in the
    /// module docs. `clock` meters every filesystem operation for crash
    /// injection; pass `None` in production.
    pub fn open(
        dir: impl Into<PathBuf>,
        cfg: SegmentConfig,
        clock: Option<Arc<CrashClock>>,
    ) -> Result<Self> {
        if cfg.epochs_per_segment == 0 {
            return Err(Error::Config("epochs_per_segment must be positive".into()));
        }
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        charge(&clock, "scan segment dir")?;

        let mut named: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if let Some(seq) = parse_segment_name(&path) {
                named.push((seq, path));
            }
        }
        named.sort_by_key(|(seq, _)| *seq);

        let mut segments = Vec::with_capacity(named.len());
        let mut broken_chain = false;
        for (named_seq, path) in named {
            // Past a gap (or an invalid segment) every later file is an
            // orphan from an interrupted retention or roll: delete it.
            if broken_chain {
                charge(&clock, "remove orphan segment")?;
                fs::remove_file(&path)?;
                continue;
            }
            match recover_segment(&path, named_seq, &clock)? {
                Some(count) => {
                    let contiguous =
                        segments.last().is_none_or(|m: &SegmentMeta| m.end_seq() == named_seq);
                    // A short or empty segment mid-chain also breaks
                    // contiguity for everything after it.
                    if !contiguous {
                        broken_chain = true;
                        charge(&clock, "remove orphan segment")?;
                        fs::remove_file(&path)?;
                        continue;
                    }
                    if count < cfg.epochs_per_segment {
                        broken_chain = true; // only valid as the last segment
                    }
                    segments.push(SegmentMeta { first_seq: named_seq, count, path });
                }
                None => {
                    broken_chain = true;
                    charge(&clock, "remove invalid segment")?;
                    fs::remove_file(&path)?;
                }
            }
        }

        let expect_seq = segments.last().map(SegmentMeta::end_seq);
        let current = match segments.last() {
            Some(m) => {
                charge(&clock, "reopen segment for append")?;
                Some(OpenOptions::new().append(true).open(&m.path)?)
            }
            None => None,
        };
        // Everything that survived recovery sits durably on disk.
        let synced_seq = segments.iter().rev().find(|m| m.count > 0).map(|m| m.end_seq() - 1);
        Ok(Self {
            dir,
            cfg,
            clock,
            segments,
            current,
            expect_seq,
            pending_frames: 0,
            oldest_pending: None,
            synced_seq,
            sync_observer: None,
        })
    }

    /// Installs the fsync observer: called at every fsync point with the
    /// number of frames the sync made durable. The durable backup hooks
    /// its telemetry histogram here.
    pub fn set_sync_observer(&mut self, observer: Box<dyn Fn(u64) + Send>) {
        self.sync_observer = Some(observer);
    }

    /// Highest epoch sequence known durable (covered by an fsync point),
    /// or `None` when nothing is. Under [`FsyncPolicy::Coalesced`] this
    /// is the crash-loss bound: epochs past it may vanish on a crash.
    pub fn synced_seq(&self) -> Option<u64> {
        self.synced_seq
    }

    /// The sequence number the next [`SegmentStore::append`] must carry,
    /// or `None` when the store is empty (any start accepted).
    pub fn next_seq(&self) -> Option<u64> {
        self.expect_seq
    }

    /// Lowest retained epoch sequence, or `None` when empty.
    pub fn first_retained_seq(&self) -> Option<u64> {
        self.segments.first().map(|m| m.first_seq)
    }

    /// Total retained epochs across segments.
    pub fn epoch_count(&self) -> u64 {
        self.segments.iter().map(|m| m.count).sum()
    }

    /// Root directory of the store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Verifies `e`, then appends it: a corrupt frame is rejected before
    /// touching disk.
    pub fn append(&mut self, e: &EncodedEpoch) -> Result<()> {
        self.append_verified(&VerifiedEpoch::new(e.clone())?)
    }

    /// Appends one epoch, already proved against its CRC. It must carry
    /// the next sequence number; out-of-order appends return
    /// [`Error::EpochGap`].
    pub fn append_verified(&mut self, e: &VerifiedEpoch) -> Result<()> {
        let seq = e.id.raw();
        if let Some(expected) = self.expect_seq {
            if seq != expected {
                return Err(Error::EpochGap { expected, got: seq });
            }
        }
        let roll = match self.segments.last() {
            None => true,
            Some(m) => m.count >= self.cfg.epochs_per_segment,
        };
        if roll {
            self.roll(seq)?;
        }
        let header = frame_header(e);
        let file = self
            .current
            .as_mut()
            .ok_or_else(|| Error::Io("segment store has no open segment".into()))?;
        durable_write(file, &[&header, &e.bytes], &self.clock, "wal frame")?;
        if let Some(m) = self.segments.last_mut() {
            m.count += 1;
        }
        self.expect_seq = Some(seq + 1);
        self.pending_frames += 1;
        match self.cfg.fsync {
            FsyncPolicy::EveryEpoch => self.sync()?,
            FsyncPolicy::Manual => {}
            FsyncPolicy::Coalesced { max_frames, max_wait } => {
                let oldest = *self.oldest_pending.get_or_insert_with(Instant::now);
                if self.pending_frames >= max_frames.max(1) || oldest.elapsed() >= max_wait {
                    self.sync()?;
                }
            }
        }
        Ok(())
    }

    /// Starts a new segment whose first epoch is `first_seq`.
    fn roll(&mut self, first_seq: u64) -> Result<()> {
        // Make the previous segment's tail durable before moving on.
        self.sync()?;
        let path = self.dir.join(segment_file_name(first_seq));
        charge(&self.clock, "create segment")?;
        let mut file = OpenOptions::new().create(true).truncate(true).write(true).open(&path)?;
        let header = encode_header(first_seq);
        durable_write(&mut file, &[&header], &self.clock, "segment header")?;
        self.segments.push(SegmentMeta { first_seq, count: 0, path });
        self.current = Some(file);
        Ok(())
    }

    /// An explicit fsync point on the active segment. Under a coalescing
    /// policy this flushes the whole pending batch and reports its size
    /// to the sync observer.
    pub fn sync(&mut self) -> Result<()> {
        if self.current.is_none() {
            return Ok(());
        }
        charge(&self.clock, "fsync segment")?;
        if let Some(f) = self.current.as_mut() {
            f.flush()?;
            f.sync_data()?;
        }
        if self.pending_frames > 0 {
            if let Some(obs) = &self.sync_observer {
                obs(self.pending_frames as u64);
            }
        }
        self.pending_frames = 0;
        self.oldest_pending = None;
        if self.epoch_count() > 0 {
            self.synced_seq = self.expect_seq.map(|s| s - 1);
        }
        Ok(())
    }

    /// Drops whole segments entirely below `seq` (exclusive watermark —
    /// typically the first epoch *not* covered by the newest checkpoint).
    /// The last segment is always retained so the store never forgets its
    /// position in the stream. Returns the number of segments removed.
    pub fn truncate_before(&mut self, seq: u64) -> Result<usize> {
        let mut removed = 0;
        while self.segments.len() > 1 && self.segments[0].end_seq() <= seq {
            charge(&self.clock, "retire segment")?;
            fs::remove_file(&self.segments[0].path)?;
            self.segments.remove(0);
            removed += 1;
        }
        Ok(removed)
    }

    /// Reads back every retained epoch with sequence ≥ `from_seq`, fully
    /// re-validating frame headers, sequence numbers and payload CRCs:
    /// what it returns is checked input for replay, and says so by type.
    pub fn read_suffix(&self, from_seq: u64) -> Result<Vec<VerifiedEpoch>> {
        let mut out = Vec::new();
        for m in &self.segments {
            if m.end_seq() <= from_seq {
                continue;
            }
            charge(&self.clock, "read segment")?;
            let mut epochs = Vec::new();
            let (count, valid_off, file_len) =
                decode_frames_file(&m.path, m.first_seq, Some(&mut epochs))?.unwrap_or((0, 0, 0));
            if count < m.count || valid_off < file_len {
                return Err(Error::Io(format!(
                    "segment {} lost frames on disk ({} of {} readable)",
                    m.path.display(),
                    count,
                    m.count
                )));
            }
            out.extend(epochs.into_iter().filter(|e| e.id.raw() >= from_seq));
        }
        Ok(out)
    }
}

fn segment_file_name(first_seq: u64) -> String {
    format!("seg-{first_seq:020}.wal")
}

fn parse_segment_name(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix("seg-")?.strip_suffix(".wal")?.parse().ok()
}

fn encode_header(first_seq: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN);
    buf.extend_from_slice(&SEG_MAGIC.to_le_bytes());
    buf.extend_from_slice(&SEG_VERSION.to_le_bytes());
    buf.extend_from_slice(&first_seq.to_le_bytes());
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// The 36-byte frame header of `e`: the payload is written after it
/// straight from the epoch's buffer.
fn frame_header(e: &EncodedEpoch) -> [u8; FRAME_HEADER_LEN] {
    let mut h = [0u8; FRAME_HEADER_LEN];
    h[..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
    h[4..12].copy_from_slice(&e.id.raw().to_le_bytes());
    h[12..16].copy_from_slice(&(e.txn_count as u32).to_le_bytes());
    h[16..24].copy_from_slice(&e.max_commit_ts.as_micros().to_le_bytes());
    h[24..28].copy_from_slice(&(e.bytes.len() as u32).to_le_bytes());
    h[28..32].copy_from_slice(&e.crc32.to_le_bytes());
    let hcrc = crc32(&h[..32]);
    h[32..].copy_from_slice(&hcrc.to_le_bytes());
    h
}

/// Validates the 20-byte segment header against the sequence encoded in
/// the file name; a file too short to hold one is an error.
fn valid_header(bytes: &[u8], named_seq: u64) -> Result<bool> {
    let pos = &mut 0;
    Ok(take_u32(bytes, pos)? == SEG_MAGIC
        && take_u32(bytes, pos)? == SEG_VERSION
        && take_u64(bytes, pos)? == named_seq
        && take_u32(bytes, pos)? == crc32(&bytes[..HEADER_LEN - 4]))
}

/// Reads one segment file whole, validates the header and decodes the
/// valid frame prefix. Decoded epochs are pushed to `out` when provided;
/// passing `None` validates and counts frames without copying payloads
/// (the open-time recovery scan needs only the count). Returns `None`
/// when the segment header itself is invalid, otherwise `(frame_count,
/// valid_off, file_len)` where `valid_off` is the byte offset up to which
/// the file is a clean frame prefix.
fn decode_frames_file(
    path: &Path,
    named_seq: u64,
    mut out: Option<&mut Vec<VerifiedEpoch>>,
) -> Result<Option<(u64, u64, u64)>> {
    let data = fs::read(path)?;
    if !matches!(valid_header(&data, named_seq), Ok(true)) {
        return Ok(None);
    }
    let mut count = 0u64;
    let mut off = HEADER_LEN;
    while let Some(h) = data.get(off..off + FRAME_HEADER_LEN) {
        // `h` holds the whole frame header: no read of it comes up short.
        let pos = &mut 0;
        let magic = take_u32(h, pos)?;
        let seq = take_u64(h, pos)?;
        let txn_count = take_u32(h, pos)?;
        let max_commit_ts = take_u64(h, pos)?;
        let payload_len = take_u32(h, pos)? as usize;
        let payload_crc = take_u32(h, pos)?;
        let header_crc = take_u32(h, pos)?;
        if magic != FRAME_MAGIC
            || seq != named_seq + count
            || header_crc != crc32(&data[off..off + FRAME_HEADER_LEN - 4])
        {
            break;
        }
        let payload_start = off + FRAME_HEADER_LEN;
        let Some(payload) = data.get(payload_start..payload_start + payload_len) else {
            break;
        };
        if crc32(payload) != payload_crc {
            break;
        }
        if let Some(out) = out.as_deref_mut() {
            // The check above is the epoch's own CRC: the copy is proved.
            out.push(VerifiedEpoch(EncodedEpoch {
                id: EpochId::new(seq),
                bytes: payload.into(),
                txn_count: txn_count as usize,
                max_commit_ts: Timestamp::from_micros(max_commit_ts),
                crc32: payload_crc,
            }));
        }
        count += 1;
        off = payload_start + payload_len;
    }
    Ok(Some((count, off as u64, data.len() as u64)))
}

/// Validates one segment file on open. Returns `Some(frame_count)` after
/// truncating any torn tail, or `None` when the header itself is invalid
/// (the file should be deleted). Frames are validated and counted
/// without copying their payloads out.
fn recover_segment(
    path: &Path,
    named_seq: u64,
    clock: &Option<Arc<CrashClock>>,
) -> Result<Option<u64>> {
    charge(clock, "recover segment")?;
    let Some((count, valid_off, file_len)) = decode_frames_file(path, named_seq, None)? else {
        return Ok(None);
    };
    if valid_off < file_len {
        charge(clock, "truncate torn tail")?;
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(valid_off)?;
        f.sync_data()?;
    }
    Ok(Some(count))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::TxnLog;
    use crate::epoch::{batch_into_epochs, encode_epoch};
    use aets_common::sync::lock;
    use aets_common::TxnId;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// Fresh scratch directory per test (no tempfile crate offline).
    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "aets-seg-{}-{}-{}",
            std::process::id(),
            tag,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn encoded(n_txns: u64, per_epoch: usize) -> Vec<EncodedEpoch> {
        let txns: Vec<TxnLog> = (1..=n_txns)
            .map(|i| TxnLog {
                txn_id: TxnId::new(i),
                commit_ts: Timestamp::from_micros(i * 10),
                entries: Vec::new(),
            })
            .collect();
        batch_into_epochs(txns, per_epoch).unwrap().iter().map(encode_epoch).collect()
    }

    fn store(dir: &Path, eps: u64) -> SegmentStore {
        SegmentStore::open(
            dir,
            SegmentConfig { epochs_per_segment: eps, ..Default::default() },
            None,
        )
        .unwrap()
    }

    #[test]
    fn append_reopen_round_trips() {
        let dir = scratch("round");
        let epochs = encoded(40, 4); // 10 epochs
        {
            let mut s = store(&dir, 4);
            for e in &epochs {
                s.append(e).unwrap();
            }
            assert_eq!(s.segments.len(), 3); // 4 + 4 + 2
            assert_eq!(s.epoch_count(), 10);
        }
        let s = store(&dir, 4);
        assert_eq!(s.next_seq(), Some(10));
        assert_eq!(s.first_retained_seq(), Some(0));
        let back = s.read_suffix(0).unwrap();
        assert_eq!(back.len(), epochs.len());
        for (a, b) in back.iter().zip(&epochs) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.bytes, b.bytes);
            assert_eq!(a.txn_count, b.txn_count);
            assert_eq!(a.max_commit_ts, b.max_commit_ts);
            a.verify().unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_gaps_and_corrupt_frames() {
        let dir = scratch("gap");
        let epochs = encoded(16, 4);
        let mut s = store(&dir, 4);
        s.append(&epochs[0]).unwrap();
        let err = s.append(&epochs[2]).unwrap_err();
        assert!(matches!(err, Error::EpochGap { expected: 1, got: 2 }));
        let torn = EncodedEpoch {
            bytes: epochs[1].bytes[..epochs[1].bytes.len() - 1].into(),
            ..epochs[1].clone()
        };
        assert!(matches!(s.append(&torn), Err(Error::CodecChecksum)));
        assert_eq!(s.epoch_count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_reopen() {
        let dir = scratch("torn");
        let epochs = encoded(24, 4); // 6 epochs
        {
            let mut s = store(&dir, 8);
            for e in &epochs {
                s.append(e).unwrap();
            }
        }
        // Tear the tail of the (only) segment mid-frame.
        let path = dir.join(segment_file_name(0));
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 10).unwrap();
        drop(f);

        let s = store(&dir, 8);
        assert_eq!(s.epoch_count(), 5, "torn last frame dropped");
        assert_eq!(s.next_seq(), Some(5));
        let back = s.read_suffix(0).unwrap();
        assert_eq!(back.len(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_continues_after_torn_tail_recovery() {
        let dir = scratch("resume");
        let epochs = encoded(24, 4);
        {
            let mut s = store(&dir, 8);
            for e in &epochs[..4] {
                s.append(e).unwrap();
            }
        }
        let path = dir.join(segment_file_name(0));
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let mut s = store(&dir, 8);
        assert_eq!(s.next_seq(), Some(3));
        for e in &epochs[3..] {
            s.append(e).unwrap();
        }
        assert_eq!(s.read_suffix(0).unwrap().len(), 6);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphans_past_a_gap_are_deleted() {
        let dir = scratch("orphan");
        let epochs = encoded(48, 4); // 12 epochs -> 3 segments of 4
        {
            let mut s = store(&dir, 4);
            for e in &epochs {
                s.append(e).unwrap();
            }
            assert_eq!(s.segments.len(), 3);
        }
        // Simulate an interrupted retention pass that removed the middle
        // segment: seg 8.. is now unreachable from seg 0...
        fs::remove_file(dir.join(segment_file_name(4))).unwrap();
        let s = store(&dir, 4);
        assert_eq!(s.segments.len(), 1);
        assert_eq!(s.next_seq(), Some(4));
        assert!(!dir.join(segment_file_name(8)).exists(), "orphan not deleted");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_header_file_is_deleted() {
        let dir = scratch("badhdr");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(segment_file_name(0)), b"not a segment").unwrap();
        let s = store(&dir, 4);
        assert_eq!(s.segments.len(), 0);
        assert_eq!(s.next_seq(), None);
        assert!(!dir.join(segment_file_name(0)).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_before_removes_whole_segments_keeps_last() {
        let dir = scratch("retire");
        let epochs = encoded(48, 4); // 12 epochs
        let mut s = store(&dir, 4);
        for e in &epochs {
            s.append(e).unwrap();
        }
        // Watermark 6 sits inside segment 4..8: only segment 0..4 retires.
        assert_eq!(s.truncate_before(6).unwrap(), 1);
        assert_eq!(s.first_retained_seq(), Some(4));
        // Watermark past the end: every segment but the last retires.
        assert_eq!(s.truncate_before(100).unwrap(), 1);
        assert_eq!(s.segments.len(), 1);
        assert_eq!(s.first_retained_seq(), Some(8));
        assert_eq!(s.next_seq(), Some(12));
        // Reopen agrees.
        drop(s);
        let s = store(&dir, 4);
        assert_eq!(s.first_retained_seq(), Some(8));
        assert_eq!(s.next_seq(), Some(12));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn suffix_source_feeds_from_requested_seq() {
        let dir = scratch("suffix");
        let epochs = encoded(40, 4); // 10 epochs
        let mut s = store(&dir, 4);
        for e in &epochs {
            s.append(e).unwrap();
        }
        // Starts mid-segment (segment 4..8), in sequence, checked.
        let suffix = s.read_suffix(7).unwrap();
        let seqs: Vec<u64> = suffix.iter().map(|e| e.id.raw()).collect();
        assert_eq!(seqs, [7, 8, 9]);
        for e in &suffix {
            e.verify().unwrap();
            assert_eq!(e.bytes, epochs[e.id.raw() as usize].bytes);
        }
        assert!(s.read_suffix(10).unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_single_byte_flip_reopens_to_a_clean_prefix() {
        // The disk half of "every path that brings epoch bytes in checks
        // them": whichever byte of a 3-frame segment rots, reopening
        // keeps only frames that are exactly what was appended.
        let dir = scratch("flip");
        let epochs = encoded(12, 4); // 3 epochs
        {
            let mut s = store(&dir, 8);
            for e in &epochs {
                s.append(e).unwrap();
            }
        }
        let path = dir.join(segment_file_name(0));
        let clean = fs::read(&path).unwrap();
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x5A;
            fs::write(&path, &bytes).unwrap();
            let back = store(&dir, 8).read_suffix(0).unwrap();
            assert!(back.len() < epochs.len(), "flip at byte {i} went unnoticed");
            for (got, want) in back.iter().zip(&epochs) {
                assert_eq!(got.id, want.id, "flip at byte {i}");
                assert_eq!(got.bytes, want.bytes, "flip at byte {i}");
                assert_eq!(got.crc32, want.crc32, "flip at byte {i}");
                assert_eq!(got.txn_count, want.txn_count, "flip at byte {i}");
                assert_eq!(got.max_commit_ts, want.max_commit_ts, "flip at byte {i}");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_store_accepts_mid_stream_start() {
        let dir = scratch("midstart");
        let epochs = encoded(40, 4);
        let mut s = store(&dir, 4);
        // A store bootstrapped after a checkpoint starts mid-stream.
        s.append(&epochs[5]).unwrap();
        s.append(&epochs[6]).unwrap();
        assert_eq!(s.first_retained_seq(), Some(5));
        drop(s);
        let s = store(&dir, 4);
        assert_eq!(s.next_seq(), Some(7));
        assert_eq!(s.read_suffix(0).unwrap().len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Collects sync-observer batch sizes into a shared vector.
    fn observed(s: &mut SegmentStore) -> Arc<Mutex<Vec<u64>>> {
        let log = Arc::new(Mutex::new(Vec::new()));
        let sink = log.clone();
        s.set_sync_observer(Box::new(move |n| lock(&sink).push(n)));
        log
    }

    #[test]
    fn coalesced_policy_batches_fsyncs_by_frame_count() {
        let dir = scratch("coalesce");
        let epochs = encoded(40, 4); // 10 epochs
        let mut s = SegmentStore::open(
            &dir,
            SegmentConfig {
                epochs_per_segment: 100,
                fsync: FsyncPolicy::Coalesced {
                    max_frames: 4,
                    max_wait: Duration::from_secs(3600),
                },
            },
            None,
        )
        .unwrap();
        let log = observed(&mut s);
        for e in &epochs {
            s.append(e).unwrap();
        }
        // 10 appends under max_frames=4: two full batches, two left over.
        assert_eq!(*lock(&log), vec![4, 4]);
        assert_eq!(s.pending_frames, 2);
        assert_eq!(s.synced_seq(), Some(7));
        s.sync().unwrap();
        assert_eq!(*lock(&log), vec![4, 4, 2]);
        assert_eq!(s.pending_frames, 0);
        assert_eq!(s.synced_seq(), Some(9));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn coalesced_max_wait_forces_the_sync() {
        let dir = scratch("coalesce-wait");
        let epochs = encoded(12, 4); // 3 epochs
        let mut s = SegmentStore::open(
            &dir,
            SegmentConfig {
                epochs_per_segment: 100,
                fsync: FsyncPolicy::Coalesced { max_frames: u32::MAX, max_wait: Duration::ZERO },
            },
            None,
        )
        .unwrap();
        let log = observed(&mut s);
        for e in &epochs {
            s.append(e).unwrap();
        }
        // A zero wait budget degenerates to per-append syncs.
        assert_eq!(*lock(&log), vec![1, 1, 1]);
        assert_eq!(s.synced_seq(), Some(2));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manual_policy_syncs_only_on_rolls_and_explicit_calls() {
        let dir = scratch("manual");
        let epochs = encoded(40, 4); // 10 epochs -> segments of 4
        let mut s = SegmentStore::open(
            &dir,
            SegmentConfig { epochs_per_segment: 4, fsync: FsyncPolicy::Manual },
            None,
        )
        .unwrap();
        let log = observed(&mut s);
        for e in &epochs {
            s.append(e).unwrap();
        }
        // Rolling to a new segment makes the previous one's tail durable.
        assert_eq!(*lock(&log), vec![4, 4]);
        assert_eq!(s.pending_frames, 2);
        assert_eq!(s.synced_seq(), Some(7));
        s.sync().unwrap();
        assert_eq!(s.synced_seq(), Some(9));
        // Reopen: everything on disk counts as durable again.
        drop(s);
        let s = store(&dir, 4);
        assert_eq!(s.synced_seq(), Some(9));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_mid_write_leaves_recoverable_prefix() {
        let dir = scratch("crash");
        let epochs = encoded(40, 4); // 10 epochs
                                     // Probe: count ops for a full clean run.
        let probe = CrashClock::unlimited();
        {
            let mut s = SegmentStore::open(
                &dir,
                SegmentConfig { epochs_per_segment: 4, ..Default::default() },
                Some(probe.clone()),
            )
            .unwrap();
            for e in &epochs {
                s.append(e).unwrap();
            }
        }
        let total = probe.used();
        assert!(total > 10);
        fs::remove_dir_all(&dir).unwrap();

        // Crash at every possible op index; reopen must always yield a
        // clean prefix of the stream, extendable to the full stream.
        for budget in 1..=total {
            let dir = scratch("crash-pt");
            let clock = CrashClock::with_budget(budget);
            let mut written = 0usize;
            {
                let mut s = match SegmentStore::open(
                    &dir,
                    SegmentConfig { epochs_per_segment: 4, ..Default::default() },
                    Some(clock.clone()),
                ) {
                    Ok(s) => s,
                    Err(e) => {
                        assert!(e.is_crash());
                        continue;
                    }
                };
                for e in &epochs {
                    match s.append(e) {
                        Ok(()) => written += 1,
                        Err(err) => {
                            assert!(err.is_crash(), "unexpected error: {err}");
                            break;
                        }
                    }
                }
            }
            // Restart without a clock: durable state must be a prefix.
            let mut s = store(&dir, 4);
            let back = s.read_suffix(0).unwrap();
            // Every acked append is durable (ack implies the OS write
            // completed); unacked torn tails may add at most garbage that
            // reopen discards.
            assert!(
                back.len() >= written,
                "budget {budget}: {written} acked but only {} recovered",
                back.len()
            );
            for (i, e) in back.iter().enumerate() {
                assert_eq!(e.id.raw(), i as u64);
                assert_eq!(e.bytes, epochs[i].bytes);
            }
            // The store keeps working after recovery.
            for e in &epochs[back.len()..] {
                s.append(e).unwrap();
            }
            assert_eq!(s.read_suffix(0).unwrap().len(), epochs.len());
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}
