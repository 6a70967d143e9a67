//! Epoch-aligned durable checkpoints of the backup's Memtable.
//!
//! A checkpoint is taken at an epoch barrier while the engine is healthy:
//! every transaction of every epoch below `next_epoch_seq` has been
//! replayed and published, and nothing beyond it has touched the store.
//! The manifest therefore needs no redo/undo machinery — it is a
//! consistent snapshot by construction, and restart recovery only
//! re-replays the WAL suffix from `next_epoch_seq` onward.
//!
//! ## On-disk format (`ckpt-<next_epoch_seq:020>.ack`)
//!
//! ```text
//! [magic   u32 = "ACKP"] [version u32 = 1]
//! [next_epoch_seq u64]   [global_cmt_ts u64]
//! [num_groups u32] [tg_cmt_ts u64 x num_groups]
//! [num_quarantined u32] [group u32 x num_quarantined]
//! [snapshot_len u64]
//! [meta_crc u32]              -- CRC32 over everything above
//! [snapshot bytes]            -- aets_memtable::encode_db, as a SnapshotWalk
//! [snapshot_crc u32]          -- CRC32 over the snapshot bytes
//! ```
//!
//! The file is written to a `.tmp` sibling, fsynced, then renamed into
//! place and the directory fsynced — a crash at any instant leaves either
//! the old set of checkpoints or the old set plus a complete new one,
//! never a half-visible manifest. Loading walks newest-first and falls
//! back across manifests that fail any checksum.

use aets_common::{Error, Result, Timestamp};
use aets_memtable::{decode_db, MemDb, Snapshot, SnapshotWalk};
use aets_wal::crash::{charge, durable_write, CrashClock};
use aets_wal::crc32;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// `"ACKP"` — AETS checkpoint manifest.
const CKPT_MAGIC: u32 = 0x4143_4B50;
const CKPT_VERSION: u32 = 1;

/// Replay positions stored alongside the Memtable snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// First epoch sequence NOT contained in the snapshot: recovery
    /// resumes WAL replay here.
    pub next_epoch_seq: u64,
    /// `global_cmt_ts` at the barrier.
    pub global_cmt_ts: Timestamp,
    /// Per-group `tg_cmt_ts` at the barrier (board order).
    pub tg_cmt_ts: Vec<Timestamp>,
    /// Quarantine ledger (board indices). Empty in practice: checkpoints
    /// are skipped while degraded, because truncating the WAL past a
    /// frozen group would lose its unreplayed suffix. The field exists so
    /// the format does not need a version bump if that policy changes.
    pub quarantined: Vec<u32>,
}

/// A checkpoint loaded back from disk.
#[derive(Debug)]
pub struct Checkpoint {
    /// Replay positions at the barrier.
    pub meta: CheckpointMeta,
    /// The restored Memtable.
    pub db: MemDb,
    /// Manifest this state came from.
    pub path: PathBuf,
}

/// Durable store of checkpoint manifests in one directory.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    clock: Option<Arc<CrashClock>>,
    /// See [`CheckpointStore::bytes_per_node`].
    bytes_per_node: AtomicUsize,
}

impl CheckpointStore {
    /// Opens (creating if needed) the checkpoint directory and removes
    /// leftover `.tmp` files from checkpoints interrupted mid-write.
    pub fn open(dir: impl Into<PathBuf>, clock: Option<Arc<CrashClock>>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let store = Self { dir, clock, bytes_per_node: AtomicUsize::new(0) };
        for entry in std::fs::read_dir(&store.dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                charge(&store.clock, "remove stale checkpoint tmp")?;
                std::fs::remove_file(&path)?;
            }
        }
        Ok(store)
    }

    /// Checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Manifests present on disk, ascending by `next_epoch_seq`.
    pub fn list(&self) -> Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if let Some(seq) = parse_checkpoint_name(&path) {
                out.push((seq, path));
            }
        }
        out.sort_unstable_by_key(|(seq, _)| *seq);
        Ok(out)
    }

    /// Writes a checkpoint atomically: encode, write + fsync a `.tmp`
    /// sibling, rename into place, fsync the directory.
    ///
    /// `watermark` bounds the snapshot (versions with `commit_ts` above it
    /// are excluded); pass the barrier's `global_cmt_ts`, or
    /// [`Timestamp::MAX`] to snapshot everything.
    ///
    /// The snapshot is walked with no GC on the calling thread, then
    /// written by [`CheckpointStore::write_snapshot`].
    pub fn write(
        &self,
        meta: &CheckpointMeta,
        db: &MemDb,
        watermark: Timestamp,
    ) -> Result<PathBuf> {
        let walk = SnapshotWalk::plan(db, watermark, None, 1, self.bytes_per_node());
        walk.work();
        self.write_snapshot(meta, &walk.finish())
    }

    /// Snapshot bytes per record node of the last manifest written (0
    /// before the first): the next walk's buffers are sized from it.
    pub fn bytes_per_node(&self) -> usize {
        self.bytes_per_node.load(Ordering::Relaxed)
    }

    /// Writes a walked snapshot as the manifest for `meta`, atomically
    /// (see [`CheckpointStore::write`]). The header, the snapshot's
    /// pieces and the trailer go to the file back to back as one metered
    /// write: the image is never joined into one buffer. The snapshot CRC
    /// folds the CRCs its walkers took of their parts.
    pub fn write_snapshot(&self, meta: &CheckpointMeta, snapshot: &Snapshot) -> Result<PathBuf> {
        let mut head =
            BytesMut::with_capacity(48 + 8 * meta.tg_cmt_ts.len() + 4 * meta.quarantined.len());
        head.put_u32_le(CKPT_MAGIC);
        head.put_u32_le(CKPT_VERSION);
        head.put_u64_le(meta.next_epoch_seq);
        head.put_u64_le(meta.global_cmt_ts.as_micros());
        head.put_u32_le(meta.tg_cmt_ts.len() as u32);
        for ts in &meta.tg_cmt_ts {
            head.put_u64_le(ts.as_micros());
        }
        head.put_u32_le(meta.quarantined.len() as u32);
        for g in &meta.quarantined {
            head.put_u32_le(*g);
        }
        head.put_u64_le(snapshot.len as u64);
        let meta_crc = crc32(&head);
        head.put_u32_le(meta_crc);
        let trailer = snapshot.crc.to_le_bytes();
        let mut segs = vec![&head[..]];
        segs.extend(snapshot.pieces.iter().map(|p| &p[..]));
        segs.push(&trailer);
        self.bytes_per_node.store(snapshot.bytes_per_node, Ordering::Relaxed);

        let final_path = self.dir.join(checkpoint_file_name(meta.next_epoch_seq));
        let tmp_path = final_path.with_extension("tmp");
        {
            charge(&self.clock, "create checkpoint tmp")?;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .truncate(true)
                .write(true)
                .open(&tmp_path)?;
            durable_write(&mut f, &segs, &self.clock, "checkpoint manifest")?;
            charge(&self.clock, "fsync checkpoint tmp")?;
            f.sync_data()?;
        }
        charge(&self.clock, "rename checkpoint into place")?;
        std::fs::rename(&tmp_path, &final_path)?;
        charge(&self.clock, "fsync checkpoint dir")?;
        std::fs::File::open(&self.dir)?.sync_all()?;
        Ok(final_path)
    }

    /// Loads the newest valid checkpoint, falling back across manifests
    /// that fail validation (torn writes, checksum mismatches, decode
    /// errors). Returns the checkpoint (or `None` for a cold start) and
    /// the number of manifests skipped on the way.
    pub fn load_latest(&self) -> Result<(Option<Checkpoint>, u64)> {
        let mut fallbacks = 0u64;
        for (seq, path) in self.list()?.into_iter().rev() {
            charge(&self.clock, "read checkpoint manifest")?;
            match std::fs::read(&path) {
                Ok(raw) => match parse_checkpoint(&Bytes::from(raw), seq) {
                    Ok((meta, db)) => return Ok((Some(Checkpoint { meta, db, path }), fallbacks)),
                    Err(_) => fallbacks += 1,
                },
                Err(_) => fallbacks += 1,
            }
        }
        Ok((None, fallbacks))
    }

    /// Deletes all but the newest `keep` manifests. Returns how many were
    /// removed.
    pub fn retain(&self, keep: usize) -> Result<usize> {
        let manifests = self.list()?;
        let excess = manifests.len().saturating_sub(keep.max(1));
        let mut removed = 0usize;
        for (_, path) in manifests.into_iter().take(excess) {
            charge(&self.clock, "remove retired checkpoint")?;
            std::fs::remove_file(&path)?;
            removed += 1;
        }
        Ok(removed)
    }
}

/// `ckpt-<next_epoch_seq:020>.ack`.
fn checkpoint_file_name(seq: u64) -> String {
    format!("ckpt-{seq:020}.ack")
}

/// Parses a manifest file name back to its sequence, `None` for foreign
/// files.
fn parse_checkpoint_name(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let seq = name.strip_prefix("ckpt-")?.strip_suffix(".ack")?;
    seq.parse().ok()
}

/// Validates and decodes one manifest. `named_seq` is the sequence from
/// the file name; a mismatch with the header means the file was tampered
/// with or misplaced and is treated as invalid.
///
/// The snapshot decodes in place: decoded text and byte values are views
/// of `raw`, so they pin the file's one buffer and nothing is copied.
fn parse_checkpoint(raw: &Bytes, named_seq: u64) -> Result<(CheckpointMeta, MemDb)> {
    // Fixed prelude through num_groups.
    let fail = || Error::CodecChecksum;
    if raw.len() < 32 {
        return Err(fail());
    }
    let mut cur: &[u8] = raw.as_slice();
    if cur.get_u32_le() != CKPT_MAGIC || cur.get_u32_le() != CKPT_VERSION {
        return Err(fail());
    }
    let next_epoch_seq = cur.get_u64_le();
    let global_cmt_ts = Timestamp::from_micros(cur.get_u64_le());
    if next_epoch_seq != named_seq {
        return Err(fail());
    }
    if cur.remaining() < 4 {
        return Err(fail());
    }
    let num_groups = cur.get_u32_le() as usize;
    if cur.remaining() < num_groups * 8 + 4 {
        return Err(fail());
    }
    let tg_cmt_ts: Vec<Timestamp> =
        (0..num_groups).map(|_| Timestamp::from_micros(cur.get_u64_le())).collect();
    let num_quarantined = cur.get_u32_le() as usize;
    if cur.remaining() < num_quarantined * 4 + 12 {
        return Err(fail());
    }
    let quarantined: Vec<u32> = (0..num_quarantined).map(|_| cur.get_u32_le()).collect();
    let snapshot_len = cur.get_u64_le() as usize;
    let meta_len = raw.len() - cur.remaining();
    let meta_crc = cur.get_u32_le();
    if crc32(&raw[..meta_len]) != meta_crc {
        return Err(fail());
    }
    if cur.remaining() != snapshot_len + 4 {
        return Err(fail());
    }
    let mut snapshot = raw.slice(raw.len() - cur.remaining()..raw.len() - 4);
    if crc32(&snapshot) != (&raw[raw.len() - 4..]).get_u32_le() {
        return Err(fail());
    }
    let db = decode_db(&mut snapshot)?;
    Ok((CheckpointMeta { next_epoch_seq, global_cmt_ts, tg_cmt_ts, quarantined }, db))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aets_common::{ColumnId, RowKey, TableId, TxnId, Value};

    fn scratch(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("aets-ckpt-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_db() -> MemDb {
        let db = MemDb::new(2);
        for t in 0..2u32 {
            for k in 0..20u64 {
                db.table(TableId::new(t)).apply_version(
                    RowKey::new(k),
                    aets_memtable::Version {
                        txn_id: TxnId::new(k + 1),
                        commit_ts: Timestamp::from_micros((k + 1) * 10),
                        op: aets_memtable::OpType::Insert,
                        cols: vec![(ColumnId::new(0), Value::Int(k as i64))],
                    },
                );
            }
        }
        db
    }

    fn sample_meta(seq: u64) -> CheckpointMeta {
        CheckpointMeta {
            next_epoch_seq: seq,
            global_cmt_ts: Timestamp::from_micros(200),
            tg_cmt_ts: vec![Timestamp::from_micros(200), Timestamp::from_micros(180)],
            quarantined: vec![],
        }
    }

    /// A small database with every value kind, multi-version chains, a
    /// tombstone, an empty table and a node that never committed.
    fn fixture_db() -> MemDb {
        use aets_memtable::{OpType, Version};
        let db = MemDb::new(3);
        let ver = |txn: u64, op, cols: Vec<(u16, Value)>| Version {
            txn_id: TxnId::new(txn),
            commit_ts: Timestamp::from_micros(txn * 10),
            op,
            cols: cols.into_iter().map(|(c, v)| (ColumnId::new(c), v)).collect(),
        };
        let t0 = db.table(TableId::new(0));
        t0.apply_version(
            RowKey::new(1),
            ver(1, OpType::Insert, vec![(0, Value::Int(-7)), (1, Value::Text("abc".into()))]),
        );
        t0.apply_version(RowKey::new(1), ver(2, OpType::Update, vec![(1, Value::Text("".into()))]));
        t0.apply_version(RowKey::new(2), ver(3, OpType::Insert, vec![(0, Value::Null)]));
        t0.apply_version(RowKey::new(2), ver(4, OpType::Delete, vec![]));
        let _ = db.table(TableId::new(1)).node_or_insert(RowKey::new(77));
        let t2 = db.table(TableId::new(2));
        t2.apply_version(
            RowKey::new(u64::MAX),
            ver(5, OpType::Insert, vec![(3, Value::Float(2.5)), (9, Value::from(vec![0u8, 255]))]),
        );
        db
    }

    /// `ckpt-…07.ack` as commit 938110f (format version 1, the deep-copying
    /// writer) wrote it for `sample_meta(7)` over `fixture_db()`.
    const PARENT_MANIFEST: &[u8] = include_bytes!("testdata/ckpt-00000000000000000007.ack");

    #[test]
    fn a_manifest_the_previous_writer_wrote_loads_and_is_what_we_write() {
        let (meta, db) = parse_checkpoint(&Bytes::from_static(PARENT_MANIFEST), 7)
            .expect("version 1 still loads");
        assert_eq!(meta, sample_meta(7));
        let want = fixture_db();
        assert_eq!(db.total_versions(), want.total_versions());
        for ts in [0u64, 15, 25, 35, 45, u64::MAX].map(Timestamp::from_micros) {
            assert_eq!(db.digest_at(ts), want.digest_at(ts), "digest diverges at {ts:?}");
        }

        let dir = scratch("parent");
        let store = CheckpointStore::open(&dir, None).unwrap();
        let path = store.write(&sample_meta(7), &want, Timestamp::MAX).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), PARENT_MANIFEST, "same bytes, same format");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_load_round_trips() {
        let dir = scratch("round");
        let store = CheckpointStore::open(&dir, None).unwrap();
        let db = sample_db();
        let meta = sample_meta(7);
        store.write(&meta, &db, Timestamp::MAX).unwrap();

        let (ckpt, fallbacks) = store.load_latest().unwrap();
        let ckpt = ckpt.expect("checkpoint must load");
        assert_eq!(fallbacks, 0);
        assert_eq!(ckpt.meta, meta);
        assert_eq!(ckpt.db.digest_at(Timestamp::MAX), db.digest_at(Timestamp::MAX));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn newest_valid_wins_and_corrupt_falls_back() {
        let dir = scratch("fallback");
        let store = CheckpointStore::open(&dir, None).unwrap();
        let db = sample_db();
        store.write(&sample_meta(3), &db, Timestamp::MAX).unwrap();
        let newest = store.write(&sample_meta(9), &db, Timestamp::MAX).unwrap();

        // Flip a byte in the newest manifest's snapshot body.
        let mut raw = std::fs::read(&newest).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x40;
        std::fs::write(&newest, &raw).unwrap();

        let (ckpt, fallbacks) = store.load_latest().unwrap();
        let ckpt = ckpt.expect("older checkpoint must be found");
        assert_eq!(fallbacks, 1, "the corrupt newest manifest is skipped");
        assert_eq!(ckpt.meta.next_epoch_seq, 3);
        assert_eq!(ckpt.db.digest_at(Timestamp::MAX), db.digest_at(Timestamp::MAX));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_truncation_of_a_manifest_is_rejected() {
        let dir = scratch("trunc");
        let store = CheckpointStore::open(&dir, None).unwrap();
        let path = store.write(&sample_meta(1), &sample_db(), Timestamp::MAX).unwrap();
        let raw = Bytes::from(std::fs::read(&path).unwrap());
        for cut in 0..raw.len() {
            assert!(
                parse_checkpoint(&raw.slice(..cut), 1).is_err(),
                "prefix of {cut}/{} bytes must not validate",
                raw.len()
            );
        }
        assert!(parse_checkpoint(&raw, 1).is_ok());
        assert!(parse_checkpoint(&raw, 2).is_err(), "name/header seq mismatch rejected");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_single_byte_flip_of_a_manifest_falls_back() {
        let dir = scratch("flip");
        let store = CheckpointStore::open(&dir, None).unwrap();
        let want = fixture_db();
        store.write(&sample_meta(3), &want, Timestamp::MAX).unwrap();
        let newest = store.write(&sample_meta(9), &want, Timestamp::MAX).unwrap();
        let clean = std::fs::read(&newest).unwrap();
        for at in 0..clean.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut raw = clean.clone();
                raw[at] ^= flip;
                std::fs::write(&newest, &raw).unwrap();
                let (ckpt, fallbacks) = store.load_latest().unwrap();
                let ckpt = ckpt.expect("the intact older manifest loads");
                assert_eq!((ckpt.meta.next_epoch_seq, fallbacks), (3, 1), "byte {at} ^ {flip:#x}");
                assert_eq!(ckpt.db.digest_at(Timestamp::MAX), want.digest_at(Timestamp::MAX));
            }
        }
        // With no older manifest to fall back to, a damaged one is a cold
        // start.
        for (seq, path) in store.list().unwrap() {
            if seq == 3 {
                std::fs::remove_file(path).unwrap();
            }
        }
        let mut raw = clean;
        raw[0] ^= 0xFF;
        std::fs::write(&newest, &raw).unwrap();
        assert!(matches!(store.load_latest().unwrap(), (None, 1)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retain_prunes_oldest_and_tmp_files_are_cleared() {
        let dir = scratch("retain");
        let store = CheckpointStore::open(&dir, None).unwrap();
        let db = sample_db();
        for seq in [2u64, 5, 8, 11] {
            store.write(&sample_meta(seq), &db, Timestamp::MAX).unwrap();
        }
        assert_eq!(store.retain(2).unwrap(), 2);
        let seqs: Vec<u64> = store.list().unwrap().into_iter().map(|(s, _)| s).collect();
        assert_eq!(seqs, vec![8, 11]);
        // retain(0) still keeps one.
        assert_eq!(store.retain(0).unwrap(), 1);
        assert_eq!(store.list().unwrap().len(), 1);

        // A stale tmp from a crashed write is removed on reopen.
        std::fs::write(dir.join("ckpt-00000000000000000099.tmp"), b"half").unwrap();
        let store = CheckpointStore::open(&dir, None).unwrap();
        assert!(!dir.join("ckpt-00000000000000000099.tmp").exists());
        assert_eq!(store.list().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_mid_write_never_corrupts_existing_checkpoints() {
        let dir = scratch("crash");
        let db = sample_db();
        {
            let store = CheckpointStore::open(&dir, None).unwrap();
            store.write(&sample_meta(4), &db, Timestamp::MAX).unwrap();
        }
        // Probe the op cost of one checkpoint write, then crash at every
        // budget inside it.
        let probe = CrashClock::unlimited();
        {
            let store = CheckpointStore::open(&dir, Some(probe.clone())).unwrap();
            store.write(&sample_meta(9), &db, Timestamp::MAX).unwrap();
            for p in store.list().unwrap() {
                if p.0 == 9 {
                    std::fs::remove_file(&p.1).unwrap();
                }
            }
        }
        let total = probe.used();
        for budget in 1..=total {
            let clock = CrashClock::with_budget(budget);
            if let Ok(store) = CheckpointStore::open(&dir, Some(clock)) {
                let _ = store.write(&sample_meta(9), &db, Timestamp::MAX);
            }
            // Restart: no clock. Either the old checkpoint alone or both
            // must load cleanly; fallbacks stay zero because torn tmps are
            // swept, not parsed.
            let store = CheckpointStore::open(&dir, None).unwrap();
            let (ckpt, fallbacks) = store.load_latest().unwrap();
            let ckpt = ckpt.expect("seq-4 checkpoint must always survive");
            assert_eq!(fallbacks, 0, "budget {budget}: no torn manifest may be visible");
            assert!(ckpt.meta.next_epoch_seq == 4 || ckpt.meta.next_epoch_seq == 9);
            assert_eq!(ckpt.db.digest_at(Timestamp::MAX), db.digest_at(Timestamp::MAX));
            // Clean up a committed seq-9 so the next budget starts equal.
            for p in store.list().unwrap() {
                if p.0 == 9 {
                    std::fs::remove_file(&p.1).unwrap();
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
