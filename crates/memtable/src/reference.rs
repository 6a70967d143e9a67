//! Reference implementations for the differential tests.
//!
//! These are the garbage collector, the row reconstruction and the
//! snapshot encoder as they stood before they were rewritten to work in
//! place (materialise the row, rebuild every chain, deep-copy the database
//! on the way to the buffer). They are slow and obviously right; the tests
//! below hold the fast forms to them, chain for chain and byte for byte.

use crate::gc::GcStats;
use crate::record::{Chain, OpType, RecordNode, Version};
use crate::table::{MemDb, Table};
use aets_common::{ColumnId, Row, RowKey, Timestamp, Value};
use bytes::{BufMut, BytesMut};

/// `RecordNode::read_at` over a plain chain.
pub(crate) fn read_at(chain: &[Version], ts: Timestamp) -> Option<Row> {
    let end = chain.partition_point(|v| v.commit_ts <= ts);
    if end == 0 {
        return None;
    }
    let mut merged: Vec<(ColumnId, Option<&Value>)> = Vec::new();
    let mut have = aets_common::FxHashSet::default();
    for v in chain[..end].iter().rev() {
        match v.op {
            OpType::Delete => return None,
            OpType::Update | OpType::Insert => {
                for (cid, val) in &v.cols {
                    if have.insert(*cid) {
                        merged.push((*cid, Some(val)));
                    }
                }
                if v.op == OpType::Insert {
                    break;
                }
            }
        }
    }
    let mut row: Row = merged.into_iter().filter_map(|(c, v)| v.map(|v| (c, v.clone()))).collect();
    row.sort_by_key(|(c, _)| *c);
    Some(row)
}

/// `gc_node` over a plain chain: reconstruct the row at the watermark,
/// then swap the prefix at or below it for one consolidated boundary
/// version in a new chain. `pruned` is filled in here; the old `gc_table`
/// counted it from the table's version totals before and after.
pub(crate) fn gc_chain(before: &[Version], watermark: Timestamp) -> (Vec<Version>, GcStats) {
    let mut stats = GcStats { nodes: 1, ..Default::default() };
    let end = before.partition_point(|v| v.commit_ts <= watermark);
    if end == 0 {
        stats.retained = before.len();
        return (before.to_vec(), stats);
    }
    let image = read_at(before, watermark);
    let boundary = Version {
        txn_id: before[end - 1].txn_id,
        commit_ts: before[end - 1].commit_ts,
        op: if image.is_some() { OpType::Insert } else { OpType::Delete },
        cols: image.unwrap_or_default(),
    };
    let mut replaced = Vec::with_capacity(1 + before.len() - end);
    replaced.push(boundary);
    replaced.extend_from_slice(&before[end..]);
    stats.pruned = before.len() - replaced.len();
    stats.retained = replaced.len();
    stats.consolidated = 1;
    (replaced, stats)
}

/// [`gc_chain`] on a node's chain, which is rebuilt from the result.
pub(crate) fn gc_node(node: &RecordNode, watermark: Timestamp) -> GcStats {
    let (replaced, stats) = gc_chain(&node.chain(), watermark);
    let mut chain = Chain::default();
    for v in replaced {
        chain.push(v);
    }
    *node.chain_mut() = chain;
    stats
}

/// `gc_table` over [`gc_node`].
pub(crate) fn gc_table(table: &Table, watermark: Timestamp) -> GcStats {
    let mut stats = GcStats::default();
    for (_, node) in table.entries() {
        stats.merge(gc_node(&node, watermark));
    }
    stats
}

/// `encode_db`: clone every chain, filter it, collect the table, encode.
pub(crate) fn encode_db(buf: &mut BytesMut, db: &MemDb, watermark: Timestamp) {
    buf.put_u32_le(db.num_tables() as u32);
    for table in db.tables() {
        let entries = table.entries();
        buf.put_u32_le(table.id().raw());
        let mut kept: Vec<(RowKey, Vec<Version>)> = Vec::with_capacity(entries.len());
        for (key, node) in entries {
            let mut chain = node.chain().to_vec();
            chain.retain(|v| v.commit_ts <= watermark);
            if !chain.is_empty() {
                kept.push((key, chain));
            }
        }
        buf.put_u64_le(kept.len() as u64);
        for (key, chain) in kept {
            buf.put_u64_le(key.raw());
            buf.put_u32_le(chain.len() as u32);
            for v in chain {
                buf.put_u64_le(v.txn_id.raw());
                buf.put_u64_le(v.commit_ts.as_micros());
                buf.put_u8(v.op.tag());
                aets_wal::encode_row(buf, &v.cols);
            }
        }
    }
}

mod tests {
    use super::*;
    use crate::gc;
    use crate::record::is_canonical;
    use crate::snapshot::{self, SnapshotWalk};
    use aets_common::rng::{check, Rng};
    use aets_common::{TableId, TxnId};
    use aets_wal::TxnLog;
    use aets_workloads::bustracker::{self, BusTrackerConfig};
    use aets_workloads::tpcc::{self, TpccConfig};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;

    /// Columns as a log could carry them and as it never would: any order,
    /// repeats allowed, so the canonical-image shortcuts get inputs that
    /// are not canonical.
    fn cols(rng: &mut Rng) -> Row {
        (0..rng.below(5))
            .map(|_| (ColumnId::new(rng.below(6) as u16), Value::Int(rng.below(7) as i64 - 3)))
            .collect()
    }

    /// A chain in commit order: timestamps never decrease and may repeat
    /// (one transaction touching the record twice).
    fn chain(rng: &mut Rng) -> Vec<Version> {
        let mut ts = 1u64;
        (0..rng.below(8))
            .map(|_| {
                ts += rng.below(3);
                let op = [OpType::Insert, OpType::Update, OpType::Delete][rng.below(3) as usize];
                Version {
                    txn_id: TxnId::new(ts),
                    commit_ts: Timestamp::from_micros(ts * 10),
                    op,
                    cols: cols(rng),
                }
            })
            .collect()
    }

    fn node_of(chain: &[Version]) -> RecordNode {
        let node = RecordNode::new();
        for v in chain {
            node.append_version(v.clone());
        }
        node
    }

    /// The chains are equal, except that where the reference rewrote a
    /// lone insert into column order the in-place GC may have left it as
    /// the log wrote it.
    fn same_chains(fast: &[Version], slow: &[Version]) {
        assert_eq!(fast.len(), slow.len());
        for (f, s) in fast.iter().zip(slow) {
            assert_eq!((f.txn_id, f.commit_ts, f.op), (s.txn_id, s.commit_ts, s.op));
            if f.cols != s.cols {
                assert_eq!(f.op, OpType::Insert);
                let in_order = read_at(std::slice::from_ref(f), Timestamp::MAX);
                assert_eq!(in_order.as_ref(), Some(&s.cols));
            }
        }
    }

    #[test]
    fn reads_and_counts_agree_with_the_reference() {
        check("reads_and_counts_agree_with_the_reference", 64, |rng| {
            let chain = chain(rng);
            let node = node_of(&chain);
            for ts in (0..=200).step_by(5).map(Timestamp::from_micros) {
                let want = read_at(&chain, ts);
                assert_eq!(node.visible_at(ts), want.is_some(), "visible_at {:?}", ts);
                assert_eq!(node.with_row_at(ts, Row::clone), want.clone(), "lent row {:?}", ts);
                // One more column than `cols()` draws: a column no row has.
                for c in (0..7).map(ColumnId::new) {
                    let in_row =
                        |row: &Row| row.iter().find(|(cid, _)| *cid == c).map(|(_, v)| v.clone());
                    let got = node.with_value_at(ts, c, |v| v.cloned());
                    assert_eq!(got, want.as_ref().map(in_row), "column {:?} at {:?}", c, ts);
                }
                assert_eq!(node.read_at(ts), want, "read_at {:?}", ts);
            }
        });
    }

    #[test]
    fn gc_in_place_agrees_with_the_reference() {
        check("gc_in_place_agrees_with_the_reference", 64, |rng| {
            let chain = chain(rng);
            let wm = Timestamp::from_micros(rng.below(200));
            let (fast, slow) = (node_of(&chain), node_of(&chain));
            let fast_stats = gc::gc_node(&fast, wm);
            let slow_stats = gc_node(&slow, wm);
            assert_eq!(fast_stats, slow_stats);
            same_chains(&fast.chain(), &slow.chain());
            assert!(fast.is_ordered());
            if fast_stats.pruned > 0 {
                assert_eq!(fast.chain().capacity(), fast.chain().len(), "excess capacity kept");
            }
            // Readers at or above the watermark see what they saw before.
            for ts in (wm.as_micros()..=200).map(Timestamp::from_micros) {
                assert_eq!(fast.read_at(ts), read_at(&chain, ts), "read_at {:?}", ts);
            }
            // A second pass at the same watermark finds nothing to do.
            let again = gc::gc_node(&fast, wm);
            assert_eq!(again.pruned, 0);
            same_chains(&fast.chain(), &slow.chain());
        });
    }

    /// One step of a chain's life: append a version, a GC pass, or a trip
    /// through the snapshot codec, each at the watermark drawn with it.
    #[derive(Debug, Clone)]
    enum Step {
        Append(u64, OpType, Row),
        Gc(Timestamp),
        Snapshot(Timestamp),
    }

    fn step(rng: &mut Rng) -> Step {
        let (kind, gap, op, cols, wm) =
            (rng.below(4), rng.below(3), rng.below(3), cols(rng), rng.below(600));
        let wm = if wm >= 500 { Timestamp::MAX } else { Timestamp::from_micros(wm) };
        match kind {
            0 | 1 => Step::Append(
                gap,
                [OpType::Insert, OpType::Update, OpType::Delete][op as usize],
                cols,
            ),
            2 => Step::Gc(wm),
            _ => Step::Snapshot(wm),
        }
    }

    /// The inline-first chain against a plain `Vec<Version>` model: the
    /// same versions after every step, a lone version always in place,
    /// and no spare slot after a GC that pruned.
    #[test]
    fn chain_agrees_with_a_vec_model() {
        check("chain_agrees_with_a_vec_model", 64, |rng| {
            let steps: Vec<Step> = (0..rng.below(16)).map(|_| step(rng)).collect();
            let key = RowKey::new(7);
            let mut db = MemDb::new(1);
            let mut model: Vec<Version> = Vec::new();
            let mut ts = 1u64;
            for step in steps {
                let node = db.table(TableId::new(0)).node_or_insert(key);
                let mut pruned = false;
                match step {
                    Step::Append(gap, op, cols) => {
                        ts += gap;
                        let v = Version {
                            txn_id: TxnId::new(ts),
                            commit_ts: Timestamp::from_micros(ts * 10),
                            op,
                            cols,
                        };
                        model.push(v.clone());
                        node.append_version(v);
                    }
                    Step::Gc(wm) => {
                        let (after, want) = gc_chain(&model, wm);
                        model = after;
                        let got = gc::gc_node(&node, wm);
                        assert_eq!(got, want);
                        pruned = got.pruned > 0;
                    }
                    Step::Snapshot(wm) => {
                        model.retain(|v| v.commit_ts <= wm);
                        let mut buf = BytesMut::new();
                        snapshot::encode_db(&mut buf, &db, wm);
                        db = snapshot::decode_db(&mut buf.freeze()).expect("own snapshot");
                    }
                }
                let node = db.table(TableId::new(0)).node_or_insert(key);
                let chain = node.chain();
                same_chains(&chain, &model);
                if chain.len() == 1 {
                    assert!(matches!(*chain, Chain::One(_)), "a lone version spilled");
                    assert_eq!(chain.capacity(), 1);
                }
                if pruned {
                    assert_eq!(chain.capacity(), chain.len(), "a pruned chain kept spare slots");
                }
            }
        });
    }

    /// Replays `txns` the way the serial oracle does. The generators list
    /// an insert's columns in ascending order — what lets GC leave a lone
    /// insert unread and still match the reference chain byte for byte.
    fn apply(db: &MemDb, txns: &[TxnLog]) {
        for t in txns {
            for e in &t.entries {
                assert!(e.op != OpType::Insert || is_canonical(&e.cols), "unordered log insert");
                db.table(e.table).apply_version(
                    e.key,
                    Version {
                        txn_id: e.txn_id,
                        commit_ts: t.commit_ts,
                        op: e.op,
                        cols: e.cols.clone(),
                    },
                );
            }
        }
    }

    /// TPC-C (short chains, wide rows) and BusTracker (65 tables, long hot
    /// chains), each fresh and after a GC pass at its midpoint.
    fn workload_dbs() -> Vec<(&'static str, MemDb, Timestamp)> {
        let tpcc =
            tpcc::generate(&TpccConfig { num_txns: 1_500, warehouses: 2, ..Default::default() });
        let bus = bustracker::generate(&BusTrackerConfig { num_txns: 3_000, ..Default::default() });
        let mut out = Vec::new();
        for (name, tables, txns) in
            [("tpcc", tpcc.num_tables(), &tpcc.txns), ("bustracker", bus.num_tables(), &bus.txns)]
        {
            let mid = txns[txns.len() / 2].commit_ts;
            let db = MemDb::new(tables);
            apply(&db, txns);
            out.push((name, db, mid));
            let db = MemDb::new(tables);
            apply(&db, txns);
            gc::gc_db(&db, mid);
            out.push((name, db, mid));
        }
        out
    }

    #[test]
    fn snapshot_bytes_match_the_reference() {
        for (name, db, mid) in workload_dbs() {
            for wm in [Timestamp::MAX, mid, Timestamp::ZERO] {
                let mut want = BytesMut::new();
                encode_db(&mut want, &db, wm);
                let mut got = BytesMut::new();
                snapshot::encode_db(&mut got, &db, wm);
                assert!(got == want, "{name}: snapshots at {wm:?} differ");
            }
        }
    }

    #[test]
    fn gc_pass_matches_the_reference() {
        let fresh = || workload_dbs().into_iter().step_by(2);
        for ((name, slow, mid), (_, fast, _)) in fresh().zip(fresh()) {
            let mut want = GcStats::default();
            for t in slow.tables() {
                want.merge(gc_table(t, mid));
            }
            assert!(want.pruned > 0, "{name}: the pass must have work to do");
            assert_eq!(gc::gc_db(&fast, mid), want, "{name}: stats");
            let [want, got] = [&slow, &fast].map(|db| {
                let mut buf = BytesMut::new();
                encode_db(&mut buf, db, Timestamp::MAX);
                buf
            });
            assert!(got == want, "{name}: chains differ after GC");
            assert!(fast.all_chains_ordered());
        }
    }

    /// One table of a drawn database: each key's chain, `None` for a node
    /// phase 1 created and nothing committed to.
    type TableSpec = Vec<(RowKey, Option<Vec<Version>>)>;

    fn build(spec: &[TableSpec]) -> MemDb {
        let db = MemDb::new(spec.len());
        for (t, keys) in spec.iter().enumerate() {
            let table = db.table(TableId::new(t as u32));
            for (key, chain) in keys {
                let node = table.node_or_insert(*key);
                for v in chain.iter().flatten() {
                    node.append_version(v.clone());
                }
            }
        }
        db
    }

    /// The snapshot walk over random databases — multi-version chains that
    /// need consolidation, tombstones, invisible phase-1 nodes, empty
    /// tables — cut at random keys into parts of one key, of none and of
    /// many, walked by two threads: its bytes and `GcStats` are those of
    /// `gc_db(floor)` then `encode_db(W)` on a twin database, and the
    /// reference encoder's; its CRC is the bytes'; and it pruned the
    /// chains in place as that pass did.
    #[test]
    fn a_part_walk_is_gc_then_encode() {
        check("a_part_walk_is_gc_then_encode", 64, |rng| {
            let spec: Vec<TableSpec> = (0..rng.below(4))
                .map(|_| {
                    let mut keys: Vec<u64> = (0..rng.below(12)).map(|_| rng.below(40)).collect();
                    keys.sort_unstable();
                    keys.dedup();
                    let invisible = rng.below(4);
                    keys.into_iter()
                        .map(|k| (RowKey::new(k), (k % 4 != invisible).then(|| chain(rng))))
                        .collect()
                })
                .collect();
            let cuts: Vec<Vec<RowKey>> = spec
                .iter()
                .map(|_| {
                    let mut cuts: Vec<u64> = (0..rng.below(5)).map(|_| 1 + rng.below(42)).collect();
                    cuts.sort_unstable();
                    cuts.dedup();
                    cuts.into_iter().map(RowKey::new).collect()
                })
                .collect();
            let wm = match rng.below(200) {
                w if w >= 180 => Timestamp::MAX,
                w => Timestamp::from_micros(w),
            };
            let floor = match rng.below(3) {
                0 => None,
                1 => Some(wm),
                _ => Some(Timestamp::from_micros(rng.below(wm.as_micros().min(200) + 1))),
            };
            let bytes_per_node = rng.below(64) as usize;

            let (walked, twin) = (build(&spec), build(&spec));
            let walk = SnapshotWalk::with_cuts(&walked, wm, floor, cuts.clone(), bytes_per_node);
            std::thread::scope(|s| {
                s.spawn(|| walk.work());
                walk.work();
            });
            let snap = walk.finish();
            let got = snapshot::tests::joined(&snap);
            let want_gc = floor.map_or(GcStats::default(), |f| gc::gc_db(&twin, f));
            assert_eq!(snap.gc, want_gc, "cuts {cuts:?}");
            let mut want = BytesMut::new();
            snapshot::encode_db(&mut want, &twin, wm);
            assert!(got == want[..], "walk != gc_db then encode_db, cuts {cuts:?}");
            let mut reference = BytesMut::new();
            encode_db(&mut reference, &twin, wm);
            assert!(got == reference[..], "walk != the reference encoder");
            assert_eq!((snap.len, snap.crc), (got.len(), aets_wal::crc32(&got)));
            let [after, twin_after] = [&walked, &twin].map(|db| {
                let mut buf = BytesMut::new();
                snapshot::encode_db(&mut buf, db, Timestamp::MAX);
                buf
            });
            assert!(after == twin_after, "the walk left other chains than gc_db");
        });
    }

    #[test]
    fn encode_at_a_watermark_ignores_appends_racing_above_it() {
        let w =
            tpcc::generate(&TpccConfig { num_txns: 1_500, warehouses: 2, ..Default::default() });
        let db = MemDb::new(w.num_tables());
        apply(&db, &w.txns);
        let wm = w.txns.last().expect("nonempty").commit_ts;
        let mut quiesced = BytesMut::new();
        snapshot::encode_db(&mut quiesced, &db, wm);

        // The appender re-applies the stream above the watermark — new
        // versions on existing chains and brand-new keys — from before the
        // encode starts until after it ends.
        let (started, wait_started) = mpsc::channel();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut started = Some(started);
                let mut round = 1u64;
                while !stop.load(Ordering::SeqCst) {
                    for t in &w.txns {
                        for e in &t.entries {
                            let v = Version {
                                txn_id: TxnId::new(e.txn_id.raw() + round * 1_000_000),
                                commit_ts: Timestamp::from_micros(wm.as_micros() + round),
                                op: e.op,
                                cols: e.cols.clone(),
                            };
                            db.table(e.table).apply_version(e.key, v.clone());
                            let fresh = RowKey::new(e.key.raw() ^ (round << 40));
                            db.table(e.table).apply_version(fresh, v);
                        }
                        if let Some(started) = started.take() {
                            started.send(()).expect("the encoder waits");
                        }
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    round += 1;
                }
            });
            wait_started.recv().expect("appender runs");
            let mut racing = BytesMut::new();
            snapshot::encode_db(&mut racing, &db, wm);
            assert!(racing == quiesced, "a racing append leaked in");
            stop.store(true, Ordering::SeqCst);
        });
        let mut after = BytesMut::new();
        snapshot::encode_db(&mut after, &db, Timestamp::MAX);
        assert!(after.len() > quiesced.len(), "the appender must have appended");
    }
}
