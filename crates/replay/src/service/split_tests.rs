//! Split scans: a scan over a large key range runs as key-range parts on
//! idle query workers, and its answer is the serial oracle's exactly.

use super::*;
use crate::engines::aets::{AetsConfig, AetsEngine};
use crate::engines::serial::SerialEngine;
use crate::grouping::TableGrouping;
use crate::target::eval_spec;
use aets_common::rng::Rng;
use aets_common::{ColumnId, DmlOp, FxHashSet, Lsn, TxnId, Value};
use aets_memtable::{CmpOp, OpType, Version, MIN_CUT_LEN};
use aets_wal::{batch_into_epochs, encode_epoch, DmlEntry, TxnLog};

const T: TableId = TableId::new(0);
const AMOUNT: ColumnId = ColumnId::new(0);
const GROUP: ColumnId = ColumnId::new(1);
/// Keys the preload inserts: comfortably past the cut threshold.
const KEYS: u64 = 2 * MIN_CUT_LEN as u64 + 7_000;

/// A value whose magnitude varies over 20 decades, so a left fold's
/// rounding depends on the order it sees the values in.
fn amount(rng: &mut Rng) -> Value {
    Value::Float((rng.unit() - 0.5) * 10f64.powi(rng.below(20) as i32 - 8))
}

/// One table: a preload inserting keys `0..KEYS`, then 120 epochs of
/// updates, deletes and fresh inserts.
fn stream(seed: u64) -> Vec<EncodedEpoch> {
    let mut rng = Rng::new(seed);
    let mut versions = vec![0u64; KEYS as usize];
    let mut txns = Vec::new();
    let mut lsn = 0;
    let mut txn = |txns: &mut Vec<TxnLog>, ops: Vec<(DmlOp, u64, u64, Row)>| {
        let id = txns.len() as u64 + 1;
        let ts = Timestamp::from_micros(id * 10);
        let entries = ops
            .into_iter()
            .map(|(op, key, row_version, cols)| {
                lsn += 1;
                DmlEntry {
                    lsn: Lsn::new(lsn),
                    txn_id: TxnId::new(id),
                    ts,
                    table: T,
                    op,
                    key: RowKey::new(key),
                    row_version,
                    cols,
                    before: None,
                }
            })
            .collect();
        txns.push(TxnLog { txn_id: TxnId::new(id), commit_ts: ts, entries });
    };
    for chunk in (0..KEYS).collect::<Vec<_>>().chunks(1_000) {
        let ops = chunk
            .iter()
            .map(|&k| {
                versions[k as usize] = 1;
                let cols = vec![(AMOUNT, amount(&mut rng)), (GROUP, Value::Int(k as i64 % 10))];
                (DmlOp::Insert, k, 1, cols)
            })
            .collect();
        txn(&mut txns, ops);
    }
    let mut next_key = KEYS;
    for _ in 0..600 {
        let mut ops = Vec::new();
        for _ in 0..20 {
            let k = rng.below(KEYS);
            let v = &mut versions[k as usize];
            if *v == 0 {
                continue;
            }
            *v += 1;
            match rng.below(10) {
                0 => {
                    ops.push((DmlOp::Delete, k, *v, vec![]));
                    *v = 0;
                }
                1 => ops.push((DmlOp::Update, k, *v, vec![(GROUP, Value::Int(-1))])),
                _ => ops.push((DmlOp::Update, k, *v, vec![(AMOUNT, amount(&mut rng))])),
            }
        }
        let cols = vec![(AMOUNT, amount(&mut rng)), (GROUP, Value::Int(3))];
        ops.push((DmlOp::Insert, next_key, 1, cols));
        next_key += 1;
        txn(&mut txns, ops);
    }
    let preload = (KEYS / 1_000) as usize;
    let mut epochs = batch_into_epochs(txns[..preload].to_vec(), preload).unwrap();
    epochs.extend(batch_into_epochs(txns[preload..].to_vec(), 5).unwrap());
    epochs.iter().map(encode_epoch).collect()
}

fn node(workers: usize, degree: usize) -> BackupNode {
    let hot: FxHashSet<TableId> = FxHashSet::default();
    let engine = AetsEngine::builder(TableGrouping::single(1, &hot))
        .config(AetsConfig { threads: 1, ..Default::default() })
        .telemetry(Arc::new(Telemetry::new()))
        .build()
        .unwrap();
    BackupNode::builder()
        .engine(Arc::new(engine))
        .num_tables(1)
        .options(NodeOptions { query_workers: workers, ..Default::default() })
        .split_degree(degree)
        .build()
        .unwrap()
}

/// `(helper, owner)` parts run so far.
fn parts(node: &BackupNode) -> (u64, u64) {
    let snap = node.telemetry().snapshot();
    let ran_by = |who| snap.counter(names::QUERY_SCAN_PARTS, who).unwrap_or(0);
    (ran_by("ran_by=\"helper\""), ran_by("ran_by=\"owner\""))
}

/// Every output kind, whole and over a key range, unfiltered and
/// filtered; each big enough to split.
fn big_specs() -> Vec<QuerySpec> {
    let kinds = [Aggregate::Sum, Aggregate::Avg, Aggregate::Min, Aggregate::Max]
        .map(|agg| QuerySpec::aggregate(T, AMOUNT, agg));
    let whole: Vec<QuerySpec> =
        [QuerySpec::rows(T), QuerySpec::count(T)].into_iter().chain(kinds).collect();
    let grouped = Filter { column: GROUP, op: CmpOp::Ge, value: Value::Int(2) };
    let small = Filter { column: AMOUNT, op: CmpOp::Lt, value: Value::Float(0.25) };
    let ranged = |s: &QuerySpec| s.clone().keys(RowKey::new(1_000), RowKey::new(KEYS - 500));
    let mut specs = whole.clone();
    specs.extend(whole.iter().map(ranged));
    specs.extend(whole.iter().map(|s| s.clone().filter(grouped.clone())));
    specs.extend(whole.iter().map(|s| ranged(s).filter(small.clone())));
    specs
}

/// The tentpole check: served while a feeder replays and GC runs, every
/// split answer equals the serial oracle's, bit for bit, and idle
/// workers ran parts.
#[test]
fn split_answers_equal_the_serial_oracle_under_replay_and_gc() {
    let epochs = stream(0x5EED_5011);
    let oracle = MemDb::new(1);
    SerialEngine.replay_all(&epochs, &oracle).unwrap();
    let node = node(3, 3);
    let specs = big_specs();
    let queries = 3 * specs.len();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for (i, e) in epochs.iter().enumerate() {
                node.replay(std::slice::from_ref(e)).unwrap();
                if i % 8 == 0 {
                    node.gc();
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        // Snapshots move forward through the stream, each session opened
        // before the one before it closes: GC prunes up to the oldest
        // open snapshot and never past it. Sessions ahead of the feeder
        // park until their epoch lands.
        let mut held = node.open_session(epochs[0].max_commit_ts, &[]);
        for (i, spec) in specs.iter().cycle().take(queries).enumerate() {
            let qts = epochs[i * epochs.len() / queries].max_commit_ts;
            let session = node.open_session(qts, &[T]);
            let got = session.query(spec.clone()).unwrap();
            assert_eq!(got, eval_spec(&oracle, spec, qts), "spec {i} {spec:?} at {qts}");
            held = session;
        }
        drop(held);
    });
    assert!(node.telemetry().snapshot().counter_total(names::GC_PRUNED) > 0, "GC pruned nothing");
    let (helper, owner) = parts(&node);
    assert!(helper > 0, "no idle worker ran a part ({helper}, {owner})");
    assert_eq!((helper + owner) % 3, 0, "each query splits into three parts");
    assert!(helper + owner >= 3 * 3 * specs.len() as u64);
}

/// Rows committed straight into the node's table at `ts`, and visible.
fn loaded(workers: usize, degree: usize, n: u64) -> BackupNode {
    let node = node(workers, degree);
    let t = node.db().table(T);
    for k in 0..n {
        let cols = vec![(AMOUNT, Value::Float(k as f64 / 3.0)), (GROUP, Value::Int(k as i64))];
        let v = Version {
            txn_id: TxnId::new(k + 1),
            commit_ts: Timestamp::from_micros(50),
            op: OpType::Insert,
            cols,
        };
        t.apply_version(RowKey::new(k), v);
    }
    node.board().publish_global(Timestamp::from_micros(50));
    node
}

fn check(node: &BackupNode, spec: QuerySpec) -> QueryOutput {
    let qts = Timestamp::from_micros(50);
    let got = node.open_session(qts, &[T]).query(spec.clone()).unwrap();
    assert_eq!(got, eval_spec(node.db(), &spec, qts), "{spec:?}");
    got
}

#[test]
fn one_worker_owner_runs_every_part() {
    let node = loaded(1, 4, KEYS);
    check(&node, QuerySpec::aggregate(T, AMOUNT, Aggregate::Avg));
    assert_eq!(parts(&node), (0, 4));
}

#[test]
fn all_workers_busy_runs_the_query_on_its_owner() {
    let node = loaded(2, 2, KEYS);
    // One worker parks on a snapshot that is not visible yet.
    let later = node.open_session(Timestamp::from_micros(90), &[T]);
    let parked = later.submit(QuerySpec::count(T)).unwrap();
    let t0 = Instant::now();
    while node.telemetry().snapshot().gauge(names::QUERY_QUEUE_DEPTH, "") != Some(0) {
        assert!(t0.elapsed() < Duration::from_secs(10), "the parked query was never taken");
        std::thread::sleep(Duration::from_millis(1));
    }
    check(&node, QuerySpec::aggregate(T, AMOUNT, Aggregate::Sum));
    assert_eq!(parts(&node), (0, 2), "no worker was idle to help");
    node.board().publish_global(Timestamp::from_micros(90));
    assert_eq!(parked.wait().unwrap(), QueryOutput::Count(KEYS as usize));
}

#[test]
fn bounded_ranges_never_split() {
    let node = loaded(2, 2, KEYS);
    for lo in [0, 5_000, KEYS - 1_024] {
        check(&node, QuerySpec::count(T).keys(RowKey::new(lo), RowKey::new(lo + 1_023)));
        check(
            &node,
            QuerySpec::aggregate(T, AMOUNT, Aggregate::Sum)
                .keys(RowKey::new(lo), RowKey::new(lo + 1_023)),
        );
    }
    assert_eq!(parts(&node), (0, 0));
    check(&node, QuerySpec::count(T));
    assert_eq!(parts(&node).0 + parts(&node).1, 2, "the whole table does split");
}

/// A deadline or a cancel that lands while parts run ends the query
/// with that error; the pool serves on.
#[test]
fn deadline_and_cancel_stop_running_parts() {
    let node = loaded(2, 2, 4 * KEYS);
    let qts = Timestamp::from_micros(50);
    let session = node.open_session(qts, &[T]);
    let mut timed_out = false;
    for _ in 0..20 {
        let before = parts(&node);
        match session.query(QuerySpec::rows(T).timeout(Duration::from_millis(1))) {
            Err(Error::QueryTimeout) if parts(&node) != before => {
                timed_out = true;
                break;
            }
            Err(Error::QueryTimeout) => {}
            other => panic!("a 1 ms deadline over {} rows answered {other:?}", 4 * KEYS),
        }
    }
    assert!(timed_out, "no deadline landed while parts ran");
    let mut cancelled = false;
    for _ in 0..20 {
        let before = parts(&node);
        let handle = session.submit(QuerySpec::rows(T)).unwrap();
        while parts(&node) == before {
            std::thread::yield_now();
        }
        handle.cancel();
        match handle.wait() {
            Err(Error::Cancelled) => {
                cancelled = true;
                break;
            }
            Ok(rows) => assert_eq!(rows, eval_spec(node.db(), &QuerySpec::rows(T), qts)),
            Err(e) => panic!("cancel answered {e}"),
        }
    }
    assert!(cancelled, "no cancel landed while parts ran");
    drop(session);
    check(&node, QuerySpec::aggregate(T, AMOUNT, Aggregate::Max));
}

/// Part 1 of a split scan at this snapshot panics.
pub(super) const PANIC_AT: Timestamp = Timestamp::from_micros(4_242_424);

#[test]
fn a_panicking_part_is_the_query_error_and_the_workers_survive() {
    let node = loaded(2, 2, KEYS);
    node.board().publish_global(PANIC_AT);
    for _ in 0..3 {
        let err = node.open_session(PANIC_AT, &[T]).query(QuerySpec::count(T)).unwrap_err();
        assert!(matches!(&err, Error::Replay(m) if m.contains("panicked")), "{err}");
    }
    // Both workers still serve, and still help.
    for _ in 0..20 {
        check(&node, QuerySpec::aggregate(T, AMOUNT, Aggregate::Min));
        if parts(&node).0 > 1 {
            return;
        }
    }
    panic!("no worker helped after the panics: {:?}", parts(&node));
}

/// Dropping the node while a split query's parts are queued or running
/// neither hangs nor loses the answer.
#[test]
fn dropping_the_node_with_parts_queued_does_not_hang() {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for _ in 0..10 {
            let node = loaded(3, 3, KEYS);
            let session = node.open_session(Timestamp::from_micros(50), &[T]);
            let handles: Vec<_> =
                (0..3).map(|_| session.submit(QuerySpec::count(T)).unwrap()).collect();
            drop(session);
            drop(node);
            for h in handles {
                match h.wait() {
                    Ok(out) => assert_eq!(out, QueryOutput::Count(KEYS as usize)),
                    Err(e) => assert_eq!(e, Error::Cancelled),
                }
            }
        }
        tx.send(()).unwrap();
    });
    rx.recv_timeout(Duration::from_secs(120)).expect("dropping a node with parts queued hung");
}
