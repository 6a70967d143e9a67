//! Property-based cross-crate tests: arbitrary generated transaction
//! streams round-trip through the wire format and replay identically on
//! every engine.

use aets_suite::common::rng::{check, Rng};
use aets_suite::common::{
    ColumnId, DmlOp, FxHashMap, FxHashSet, Lsn, RowKey, TableId, Timestamp, TxnId, Value,
};
use aets_suite::memtable::MemDb;
use aets_suite::replay::{
    ingest_epoch, AetsConfig, AetsEngine, AtrEngine, C5Engine, IngestStats, ReplayEngine,
    RetryPolicy, SerialEngine, TableGrouping, VisibilityBoard,
};
use aets_suite::wal::{
    batch_into_epochs, encode_epoch, DmlEntry, FaultInjector, FaultKind, FaultPlan, TxnLog,
};

const TABLES: usize = 4;

/// An abstract op: (table, key, op-kind selector, value).
type AbstractOp = (u8, u8, u8, i64);

/// 1..`max_txns` transactions of 0..`max_ops` abstract ops each.
fn txn_ops(rng: &mut Rng, max_txns: u64, max_ops: u64) -> Vec<Vec<AbstractOp>> {
    let op = |rng: &mut Rng| {
        (rng.next_u64() as u8, rng.next_u64() as u8, rng.next_u64() as u8, rng.next_u64() as i64)
    };
    (0..1 + rng.below(max_txns - 1))
        .map(|_| (0..rng.below(max_ops)).map(|_| op(rng)).collect())
        .collect()
}

/// Materializes abstract ops into well-formed transactions: LSNs,
/// commit timestamps, and per-row RVIDs assigned consistently.
fn materialize(txn_ops: Vec<Vec<AbstractOp>>) -> Vec<TxnLog> {
    let mut lsn = 1u64;
    let mut rvids: FxHashMap<(TableId, RowKey), u64> = FxHashMap::default();
    let mut out = Vec::new();
    for (i, ops) in txn_ops.into_iter().enumerate() {
        let txn_id = TxnId::new(i as u64 + 1);
        let commit_ts = Timestamp::from_micros((i as u64 + 1) * 10);
        let entries: Vec<DmlEntry> = ops
            .into_iter()
            .map(|(t, k, op_sel, v)| {
                let table = TableId::new(t as u32 % TABLES as u32);
                let key = RowKey::new(k as u64 % 16);
                let op = match op_sel % 3 {
                    0 => DmlOp::Insert,
                    1 => DmlOp::Update,
                    _ => DmlOp::Delete,
                };
                let rv = rvids.entry((table, key)).or_insert(0);
                *rv += 1;
                let e = DmlEntry {
                    lsn: Lsn::new(lsn),
                    txn_id,
                    ts: commit_ts,
                    table,
                    op,
                    key,
                    row_version: *rv,
                    cols: if op == DmlOp::Delete {
                        vec![]
                    } else {
                        vec![(ColumnId::new(0), Value::Int(v))]
                    },
                    before: None,
                };
                lsn += 1;
                e
            })
            .collect();
        out.push(TxnLog { txn_id, commit_ts, entries });
    }
    out
}

#[test]
fn all_engines_agree_on_arbitrary_streams() {
    check("all_engines_agree_on_arbitrary_streams", 24, |rng| {
        let txn_ops = txn_ops(rng, 40, 6);
        let epoch_size = 1 + rng.below(19) as usize;
        let txns = materialize(txn_ops);
        let epochs: Vec<_> =
            batch_into_epochs(txns.clone(), epoch_size).unwrap().iter().map(encode_epoch).collect();

        let oracle = MemDb::new(TABLES);
        SerialEngine.replay_all(&epochs, &oracle).unwrap();
        let probes =
            [Timestamp::ZERO, Timestamp::from_micros(txns.len() as u64 * 5), Timestamp::MAX];
        let want: Vec<u64> = probes.iter().map(|ts| oracle.digest_at(*ts)).collect();

        let hot: FxHashSet<TableId> = [TableId::new(0), TableId::new(1)].into_iter().collect();
        let grouping = TableGrouping::new(
            TABLES,
            vec![
                vec![TableId::new(0), TableId::new(1)],
                vec![TableId::new(2)],
                vec![TableId::new(3)],
            ],
            vec![10.0, 1.0, 1.0],
            &hot,
        )
        .unwrap();

        let engines: Vec<Box<dyn ReplayEngine>> = vec![
            Box::new(
                AetsEngine::builder(grouping)
                    .config(AetsConfig { threads: 2, ..Default::default() })
                    .build()
                    .unwrap(),
            ),
            Box::new(AetsEngine::tplr_baseline(2, TABLES, &hot).unwrap()),
            Box::new(AtrEngine::new(2).unwrap()),
            Box::new(C5Engine::new(2).unwrap()),
        ];
        for engine in engines {
            let db = MemDb::new(TABLES);
            engine.replay_all(&epochs, &db).unwrap();
            assert!(db.all_chains_ordered(), "{} ordering", engine.name());
            for (ts, expect) in probes.iter().zip(&want) {
                assert_eq!(db.digest_at(*ts), *expect, "{} at {}", engine.name(), ts);
            }
        }
    });
}

#[test]
fn fault_injected_replay_recovers_to_oracle() {
    check("fault_injected_replay_recovers_to_oracle", 24, |rng| {
        let txn_ops = txn_ops(rng, 30, 5);
        let epoch_size = 1 + rng.below(9) as usize;
        let seed = rng.next_u64();
        // Any seeded schedule of *recoverable* faults (torn tails, bit
        // flips, duplicated/reordered/dropped epochs, stalls) over any
        // generated stream must, with enough retries of the feed's
        // resync loop, replay to exactly the fault-free serial oracle's
        // state — and leave no group quarantined.
        let txns = materialize(txn_ops);
        let epochs: Vec<_> =
            batch_into_epochs(txns, epoch_size).unwrap().iter().map(encode_epoch).collect();

        let oracle = MemDb::new(TABLES);
        SerialEngine.replay_all(&epochs, &oracle).unwrap();
        let want = oracle.digest_at(Timestamp::MAX);

        let hot: FxHashSet<TableId> = [TableId::new(0), TableId::new(1)].into_iter().collect();
        let grouping = TableGrouping::new(
            TABLES,
            vec![
                vec![TableId::new(0), TableId::new(1)],
                vec![TableId::new(2)],
                vec![TableId::new(3)],
            ],
            vec![10.0, 1.0, 1.0],
            &hot,
        )
        .unwrap();
        let eng = AetsEngine::builder(grouping)
            .config(AetsConfig { threads: 2, ..Default::default() })
            .build()
            .unwrap();
        let db = MemDb::new(TABLES);
        let board = VisibilityBoard::builder(eng.board_groups()).build();
        let kinds = vec![
            FaultKind::TornTail,
            FaultKind::BitFlip,
            FaultKind::Duplicate,
            FaultKind::Reorder,
            FaultKind::Drop,
            FaultKind::Stall,
        ];
        let n = epochs.len() as u64;
        let mut source = FaultInjector::new(epochs, FaultPlan::new(seed, 0.7, kinds));
        let retry = RetryPolicy { max_retries: 4, base_backoff_us: 1, max_backoff_us: 20 };
        let mut stats = IngestStats::default();
        let checked: Vec<_> = (0..n)
            .map(|seq| ingest_epoch(&mut source, seq, &retry, &mut stats).unwrap().into_inner())
            .collect();
        let m = eng.replay(&checked, &db, &board).unwrap();
        assert!(!m.degraded(), "recoverable faults must not quarantine");
        assert!(db.all_chains_ordered());
        assert_eq!(db.digest_at(Timestamp::MAX), want, "seed {}", seed);
    });
}

#[test]
fn wire_format_round_trips_arbitrary_epochs() {
    check("wire_format_round_trips_arbitrary_epochs", 24, |rng| {
        let txns = materialize(txn_ops(rng, 20, 5));
        let epochs = batch_into_epochs(txns.clone(), 8).unwrap();
        for epoch in &epochs {
            let encoded = encode_epoch(epoch);
            let records = aets_suite::wal::decode_batch(&encoded.bytes).unwrap();
            let back = aets_suite::wal::assemble_txns(&records).unwrap();
            assert_eq!(&back, &epoch.txns);
        }
    });
}
