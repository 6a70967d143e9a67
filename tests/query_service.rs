//! Multi-reader stress test for the query-serving `BackupNode`: N client
//! threads open pinned read sessions against a node that is *live
//! replaying* a paced TPC-C stream with GC enabled, and every successful
//! result must equal a serial snapshot oracle at the same `qts` — for
//! sessions opened before their snapshot is visible (they park on
//! Algorithm 3), for sessions racing GC passes, and across a quarantine
//! event (where refusal with `degraded` is the only acceptable failure).
//!
//! Seeds are pinned for CI (`query-stress` in `.github/workflows/ci.yml`);
//! set `AETS_SEED` to replay a single seed.

use aets_suite::common::{ColumnId, Error, TableId, Timestamp};
use aets_suite::memtable::{Aggregate, MemDb, Scan};
use aets_suite::replay::{
    AetsConfig, AetsEngine, BackupNode, NodeOptions, QueryOutput, QuerySpec, ReplayEngine,
    SerialEngine, TableGrouping,
};
use aets_suite::telemetry::{names, Telemetry};
use aets_suite::wal::faults::corrupt_record_of;
use aets_suite::wal::{batch_into_epochs, encode_epoch, EncodedEpoch};
use aets_suite::workloads::tpcc::{self, TpccConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 6;
const ITERS: usize = 10;

fn seeds() -> Vec<u64> {
    aets_suite::seeds(&[0x5EED_0001, 0x5EED_0002])
}

/// xorshift64* — deterministic per-seed query mix.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The serial-oracle answer for `spec` at `qts`.
fn oracle_answer(oracle: &MemDb, spec: &QuerySpec, qts: Timestamp) -> QueryOutput {
    let mut scan = Scan::at(qts);
    if let Some((lo, hi)) = spec.key_range {
        scan = scan.keys(lo, hi);
    }
    let table = oracle.table(spec.table);
    match &spec.output {
        aets_suite::replay::OutputKind::Rows => QueryOutput::Rows(scan.collect(table)),
        aets_suite::replay::OutputKind::Count => QueryOutput::Count(scan.count(table)),
        aets_suite::replay::OutputKind::AggregateCol { column, agg } => {
            QueryOutput::Aggregate(scan.aggregate(table, *column, *agg))
        }
    }
}

/// One full stress run. When `poison` is set, an epoch two thirds into
/// the stream carries unrecoverable corruption for the highest-numbered
/// table, so its group quarantines mid-run with its watermark frozen.
fn run_stress(seed: u64, poison: bool) {
    let w = tpcc::generate(&TpccConfig {
        num_txns: 2_500,
        warehouses: 2,
        oltp_tps: 20_000.0,
        ..Default::default()
    });
    let n = w.num_tables();
    let clean: Vec<EncodedEpoch> =
        batch_into_epochs(w.txns.clone(), 128).unwrap().iter().map(encode_epoch).collect();
    assert!(clean.len() >= 9, "stress run needs a real stream");

    // The oracle replays the CLEAN stream serially with no GC: a
    // quarantined group freezes *before* applying any poisoned state, so
    // every admitted read — on healthy or frozen groups — must equal the
    // clean serial snapshot at its qts.
    let oracle = MemDb::new(n);
    SerialEngine.replay_all(&clean, &oracle).unwrap();

    let victim = TableId::new((n - 1) as u32);
    let (epochs, poison_idx) = if poison {
        let (idx, poisoned) = (clean.len() * 2 / 3..clean.len())
            .find_map(|i| Some((i, corrupt_record_of(&clean[i], victim)?)))
            .expect("late epoch touches the victim table");
        let mut e = clean.clone();
        e[idx] = poisoned;
        (e, idx)
    } else {
        (clean.clone(), usize::MAX)
    };

    let (groups, rates) = tpcc::paper_grouping();
    let grouping = TableGrouping::new(n, groups, rates, &w.analytic_tables).unwrap();
    let victim_gid = grouping.group_of(victim);
    let tel = Arc::new(Telemetry::new());
    let engine = AetsEngine::builder(grouping.clone())
        .config(AetsConfig { threads: 2, ..Default::default() })
        .telemetry(tel.clone())
        .build()
        .unwrap();
    let node = BackupNode::builder()
        .engine(Arc::new(engine))
        .num_tables(n)
        .options(NodeOptions {
            query_workers: 4,
            queue_depth: 64,
            default_timeout: Duration::from_secs(20),
            ..Default::default()
        })
        .build()
        .unwrap();

    // Tables a client may query without touching the victim's group.
    let healthy_tables: Vec<TableId> =
        (0..n as u32).map(TableId::new).filter(|t| grouping.group_of(*t) != victim_gid).collect();

    // Clients replay snapshots as old as epoch ANCHOR long after later
    // epochs land, so a session pinned at that watermark must hold the GC
    // floor for the whole run — GC passes still prune everything below it.
    const ANCHOR: usize = 1;
    let anchor = node.open_session(epochs[ANCHOR].max_commit_ts, &[]);

    let served = AtomicUsize::new(0);
    let degraded = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        // Feeder: replay one epoch at a time with GC every 4 epochs,
        // pacing just enough that early clients open pre-visibility
        // sessions against later epochs.
        let feeder = scope.spawn(|| {
            for (i, e) in epochs.iter().enumerate() {
                node.replay(std::slice::from_ref(e)).unwrap();
                if (i + 1) % 4 == 0 {
                    node.gc();
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        });

        let mut clients = Vec::new();
        for c in 0..CLIENTS {
            let mut rng = Rng(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(c as u64 + 1)));
            let (node, oracle) = (&node, &oracle);
            let (epochs, healthy_tables) = (&epochs, &healthy_tables);
            let (served, degraded) = (&served, &degraded);
            clients.push(scope.spawn(move || {
                for _ in 0..ITERS {
                    // In a poison run, only victim-group queries may use
                    // post-quarantine snapshots (they must be refused);
                    // healthy-group queries stick to qts the frozen global
                    // watermark still covers, so they always admit.
                    let pick_victim = poison && rng.below(4) == 0;
                    let (table, eidx) = if pick_victim {
                        (victim, ANCHOR + rng.below(epochs.len() - ANCHOR))
                    } else {
                        let bound = if poison { poison_idx } else { epochs.len() };
                        (
                            healthy_tables[rng.below(healthy_tables.len())],
                            ANCHOR + rng.below(bound - ANCHOR),
                        )
                    };
                    let qts = epochs[eidx].max_commit_ts;
                    let spec = match rng.below(3) {
                        0 => QuerySpec::count(table),
                        1 => QuerySpec::aggregate(table, ColumnId::new(rng.below(4) as u16), {
                            [Aggregate::Sum, Aggregate::Min, Aggregate::Max, Aggregate::Avg]
                                [rng.below(4)]
                        }),
                        _ => QuerySpec::rows(table).keys(
                            aets_suite::common::RowKey::new(0),
                            aets_suite::common::RowKey::new(rng.next() % 512),
                        ),
                    };
                    let session = node.open_session(qts, &[table]);
                    match session.query(spec.clone()) {
                        Ok(out) => {
                            assert_eq!(
                                out,
                                oracle_answer(oracle, &spec, qts),
                                "seed {seed}: live result diverged from the serial \
                                 oracle (table {table}, qts {qts}, epoch {eidx})"
                            );
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(Error::Degraded) => {
                            assert!(
                                poison && table == victim && eidx >= poison_idx,
                                "seed {seed}: spurious degraded refusal \
                                 (table {table}, epoch {eidx}, poison at {poison_idx})"
                            );
                            degraded.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("seed {seed}: unexpected query error {e}"),
                    }
                }
            }));
        }
        for c in clients {
            c.join().unwrap();
        }
        feeder.join().unwrap();
    });
    assert_eq!(node.floor().floor(), epochs[ANCHOR].max_commit_ts, "anchor still pins the floor");
    drop(anchor);

    let total = CLIENTS * ITERS;
    assert_eq!(served.load(Ordering::Relaxed) + degraded.load(Ordering::Relaxed), total);
    if poison {
        assert!(node.is_degraded(), "the poisoned group must quarantine");
        // Deterministic spot checks, independent of the random mix: a
        // post-quarantine snapshot on the victim group is refused fast, a
        // pre-quarantine one still serves and matches the oracle.
        let refused = node.open_session(epochs.last().unwrap().max_commit_ts, &[victim]);
        assert_eq!(refused.query(QuerySpec::count(victim)).unwrap_err(), Error::Degraded);
        let early_qts = epochs[ANCHOR].max_commit_ts;
        let frozen = node.open_session(early_qts, &[victim]);
        assert_eq!(
            frozen.query(QuerySpec::count(victim)).unwrap(),
            oracle_answer(&oracle, &QuerySpec::count(victim), early_qts),
            "frozen group must still serve snapshots its watermark covers"
        );
    } else {
        assert_eq!(degraded.load(Ordering::Relaxed), 0);
        assert_eq!(served.load(Ordering::Relaxed), total, "healthy run serves everything");
        assert!(!node.is_degraded());
    }

    // The instrumentation saw the whole run: every session was closed
    // (RAII floor release), GC passes ran against live readers.
    let snap = tel.snapshot();
    assert!(snap.counter_total(names::SESSIONS_OPENED) >= total as u64);
    assert_eq!(
        snap.counter_total(names::SESSIONS_OPENED),
        snap.counter_total(names::SESSIONS_CLOSED)
    );
    assert_eq!(snap.gauge(names::SESSIONS_ACTIVE, ""), Some(0));
    assert_eq!(snap.gauge(names::QUERIES_INFLIGHT, ""), Some(0));
    assert!(snap.counter_total(names::GC_PASSES) > 0, "GC must have run against live readers");
    assert!(node.floor().floor() == Timestamp::MAX, "all floor pins released");
}

#[test]
fn multi_reader_stress_matches_serial_oracle() {
    for seed in seeds() {
        run_stress(seed, false);
    }
}

#[test]
fn multi_reader_stress_across_quarantine() {
    for seed in seeds() {
        run_stress(seed, true);
    }
}
