//! Cross-crate integration: every parallel replay engine must converge to
//! exactly the serial oracle's MVCC state, on every workload, at every
//! snapshot.

use aets_suite::common::rng::check;
use aets_suite::common::{FxHashSet, GroupId, TableId, Timestamp};
use aets_suite::memtable::MemDb;
use aets_suite::replay::{
    AetsConfig, AetsEngine, AtrEngine, C5Engine, ReplayEngine, SerialEngine, TableGrouping,
    VisibilityBoard,
};
use aets_suite::wal::{batch_into_epochs, crc32, crc32_scalar, encode_epoch, EncodedEpoch};
use aets_suite::workloads::{bustracker, chbench, tpcc, Workload};
use std::sync::atomic::{AtomicBool, Ordering};

fn encode(w: &Workload, epoch_size: usize) -> Vec<EncodedEpoch> {
    batch_into_epochs(w.txns.clone(), epoch_size).unwrap().iter().map(encode_epoch).collect()
}

fn engines_for(w: &Workload) -> Vec<Box<dyn ReplayEngine>> {
    let n = w.num_tables();
    let hot = w.analytic_tables.clone();
    let written: FxHashSet<TableId> = w.written_tables();
    let per_table =
        TableGrouping::per_table(n, &hot, |t| if written.contains(&t) { 50.0 } else { 1.0 });
    vec![
        Box::new(
            AetsEngine::builder(per_table)
                .config(AetsConfig { threads: 3, ..Default::default() })
                .build()
                .unwrap(),
        ),
        Box::new(AetsEngine::tplr_baseline(3, n, &hot).unwrap()),
        Box::new(AtrEngine::new(3).unwrap()),
        Box::new(C5Engine::new(3).unwrap()),
    ]
}

fn check_workload(w: Workload, epoch_size: usize) {
    let epochs = encode(&w, epoch_size);
    let n = w.num_tables();
    let oracle = MemDb::new(n);
    SerialEngine.replay_all(&epochs, &oracle).unwrap();

    // Snapshot timestamps to compare: start, several interior, end.
    let probes: Vec<Timestamp> = {
        let mut v = vec![Timestamp::ZERO, Timestamp::MAX];
        for frac in [4usize, 2, 4 * 3 / 4] {
            let idx = (w.txns.len() / 4 * frac / 4).min(w.txns.len() - 1);
            v.push(w.txns[idx].commit_ts);
        }
        v
    };
    let want: Vec<u64> = probes.iter().map(|ts| oracle.digest_at(*ts)).collect();

    for engine in engines_for(&w) {
        let db = MemDb::new(n);
        let m = engine.replay_all(&epochs, &db).unwrap();
        assert_eq!(m.txns, w.txns.len(), "{} txn count", engine.name());
        assert!(db.all_chains_ordered(), "{} version order", engine.name());
        assert_eq!(db.total_versions(), oracle.total_versions(), "{} version count", engine.name());
        for (ts, expect) in probes.iter().zip(&want) {
            assert_eq!(db.digest_at(*ts), *expect, "{} snapshot at {ts} diverged", engine.name());
        }
    }
}

#[test]
fn tpcc_all_engines_match_oracle() {
    let w =
        tpcc::generate(&tpcc::TpccConfig { num_txns: 2_000, warehouses: 2, ..Default::default() });
    check_workload(w, 512);
}

#[test]
fn bustracker_all_engines_match_oracle() {
    let w = bustracker::generate(&bustracker::BusTrackerConfig {
        num_txns: 2_000,
        ..Default::default()
    });
    check_workload(w, 256);
}

#[test]
fn chbench_all_engines_match_oracle() {
    let w = chbench::generate(&tpcc::TpccConfig {
        num_txns: 2_000,
        warehouses: 2,
        ..Default::default()
    });
    check_workload(w, 700); // deliberately not a power of two
}

#[test]
fn tiny_epochs_still_converge() {
    let w =
        tpcc::generate(&tpcc::TpccConfig { num_txns: 300, warehouses: 2, ..Default::default() });
    check_workload(w, 7);
}

/// The pipelined datapath (crew members dispatching and translating the
/// next epoch ahead, what a whole-stream call gets) must be invisible in
/// the MVCC state: it converges to the serial oracle on both TPC-C and
/// BusTracker streams, at the end and at a mid-stream snapshot.
#[test]
fn pipelined_aets_matches_oracle_on_tpcc_and_bustracker() {
    let workloads = [
        tpcc::generate(&tpcc::TpccConfig { num_txns: 1_200, warehouses: 2, ..Default::default() }),
        bustracker::generate(&bustracker::BusTrackerConfig {
            num_txns: 1_200,
            ..Default::default()
        }),
    ];
    for w in workloads {
        let epochs = encode(&w, 200);
        let n = w.num_tables();
        let oracle = MemDb::new(n);
        SerialEngine.replay_all(&epochs, &oracle).unwrap();
        let want = oracle.digest_at(Timestamp::MAX);
        let mid = w.txns[w.txns.len() / 2].commit_ts;
        let want_mid = oracle.digest_at(mid);

        let written: FxHashSet<TableId> = w.written_tables();
        let grouping = TableGrouping::per_table(n, &w.analytic_tables, |t| {
            if written.contains(&t) {
                50.0
            } else {
                1.0
            }
        });
        let eng = AetsEngine::builder(grouping)
            .config(AetsConfig { threads: 3, ..Default::default() })
            .build()
            .unwrap();
        let db = MemDb::new(n);
        let m = eng.replay_all(&epochs, &db).unwrap();
        assert_eq!(m.txns, w.txns.len(), "txn count");
        assert!(db.all_chains_ordered(), "version order");
        assert_eq!(db.digest_at(Timestamp::MAX), want, "final state");
        assert_eq!(db.digest_at(mid), want_mid, "mid snapshot");
    }
}

/// Replay-crew stress: the stage barrier and the chunk hand-off under
/// contention. One seeded BusTracker stream cut into thousands of tiny
/// epochs is driven through every crew shape — `threads` 1, 2, 3 and 8
/// (more than the cores), one group / one group per table / DBSCAN
/// groups, one stage or two — in seed-derived slices of one (inline
/// dispatch) to a few dozen (look-ahead) epochs per `replay` call,
/// with a seed-derived `SetThreadSplit` (slots of 0..=4, so some groups
/// are split and hand off chunks) landing between calls. Every stage
/// opens and closes the crew's gate, so a helper that ran a stale stage,
/// a group applied twice, a chunk committed out of order or a lost
/// wake-up shows up as a wrong digest, a disordered chain, a watermark
/// that moved backwards, or the watchdog. The schedule is pinned by a
/// seed so a CI failure replays exactly; override with
/// `AETS_SEED=<u64>`.
#[test]
fn replay_crew_barrier_and_chunk_handoff_stress() {
    use aets_suite::common::rng::Rng;
    use aets_suite::replay::Reconfigure;
    let seed = aets_suite::seeds(&[0x5E1F])[0];

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let w = bustracker::generate(&bustracker::BusTrackerConfig {
            seed,
            num_txns: 4_800,
            ..Default::default()
        });
        // Mostly one- and two-transaction epochs, and a few of 40 so a
        // split group has more than one chunk to hand off.
        let epochs: Vec<EncodedEpoch> = {
            let mut rng = Rng::new(seed);
            let mut out = Vec::new();
            let mut txns = w.txns.iter().cloned();
            loop {
                let draw = rng.next_u64();
                let size = if draw.is_multiple_of(64) { 40 } else { 1 + (draw % 2) as usize };
                let batch: Vec<_> = txns.by_ref().take(size).collect();
                if batch.is_empty() {
                    break;
                }
                let id = aets_suite::common::EpochId::new(out.len() as u64);
                out.push(encode_epoch(&aets_suite::wal::Epoch { id, txns: batch }));
            }
            out
        };
        assert!(epochs.len() > 1_500, "thousands of tiny epochs, got {}", epochs.len());
        let n = w.num_tables();
        let oracle = MemDb::new(n);
        SerialEngine.replay_all(&epochs, &oracle).unwrap();
        let want = oracle.digest_at(Timestamp::MAX);
        let mid = w.txns[w.txns.len() / 2].commit_ts;
        let want_mid = oracle.digest_at(mid);

        let slots = bustracker::BusTrackerConfig::default().slots;
        let mean_rate = |t: TableId| {
            (0..slots).map(|s| bustracker::access_rate(t.index(), s)).sum::<f64>() / slots as f64
        };
        let groupings = [
            ("single", TableGrouping::single(n, &w.analytic_tables)),
            ("per-table", TableGrouping::per_table(n, &w.analytic_tables, mean_rate)),
            ("dbscan", TableGrouping::dbscan(n, &w.analytic_tables, mean_rate, 0.5).unwrap()),
        ];
        let mut rng = Rng::new(seed ^ 0xC4E3);
        for (gname, grouping) in &groupings {
            for threads in [1usize, 2, 3, 8] {
                for two_stage in [false, true] {
                    let tag = format!(
                        "seed={seed:#x} grouping={gname} threads={threads} two_stage={two_stage}"
                    );
                    let eng = AetsEngine::builder(grouping.clone())
                        .config(AetsConfig { threads, two_stage, ..Default::default() })
                        .build()
                        .unwrap();
                    let ng = grouping.num_groups();
                    let db = MemDb::new(n);
                    let board = VisibilityBoard::builder(ng).build();
                    let stop = AtomicBool::new(false);
                    let violation = std::thread::scope(|scope| {
                        let observer = scope.spawn(|| watch_watermarks(&board, &stop));
                        let mut txns = 0;
                        let mut at = 0;
                        while at < epochs.len() {
                            let draw = rng.next_u64();
                            if draw.is_multiple_of(3) {
                                let split = (0..ng).map(|_| rng.below(5) as usize).collect();
                                eng.reconfigure_handle()
                                    .send(Reconfigure::SetThreadSplit(split))
                                    .unwrap();
                            }
                            let len = 1 + (draw >> 8) as usize % 48;
                            let slice = &epochs[at..epochs.len().min(at + len)];
                            txns += eng.replay(slice, &db, &board).unwrap().txns;
                            at += slice.len();
                        }
                        stop.store(true, Ordering::Release);
                        assert_eq!(txns, w.txns.len(), "{tag}: txn count");
                        observer.join().expect("observer panicked")
                    });
                    assert!(violation.is_none(), "{tag}: {}", violation.unwrap_or_default());
                    assert!(db.all_chains_ordered(), "{tag}: version order");
                    assert_eq!(db.digest_at(Timestamp::MAX), want, "{tag}: final state");
                    assert_eq!(db.digest_at(mid), want_mid, "{tag}: mid snapshot");
                    let last = epochs.last().unwrap().max_commit_ts;
                    assert_eq!(board.global_cmt_ts(), last, "{tag}: global watermark");
                }
            }
        }
        done_tx.send(()).unwrap();
    });
    // A lost wake-up must fail, not hang: the whole matrix takes well
    // under a minute, so ten is a hung crew.
    done_rx
        .recv_timeout(std::time::Duration::from_secs(600))
        .unwrap_or_else(|e| panic!("seed={seed:#x}: crew stress did not finish: {e}"));
}

/// Look-ahead under live reconfiguration: one whole-stream call at
/// `threads` 2 and 3, and, from another thread once the global watermark
/// has passed epoch 2, a `Regroup` that moves a written cold table into a
/// hot group, plus a `SetThreadSplit`. The crew member that dispatches the
/// first epoch under the new grouping does so in the cold stage of the
/// epoch before, which still commits that table under the old one, and
/// goes on to translate the moved table's entries ahead in the hot group.
/// Phase 1 only resolves nodes, so the state must still be the serial
/// oracle's.
#[test]
fn look_ahead_under_a_live_regroup_matches_oracle() {
    use aets_suite::replay::Reconfigure;
    let w = bustracker::generate(&bustracker::BusTrackerConfig {
        num_txns: 24_000,
        ..Default::default()
    });
    let epochs = encode(&w, 200);
    let n = w.num_tables();
    let oracle = MemDb::new(n);
    SerialEngine.replay_all(&epochs, &oracle).unwrap();
    let mid = w.txns[w.txns.len() / 2].commit_ts;

    let slots = bustracker::BusTrackerConfig::default().slots;
    let mean_rate = |t: TableId| {
        (0..slots).map(|s| bustracker::access_rate(t.index(), s)).sum::<f64>() / slots as f64
    };
    let grouping = TableGrouping::dbscan(n, &w.analytic_tables, mean_rate, 0.5).unwrap();
    let ng = grouping.num_groups();
    // The most-written cold table moves into the hot group with the most
    // entries, whose chunks a crew member looking ahead translates first.
    let writes =
        |t: TableId| w.txns.iter().flat_map(|x| &x.entries).filter(|e| e.table == t).count();
    let load = |g: GroupId| grouping.members(g).iter().map(|&t| writes(t)).sum::<usize>();
    let hot = grouping.hot_groups().into_iter().max_by_key(|&g| load(g)).unwrap();
    let cold = grouping.cold_groups()[0];
    let moved = grouping.members(cold).iter().copied().max_by_key(|&t| writes(t)).unwrap();
    let groups: Vec<Vec<TableId>> = (0..ng as u32)
        .map(GroupId::new)
        .map(|g| {
            let mut members: Vec<TableId> =
                grouping.members(g).iter().copied().filter(|&t| t != moved).collect();
            if g == hot {
                members.push(moved);
            }
            members
        })
        .collect();
    let rates = (0..ng as u32).map(|g| grouping.rate(GroupId::new(g))).collect();
    let regrouped = TableGrouping::new(n, groups, rates, &w.analytic_tables).unwrap();
    assert_eq!(regrouped.group_of(moved), hot);

    for threads in [2usize, 3] {
        let eng = AetsEngine::builder(grouping.clone())
            .config(AetsConfig { threads, ..Default::default() })
            .build()
            .unwrap();
        let db = MemDb::new(n);
        let board = VisibilityBoard::builder(ng).build();
        let handle = eng.reconfigure_handle();
        let m = std::thread::scope(|scope| {
            scope.spawn(|| {
                while board.global_cmt_ts() < epochs[2].max_commit_ts {
                    std::thread::yield_now();
                }
                handle.send(Reconfigure::Regroup(regrouped.clone())).unwrap();
                handle.send(Reconfigure::SetThreadSplit((0..ng).map(|g| g % 3).collect())).unwrap();
            });
            eng.replay(&epochs, &db, &board).unwrap()
        });
        assert_eq!(m.regroups_applied, 1, "threads={threads}: the regroup landed mid-call");
        assert_eq!(m.resplits_applied, 1, "threads={threads}");
        assert_eq!(eng.grouping().group_of(moved), hot);
        assert!(db.all_chains_ordered(), "threads={threads}: version order");
        for ts in [Timestamp::MAX, mid] {
            assert_eq!(db.digest_at(ts), oracle.digest_at(ts), "threads={threads} at {ts}");
        }
    }
}

/// Samples `board` until `stop`: every watermark only ever advances, and
/// no group is seen behind the global one (the global mark only moves
/// once an epoch is fully replayed). Reading the global mark *before*
/// the group marks makes the check race-free. Returns the first
/// violation.
fn watch_watermarks(board: &VisibilityBoard, stop: &AtomicBool) -> Option<String> {
    let mut last_global = Timestamp::ZERO;
    let mut last_tg = vec![Timestamp::ZERO; board.num_groups()];
    while !stop.load(Ordering::Acquire) {
        let global = board.global_cmt_ts();
        if global < last_global {
            return Some(format!("global regressed: {last_global} -> {global}"));
        }
        last_global = global;
        for (g, last) in last_tg.iter_mut().enumerate() {
            let tg = board.tg_cmt_ts(GroupId::new(g as u32));
            if tg < *last || tg < global {
                return Some(format!("group {g}: {last} -> {tg}, global {global}"));
            }
            *last = tg;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    None
}

/// Round-robins `n` tables into `k` groups with synthetic rates.
fn round_robin_grouping(n: usize, k: usize, hot: &FxHashSet<TableId>) -> TableGrouping {
    let mut groups: Vec<Vec<TableId>> = vec![Vec::new(); k];
    for t in 0..n as u32 {
        groups[t as usize % k].push(TableId::new(t));
    }
    let rates: Vec<f64> = (0..k).map(|i| 1.0 + i as f64).collect();
    TableGrouping::new(n, groups, rates, hot).unwrap()
}

/// The CRC kernel on the ingest hot path (the carry-less-multiply fold or
/// slice-by-8, whichever `crc32` dispatches to) must be a drop-in for the
/// bytewise reference: identical digests on arbitrary byte strings,
/// including lengths that leave a non-8-aligned head/tail.
#[test]
fn crc_slice_by_8_matches_bytewise_reference() {
    check("crc_slice_by_8_matches_bytewise_reference", 64, |rng| {
        let bytes: Vec<u8> = (0..rng.below(4096)).map(|_| rng.next_u64() as u8).collect();
        assert_eq!(crc32(&bytes), crc32_scalar(&bytes));
    });
}

/// Deterministic CRC edge cases the property test could miss in a short run:
/// empty input, every sub-word length straddling the 8-byte step, and
/// misaligned views into a larger buffer.
#[test]
fn crc_kernels_agree_on_empty_and_unaligned_inputs() {
    assert_eq!(crc32(&[]), crc32_scalar(&[]));
    let buf: Vec<u8> = (0..257u32).map(|i| (i.wrapping_mul(131).wrapping_add(7)) as u8).collect();
    for len in 0..=buf.len() {
        assert_eq!(crc32(&buf[..len]), crc32_scalar(&buf[..len]), "prefix len {len}");
    }
    for start in 1..16 {
        let view = &buf[start..];
        assert_eq!(crc32(view), crc32_scalar(view), "offset {start}");
    }
}

/// Epoch-barrier invariant under randomized epoch sizes and group
/// counts: while replay runs, `global_cmt_ts`
/// and every `tg_cmt_ts` only ever advance, and no group's published
/// watermark drops below the global one — the global mark only moves
/// once an epoch is fully replayed, so a group observed behind it
/// would mean epoch `e+1` work committed before epoch `e` finished.
#[test]
fn epoch_barrier_holds_under_randomized_shapes() {
    check("epoch_barrier_holds_under_randomized_shapes", 12, |rng| {
        let num_txns = 50 + rng.below(200) as usize;
        let epoch_size = 1 + rng.below(63) as usize;
        let num_groups = 1 + rng.below(4) as usize;
        let w = tpcc::generate(&tpcc::TpccConfig { num_txns, warehouses: 2, ..Default::default() });
        let epochs = encode(&w, epoch_size);
        let n = w.num_tables();
        let grouping = round_robin_grouping(n, num_groups.min(n), &w.analytic_tables);
        let ng = grouping.num_groups();
        let eng = AetsEngine::builder(grouping)
            .config(AetsConfig { threads: 2, ..Default::default() })
            .build()
            .unwrap();

        let db = MemDb::new(n);
        let board = VisibilityBoard::builder(ng).build();
        let stop = AtomicBool::new(false);
        let violation = std::thread::scope(|scope| {
            // Concurrent observer: samples the board while replay runs.
            // Reading the global mark *before* the group marks makes the
            // barrier check race-free — both only ever advance, so a
            // stale group read can only over-report lag, never hide it.
            let observer = scope.spawn(|| {
                let mut last_global = Timestamp::ZERO;
                let mut last_tg = vec![Timestamp::ZERO; ng];
                while !stop.load(Ordering::Acquire) {
                    let global = board.global_cmt_ts();
                    if global < last_global {
                        return Some(format!("global regressed: {last_global} -> {global}"));
                    }
                    last_global = global;
                    for g in 0..ng as u32 {
                        let tg = board.tg_cmt_ts(GroupId::new(g));
                        if tg < last_tg[g as usize] {
                            return Some(format!("group {g} regressed"));
                        }
                        last_tg[g as usize] = tg;
                        if tg < global {
                            return Some(format!(
                                "barrier violated: group {g} at {tg} behind global {global}"
                            ));
                        }
                    }
                    std::thread::yield_now();
                }
                None
            });
            let m = eng.replay(&epochs, &db, &board).unwrap();
            stop.store(true, Ordering::Release);
            assert_eq!(m.txns, w.txns.len());
            observer.join().expect("observer panicked")
        });
        assert!(violation.is_none(), "{}", violation.unwrap_or_default());

        // After replay every watermark sits at the last epoch's high-water
        // mark, and the state matches the serial oracle.
        let last = epochs.last().unwrap().max_commit_ts;
        assert_eq!(board.global_cmt_ts(), last);
        for g in 0..ng as u32 {
            assert!(board.tg_cmt_ts(GroupId::new(g)) >= last);
        }
        let oracle = MemDb::new(n);
        SerialEngine.replay_all(&epochs, &oracle).unwrap();
        assert!(db.all_chains_ordered());
        assert_eq!(db.digest_at(Timestamp::MAX), oracle.digest_at(Timestamp::MAX));
    });
}
