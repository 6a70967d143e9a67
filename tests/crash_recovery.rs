//! Crash-consistency integration tests: the durable WAL segment store,
//! epoch-aligned checkpoints, and restart recovery, driven end to end by
//! deterministic crash injection.
//!
//! The contract under test: for ANY seeded crash schedule — killing the
//! metered process mid-segment-write, mid-checkpoint, or mid-recovery —
//! a supervised sequence of restarts converges to exactly the state the
//! fault-free serial oracle produces, and each restart re-replays only
//! the WAL suffix past the newest durable checkpoint (never the full
//! history).
//!
//! The `crash_mid_segment_write` / `crash_mid_checkpoint` /
//! `stale_manifest_falls_back` tests double as the CI crash-matrix
//! entries (see `.github/workflows/ci.yml`).

use aets_suite::common::rng::{check, Rng};
use aets_suite::common::Timestamp;
use aets_suite::memtable::MemDb;
use aets_suite::replay::{
    AetsConfig, AetsEngine, DurableBackup, DurableOptions, ReplayEngine, SerialEngine,
    TableGrouping,
};
use aets_suite::telemetry::{names, Telemetry};
use aets_suite::wal::{
    batch_into_epochs, encode_epoch, CrashClock, EncodedEpoch, FsyncPolicy, SegmentConfig,
    VerifiedEpoch,
};
use aets_suite::workloads::{bustracker, tpcc, Workload};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

struct Fixture {
    epochs: Vec<EncodedEpoch>,
    num_tables: usize,
    grouping: TableGrouping,
    oracle_digest: u64,
}

fn build_fixture(w: Workload, epoch_size: usize) -> Fixture {
    let epochs: Vec<EncodedEpoch> =
        batch_into_epochs(w.txns.clone(), epoch_size).unwrap().iter().map(encode_epoch).collect();
    let num_tables = w.num_tables();
    let hot = w.analytic_tables.clone();
    let written = w.written_tables();
    let grouping =
        TableGrouping::per_table(
            num_tables,
            &hot,
            |t| {
                if written.contains(&t) {
                    50.0
                } else {
                    1.0
                }
            },
        );
    let oracle = MemDb::new(num_tables);
    SerialEngine.replay_all(&epochs, &oracle).unwrap();
    let oracle_digest = oracle.digest_at(Timestamp::MAX);
    Fixture { epochs, num_tables, grouping, oracle_digest }
}

fn tpcc_fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        build_fixture(
            tpcc::generate(&tpcc::TpccConfig {
                num_txns: 600,
                warehouses: 2,
                ..Default::default()
            }),
            48,
        )
    })
}

fn bustracker_fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        build_fixture(
            bustracker::generate(&bustracker::BusTrackerConfig {
                num_txns: 600,
                ..Default::default()
            }),
            48,
        )
    })
}

/// `e` with its CRC proof, as the feed hands epochs to `ingest`.
fn checked(e: &EncodedEpoch) -> VerifiedEpoch {
    VerifiedEpoch::new(e.clone()).unwrap()
}

fn fresh_engine(grouping: &TableGrouping) -> AetsEngine {
    AetsEngine::builder(grouping.clone())
        .config(AetsConfig { threads: 2, ..Default::default() })
        .build()
        .unwrap()
}

fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("aets-crash-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_opts() -> DurableOptions {
    DurableOptions {
        checkpoint_every: 3,
        keep_checkpoints: 2,
        segment: SegmentConfig { epochs_per_segment: 2, ..Default::default() },
        gc_before_checkpoint: true,
        ..Default::default()
    }
}

/// Group-commit variant: one fsync covers up to four frames, so acked
/// epochs past [`aets_suite::replay::DurableBackup::wal_synced_seq`] may
/// be lost to a crash and re-ingested on resync.
fn coalesced_opts() -> DurableOptions {
    DurableOptions {
        segment: SegmentConfig {
            epochs_per_segment: 4,
            fsync: FsyncPolicy::Coalesced { max_frames: 4, max_wait: Duration::from_secs(3600) },
        },
        ..durable_opts()
    }
}

// ---------------------------------------------------------------------
// The supervised crash-restart harness
// ---------------------------------------------------------------------

struct SupervisedOutcome {
    digest: u64,
    restarts: u64,
    /// Longest WAL suffix any single recovery had to re-replay.
    max_suffix: u64,
}

/// Runs the full epoch stream through a [`DurableBackup`], killing the
/// metered process after `schedule[i]` filesystem operations in life `i`
/// and restarting it from disk, until the stream completes (lives past
/// the schedule run unmetered). Asserts after every restart that
/// recovery resumed at or after the newest checkpoint known durable
/// before the crash — i.e. only the log suffix is ever re-replayed.
fn supervised_run(
    fx: &Fixture,
    opts: &DurableOptions,
    wal_dir: &Path,
    ckpt_dir: &Path,
    schedule: &[u64],
) -> SupervisedOutcome {
    let mut life = 0usize;
    let mut restarts = 0u64;
    let mut max_suffix = 0u64;
    // Newest checkpoint seq whose write was acked before any crash.
    let mut known_ckpt = 0u64;
    // Highest WAL sequence known fsync-covered before any crash: the
    // crash-loss bound under a coalescing fsync policy.
    let mut known_synced: Option<u64> = None;
    loop {
        let clock = schedule.get(life).map(|b| CrashClock::with_budget(*b));
        life += 1;
        let mut node = match DurableBackup::open(
            wal_dir,
            ckpt_dir,
            fresh_engine(&fx.grouping),
            fx.num_tables,
            opts.clone(),
            clock,
        ) {
            Ok(n) => n,
            Err(e) if e.is_crash() => {
                restarts += 1;
                continue; // crashed mid-recovery: restart again
            }
            Err(e) => panic!("recovery failed with a non-crash error: {e}"),
        };
        let rec = node.recovery();
        match rec.restored_seq {
            Some(r) => assert!(
                r >= known_ckpt,
                "life {life}: restored from epoch {r} although checkpoint \
                 {known_ckpt} was durable — recovery went further back than \
                 the log suffix"
            ),
            None => assert_eq!(
                known_ckpt, 0,
                "life {life}: durable checkpoint {known_ckpt} was not found"
            ),
        }
        max_suffix = max_suffix.max(rec.suffix_epochs);
        if let Some(synced) = known_synced {
            assert!(
                node.next_seq() > synced,
                "life {life}: epoch {synced} was fsync-covered before the \
                 crash but recovery resumed at {} — a torn batch truncated \
                 below the durable prefix",
                node.next_seq()
            );
        }

        let mut crashed = false;
        while (node.next_seq() as usize) < fx.epochs.len() {
            let e = &fx.epochs[node.next_seq() as usize];
            match node.ingest(&checked(e)) {
                Ok(()) => {
                    known_ckpt = known_ckpt.max(node.last_checkpoint_seq());
                    known_synced = known_synced.max(node.wal_synced_seq());
                }
                Err(err) if err.is_crash() => {
                    restarts += 1;
                    crashed = true;
                    break;
                }
                Err(err) => panic!("ingest failed with a non-crash error: {err}"),
            }
        }
        if !crashed {
            return SupervisedOutcome {
                digest: node.db().digest_at(Timestamp::MAX),
                restarts,
                max_suffix,
            };
        }
    }
}

fn run_schedule(fx: &Fixture, schedule: &[u64], tag: &str) -> SupervisedOutcome {
    run_schedule_opts(fx, &durable_opts(), schedule, tag)
}

fn run_schedule_opts(
    fx: &Fixture,
    opts: &DurableOptions,
    schedule: &[u64],
    tag: &str,
) -> SupervisedOutcome {
    let wal_dir = scratch(&format!("{tag}-wal"));
    let ckpt_dir = scratch(&format!("{tag}-ckpt"));
    let out = supervised_run(fx, opts, &wal_dir, &ckpt_dir, schedule);
    assert_eq!(
        out.digest, fx.oracle_digest,
        "{tag}: recovered digest diverged from the fault-free serial oracle \
         (schedule {schedule:?}, {} restarts)",
        out.restarts
    );
    assert!(
        out.max_suffix <= opts.checkpoint_every,
        "{tag}: a recovery replayed {} epochs, more than the checkpoint \
         cadence of {} — restart cost is not bounded by the cadence",
        out.max_suffix,
        opts.checkpoint_every
    );
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    out
}

// ---------------------------------------------------------------------
// Property: any crash schedule converges to the oracle
// ---------------------------------------------------------------------

/// Up to `max_crashes` (at least one) crash budgets of 1..300
/// filesystem operations each.
fn crash_schedule(rng: &mut Rng, max_crashes: u64) -> Vec<u64> {
    (0..1 + rng.below(max_crashes)).map(|_| 1 + rng.below(299)).collect()
}

/// TPC-C: crash after an arbitrary number of filesystem operations,
/// up to three times in a row (including crashes during the recovery
/// of a previous crash), then finish. The recovered digest must equal
/// the fault-free oracle digest, and no recovery may replay more than
/// the post-checkpoint suffix.
#[test]
fn tpcc_any_crash_schedule_converges() {
    check("tpcc_any_crash_schedule_converges", 12, |rng| {
        let schedule = crash_schedule(rng, 3);
        // A budget larger than the run's total op count simply completes
        // without crashing, so `restarts <= schedule.len()` rather than
        // strictly equal.
        let out = run_schedule(tpcc_fixture(), &schedule, "prop-tpcc");
        assert!(out.restarts as usize <= schedule.len());
    });
}

/// BusTracker: same contract on the second headline workload.
#[test]
fn bustracker_any_crash_schedule_converges() {
    check("bustracker_any_crash_schedule_converges", 12, |rng| {
        run_schedule(bustracker_fixture(), &crash_schedule(rng, 2), "prop-bus");
    });
}

// ---------------------------------------------------------------------
// Pinned crash points (CI crash-matrix seeds)
// ---------------------------------------------------------------------

/// Crash-matrix seed 1: the crash instant lands inside the very first
/// WAL frame write — the torn tail must be discarded on reopen and the
/// epoch re-ingested.
#[test]
fn crash_mid_segment_write() {
    let fx = tpcc_fixture();
    // First append charges: create segment, segment header write, frame
    // write, fsync. Budget 3 tears the first frame write itself.
    let out = run_schedule(fx, &[3], "mid-segment");
    assert_eq!(out.restarts, 1);
}

/// Crash-matrix seed 2: the crash instant lands inside the checkpoint
/// write (torn manifest tmp / missed rename). Recovery must either see
/// the completed checkpoint or cleanly fall back to the state before it
/// — never a half-visible manifest.
#[test]
fn crash_mid_checkpoint() {
    let fx = tpcc_fixture();
    // Probe one unmetered life to find the operation window of the first
    // checkpoint (cadence 3): record the op counter as each ingest
    // completes; the first ingest that advances `last_checkpoint_seq`
    // contains the checkpoint's five operations at its end.
    let (before, after) = {
        let wal_dir = scratch("probe-wal");
        let ckpt_dir = scratch("probe-ckpt");
        let clock = CrashClock::unlimited();
        let mut node = DurableBackup::open(
            &wal_dir,
            &ckpt_dir,
            fresh_engine(&fx.grouping),
            fx.num_tables,
            durable_opts(),
            Some(clock.clone()),
        )
        .unwrap();
        let mut window = None;
        for e in &fx.epochs {
            let pre = clock.used();
            node.ingest(&checked(e)).unwrap();
            if node.last_checkpoint_seq() > 0 {
                window = Some((pre, clock.used()));
                break;
            }
        }
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        window.expect("cadence must cut a checkpoint")
    };
    // Crash at every op inside the triggering ingest — WAL append ops
    // first, then the checkpoint's create-tmp / write / fsync / rename /
    // dir-fsync. Every cut must recover to the oracle.
    for budget in before + 1..=after {
        let out = run_schedule(fx, &[budget], "mid-checkpoint");
        assert_eq!(out.restarts, 1, "budget {budget} must crash exactly once");
    }
}

/// Crash-matrix seed 3: the newest manifest is corrupted on disk (torn
/// by a storage fault after the fact). Recovery must fall back to the
/// older retained checkpoint and re-replay the longer WAL suffix.
#[test]
fn stale_manifest_falls_back() {
    let fx = tpcc_fixture();
    let wal_dir = scratch("stale-wal");
    let ckpt_dir = scratch("stale-ckpt");
    let opts = durable_opts();
    // Durability counters live only in the registry, so both lives run
    // an engine that reports into one.
    let instrumented = |tel: &Arc<Telemetry>| {
        AetsEngine::builder(fx.grouping.clone())
            .config(AetsConfig { threads: 2, ..Default::default() })
            .telemetry(tel.clone())
            .build()
            .unwrap()
    };
    {
        let tel = Arc::new(Telemetry::new());
        let mut node = DurableBackup::open(
            &wal_dir,
            &ckpt_dir,
            instrumented(&tel),
            fx.num_tables,
            opts.clone(),
            None,
        )
        .unwrap();
        for e in &fx.epochs {
            node.ingest(&checked(e)).unwrap();
        }
        assert_eq!(
            tel.snapshot().counter_total(names::CHECKPOINTS_WRITTEN),
            fx.epochs.len() as u64 / opts.checkpoint_every,
            "one checkpoint per full cadence"
        );
        assert_eq!(node.db().digest_at(Timestamp::MAX), fx.oracle_digest);
    }
    // Corrupt the newest manifest's body.
    let mut manifests: Vec<PathBuf> = std::fs::read_dir(&ckpt_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "ack"))
        .collect();
    manifests.sort();
    assert!(manifests.len() >= 2, "retention must keep two manifests");
    let newest = manifests.last().unwrap();
    let mut raw = std::fs::read(newest).unwrap();
    let mid = raw.len() / 2;
    raw[mid] ^= 0x20;
    std::fs::write(newest, &raw).unwrap();

    let tel = Arc::new(Telemetry::new());
    let node =
        DurableBackup::open(&wal_dir, &ckpt_dir, instrumented(&tel), fx.num_tables, opts, None)
            .unwrap();
    let rec = node.recovery();
    assert_eq!(rec.manifest_fallbacks, 1, "the corrupt newest manifest must be skipped");
    let restored = rec.restored_seq.expect("older manifest must load");
    let snap = tel.snapshot();
    assert_eq!(snap.counter_total(names::MANIFEST_FALLBACKS), 1);
    assert_eq!(
        snap.counter_total(names::RECOVERY_SUFFIX_EPOCHS),
        fx.epochs.len() as u64 - restored,
        "the registry counts the replayed suffix"
    );
    assert!(restored < fx.epochs.len() as u64, "fallback restores an older barrier");
    assert!(
        rec.suffix_epochs > 0,
        "the longer suffix past the older checkpoint must be re-replayed"
    );
    assert_eq!(
        node.db().digest_at(Timestamp::MAX),
        fx.oracle_digest,
        "fallback recovery must still converge to the oracle"
    );
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

/// Crash-matrix seed 4 (group commit): under `FsyncPolicy::Coalesced`
/// an acked append is no longer durable — only the fsync-covered prefix
/// is. Crash at every filesystem operation of a short run and require,
/// at every cut: (1) recovery never resumes below the fsync-covered
/// bound (asserted inside the harness via `wal_synced_seq`), (2) a torn
/// coalesced batch truncates to the last fully-written frame — no
/// half-frame is ever replayed, because the recovered digest still
/// converges to the fault-free oracle after the lost tail re-ingests.
#[test]
fn coalesced_group_commit_crash_sweep() {
    let fx = tpcc_fixture();
    let opts = coalesced_opts();
    // Probe the total op count of a clean metered run over a short
    // prefix of the stream.
    let total = {
        let wal_dir = scratch("coalesced-probe-wal");
        let ckpt_dir = scratch("coalesced-probe-ckpt");
        let clock = CrashClock::unlimited();
        let mut node = DurableBackup::open(
            &wal_dir,
            &ckpt_dir,
            fresh_engine(&fx.grouping),
            fx.num_tables,
            opts.clone(),
            Some(clock.clone()),
        )
        .unwrap();
        for e in &fx.epochs[..6.min(fx.epochs.len())] {
            node.ingest(&checked(e)).unwrap();
        }
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        clock.used()
    };
    for budget in 1..=total {
        let out = run_schedule_opts(fx, &opts, &[budget], "coalesced");
        assert!(out.restarts <= 1);
    }
}

/// Group commit under arbitrary multi-crash schedules (including crashes
/// during the recovery of a previous crash): same convergence contract
/// as the default-policy property above.
#[test]
fn coalesced_multi_crash_schedules_converge() {
    let fx = tpcc_fixture();
    let opts = coalesced_opts();
    for schedule in [&[7u64, 5][..], &[23, 11, 3], &[64, 64], &[150, 2, 90]] {
        run_schedule_opts(fx, &opts, schedule, "coalesced-multi");
    }
}

/// Dense sweep on a short stream: crash at EVERY filesystem operation of
/// the whole run, one life each, and require oracle convergence every
/// time. This is the exhaustive version of the sampled property above.
#[test]
fn every_single_crash_point_converges() {
    let fx = tpcc_fixture();
    // Probe the total op count of a clean metered run.
    let total = {
        let wal_dir = scratch("dense-probe-wal");
        let ckpt_dir = scratch("dense-probe-ckpt");
        let clock = CrashClock::unlimited();
        let mut node = DurableBackup::open(
            &wal_dir,
            &ckpt_dir,
            fresh_engine(&fx.grouping),
            fx.num_tables,
            durable_opts(),
            Some(clock.clone()),
        )
        .unwrap();
        for e in &fx.epochs[..6.min(fx.epochs.len())] {
            node.ingest(&checked(e)).unwrap();
        }
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        clock.used()
    };
    for budget in 1..=total {
        run_schedule(fx, &[budget], "dense");
    }
}

// ---------------------------------------------------------------------
// The fence: a WAL frame that fails while its epoch replays
// ---------------------------------------------------------------------

/// The WAL writer appends an epoch's frame while the crew replays it, so
/// a frame write or fsync that fails leaves memory ahead of the log. The
/// call returns the crash; every later `ingest` and `checkpoint_now`
/// returns the fence; and a reopen recovers exactly the serial oracle's
/// state at the sequence it resumes from.
#[test]
fn a_failed_wal_write_or_fsync_fences_the_backup_until_reopen() {
    let fx = tpcc_fixture();
    // No checkpoint and no segment roll: the victim's ingest charges
    // exactly its frame write, then its fsync.
    let opts = DurableOptions {
        checkpoint_every: 0,
        segment: SegmentConfig { epochs_per_segment: 64, ..Default::default() },
        ..Default::default()
    };
    let victim = fx.epochs.len() / 2;
    let open = |wal_dir: &Path, ckpt_dir: &Path, clock| {
        DurableBackup::open(
            wal_dir,
            ckpt_dir,
            fresh_engine(&fx.grouping),
            fx.num_tables,
            opts.clone(),
            clock,
        )
        .unwrap()
    };
    // A probe life counts the operations charged before the victim.
    let before = {
        let (wal_dir, ckpt_dir) = (scratch("fence-probe-wal"), scratch("fence-probe-ckpt"));
        let clock = CrashClock::unlimited();
        let mut node = open(&wal_dir, &ckpt_dir, Some(clock.clone()));
        for e in &fx.epochs[..victim] {
            node.ingest(&checked(e)).unwrap();
        }
        let before = clock.used();
        node.ingest(&checked(&fx.epochs[victim])).unwrap();
        assert_eq!(clock.used() - before, 2, "the victim charges its frame write and its fsync");
        drop(node);
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        before
    };
    // A torn frame write is truncated on reopen; a frame written whole
    // before its fsync failed is on disk and replays.
    for (what, budget, resumes) in
        [("frame write", before + 1, victim), ("fsync", before + 2, victim + 1)]
    {
        let (wal_dir, ckpt_dir) = (scratch("fence-wal"), scratch("fence-ckpt"));
        let mut node = open(&wal_dir, &ckpt_dir, Some(CrashClock::with_budget(budget)));
        for e in &fx.epochs[..victim] {
            node.ingest(&checked(e)).unwrap();
        }
        let err = node.ingest(&checked(&fx.epochs[victim])).unwrap_err();
        assert!(err.is_crash(), "{what}: {err}");
        assert_eq!(
            node.board().global_cmt_ts(),
            fx.epochs[victim].max_commit_ts,
            "{what}: the crew replayed the epoch whose frame failed"
        );
        let fence = node.ingest(&checked(&fx.epochs[victim + 1])).unwrap_err();
        assert!(!fence.is_crash() && fence.to_string().contains("fenced"), "{what}: {fence}");
        assert_eq!(node.checkpoint_now().unwrap_err(), fence, "{what}");
        assert_eq!(node.ingest(&checked(&fx.epochs[victim])).unwrap_err(), fence, "{what}");
        drop(node);

        let node = open(&wal_dir, &ckpt_dir, None);
        assert_eq!(node.next_seq() as usize, resumes, "{what}");
        let oracle = MemDb::new(fx.num_tables);
        SerialEngine.replay_all(&fx.epochs[..resumes], &oracle).unwrap();
        assert_eq!(
            node.db().digest_at(Timestamp::MAX),
            oracle.digest_at(Timestamp::MAX),
            "{what}: reopen recovers the serial oracle at epoch {resumes}"
        );
        drop(node);
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }
}

// ---------------------------------------------------------------------
// Property: quarantine freezes WAL retention, across reopen
// ---------------------------------------------------------------------

/// Poisons the first epoch at index >= `from` that carries a DML of
/// `victim`: one record byte flipped, frame CRC re-stamped so the
/// corruption is only detected at replay time (record CRC), which
/// quarantines the victim's group. Returns the poisoned index.
fn poison_victim_epoch(
    epochs: &mut [EncodedEpoch],
    victim: aets_suite::common::TableId,
    from: usize,
) -> Option<usize> {
    let (eidx, poisoned) = (from..epochs.len())
        .find_map(|i| Some((i, aets_suite::wal::faults::corrupt_record_of(&epochs[i], victim)?)))?;
    epochs[eidx] = poisoned;
    Some(eidx)
}

/// The retention invariant under quarantine: the WAL's first retained
/// epoch never passes the oldest manifest (recovery's fallback anchor),
/// and while any group is quarantined neither the oldest manifest nor
/// the retention point moves at all — the frozen group's unreplayed
/// suffix must survive until the quarantine clears.
fn assert_retention_frozen(
    node: &DurableBackup,
    frozen: &mut Option<(Option<u64>, Option<u64>)>,
    ctx: &str,
) {
    let first = node.wal_first_retained_seq();
    let oldest = node.oldest_checkpoint_seq().unwrap();
    if let (Some(f), Some(o)) = (first, oldest) {
        assert!(f <= o, "{ctx}: WAL first retained {f} passed the oldest manifest {o}");
    }
    if node.board().any_quarantined() {
        match frozen {
            None => *frozen = Some((first, oldest)),
            Some(state) => {
                assert_eq!(
                    (first, oldest),
                    *state,
                    "{ctx}: retention state moved while quarantined"
                );
            }
        }
    }
}

/// For any poison position, checkpoint cadence, and reopen point
/// past the quarantine: no WAL segment is ever retired past the
/// oldest manifest, and retention is completely frozen from the
/// quarantine instant on — including across a crash/reopen, whose
/// suffix replay re-poisons the fresh engine and must re-freeze
/// before the overdue-checkpoint path can truncate anything.
#[test]
fn quarantine_never_outruns_wal_retention() {
    check("quarantine_never_outruns_wal_retention", 10, |rng| {
        let poison_frac = rng.uniform(0.1, 0.8);
        let cadence = 2 + rng.below(3);
        let reopen_gap = 1 + rng.below(5) as usize;
        let fx = tpcc_fixture();
        let mut epochs = fx.epochs.clone();
        let victim = aets_suite::common::TableId::new((fx.num_tables - 1) as u32);
        let from = (epochs.len() as f64 * poison_frac) as usize;
        let Some(eidx) = poison_victim_epoch(&mut epochs, victim, from) else {
            // No epoch at or past `from` touches the victim: vacuous case.
            return;
        };
        let wal_dir = scratch("quar-prop-wal");
        let ckpt_dir = scratch("quar-prop-ckpt");
        let opts = DurableOptions { checkpoint_every: cadence, ..durable_opts() };

        let mut node = DurableBackup::open(
            &wal_dir,
            &ckpt_dir,
            fresh_engine(&fx.grouping),
            fx.num_tables,
            opts.clone(),
            None,
        )
        .unwrap();
        let mut frozen = None;
        let stop = (eidx + reopen_gap).min(epochs.len());
        for e in &epochs[..stop] {
            node.ingest(&checked(e)).unwrap();
            assert_retention_frozen(&node, &mut frozen, "first life");
        }
        assert!(node.board().any_quarantined(), "poisoned epoch must quarantine");
        assert!(frozen.is_some());

        // Crash: drop the node, reopen on the same directories. The WAL
        // suffix includes the poisoned epoch, so recovery re-quarantines
        // and the frozen retention state must carry over unchanged.
        drop(node);
        let mut node = DurableBackup::open(
            &wal_dir,
            &ckpt_dir,
            fresh_engine(&fx.grouping),
            fx.num_tables,
            opts,
            None,
        )
        .unwrap();
        assert!(
            node.board().any_quarantined(),
            "reopen replayed the poisoned suffix and must re-quarantine"
        );
        assert_retention_frozen(&node, &mut frozen, "reopen");
        for e in &epochs[stop..] {
            node.ingest(&checked(e)).unwrap();
            assert_retention_frozen(&node, &mut frozen, "second life");
        }
        // The frozen suffix is still fully covered: recovery from the
        // oldest manifest (or epoch 0) can reach every epoch the
        // quarantined group has not replayed.
        if let Some(f) = node.wal_first_retained_seq() {
            assert!(f <= eidx as u64, "poisoned epoch {eidx} fell off the WAL ({f})");
        }
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    });
}
