//! Thread hygiene of the replay crew and the durable backup's WAL
//! writer. In a file of their own on purpose: they count the threads of
//! the whole process, and `cargo test` gives every integration-test file
//! a process of its own. The tests take one lock, so nothing else in the
//! process starts or stops a thread while one counts.

use aets_suite::common::sync::lock;
use aets_suite::memtable::MemDb;
use aets_suite::replay::{
    AetsConfig, AetsEngine, DurableBackup, DurableOptions, ReplayEngine, TableGrouping,
    VisibilityBoard,
};
use aets_suite::wal::{batch_into_epochs, encode_epoch, VerifiedEpoch};
use aets_suite::workloads::tpcc::{self, TpccConfig};
use std::sync::Mutex;

/// Held for the whole of each test: one counts at a time.
static COUNTING: Mutex<()> = Mutex::new(());

/// `Threads:` of `/proc/self/status`.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("Threads:")).expect("Threads: line");
    line["Threads:".len()..].trim().parse().expect("thread count")
}

#[test]
fn replay_starts_no_thread_after_the_first_call_and_drop_joins_the_crew() {
    let _counting = lock(&COUNTING);
    if !std::path::Path::new("/proc/self/status").exists() {
        return; // not Linux: nothing to count with
    }
    let w = tpcc::generate(&TpccConfig { num_txns: 1_200, warehouses: 1, ..Default::default() });
    let epochs: Vec<_> = batch_into_epochs(w.txns.clone(), 12)
        .expect("epoch size")
        .iter()
        .map(encode_epoch)
        .collect();
    assert!(epochs.len() >= 100);
    let (groups, rates) = tpcc::paper_grouping();
    let grouping =
        TableGrouping::new(w.num_tables(), groups, rates, &w.analytic_tables).expect("grouping");

    let before = process_threads();
    let engine = AetsEngine::builder(grouping)
        .config(AetsConfig { threads: 4, ..Default::default() })
        .build()
        .expect("valid config");
    assert_eq!(
        process_threads(),
        before + 3,
        "the crew is `threads - 1` helpers, started at build"
    );

    // One call per epoch — what the durable backup, the runner and the
    // fleet make: inline dispatch, so no thread starts at all.
    let db = MemDb::new(w.num_tables());
    let board = VisibilityBoard::builder(engine.board_groups()).build();
    engine.replay(&epochs[..1], &db, &board).expect("replay");
    let after_first = process_threads();
    assert_eq!(after_first, before + 3);
    for e in &epochs[1..] {
        engine.replay(std::slice::from_ref(e), &db, &board).expect("replay");
        assert_eq!(process_threads(), after_first, "epoch {}: a thread started or died", e.id);
    }
    // A multi-epoch call dispatches the next epoch on the crew member its
    // last stage leaves idle: it starts no thread either.
    let db = MemDb::new(w.num_tables());
    engine.replay_all(&epochs, &db).expect("replay");
    assert_eq!(process_threads(), after_first, "a multi-epoch call started a thread");

    drop(engine);
    assert_eq!(process_threads(), before, "dropping the engine joins every helper");
}

#[test]
fn a_durable_backup_starts_one_wal_writer_at_open_and_drop_joins_it() {
    let _counting = lock(&COUNTING);
    if !std::path::Path::new("/proc/self/status").exists() {
        return; // not Linux: nothing to count with
    }
    let w = tpcc::generate(&TpccConfig { num_txns: 1_200, warehouses: 1, ..Default::default() });
    let epochs: Vec<_> = batch_into_epochs(w.txns.clone(), 24)
        .expect("epoch size")
        .iter()
        .map(|e| VerifiedEpoch::new(encode_epoch(e)).expect("a fresh epoch checks"))
        .collect();
    assert!(epochs.len() >= 40);
    let (groups, rates) = tpcc::paper_grouping();
    let grouping =
        TableGrouping::new(w.num_tables(), groups, rates, &w.analytic_tables).expect("grouping");
    let dir = std::env::temp_dir().join(format!("aets-hygiene-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let before = process_threads();
    let engine = AetsEngine::builder(grouping)
        .config(AetsConfig { threads: 2, ..Default::default() })
        .build()
        .expect("valid config");
    let crew = process_threads();
    assert_eq!(crew, before + 1, "the crew is `threads - 1` helpers, started at build");
    let mut backup = DurableBackup::open(
        dir.join("wal"),
        dir.join("ckpt"),
        engine,
        w.num_tables(),
        DurableOptions { checkpoint_every: 16, ..Default::default() },
        None,
    )
    .expect("open");
    assert_eq!(process_threads(), crew + 1, "open starts the WAL writer and nothing else");
    // Forty epochs, two checkpoints among them: the append, the replay
    // and the checkpoint walk start no thread.
    for e in &epochs[..40] {
        backup.ingest(e).expect("ingest");
        assert_eq!(process_threads(), crew + 1, "epoch {}: a thread started or died", e.id);
    }
    drop(backup);
    assert_eq!(process_threads(), before, "dropping the backup joins the writer and the crew");
    let _ = std::fs::remove_dir_all(&dir);
}
