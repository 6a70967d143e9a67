//! Input generation: everything the program under test receives is made
//! here from `--seed` — the encoded epoch stream, the query stream, and
//! the serial-oracle state the outputs are checked against.

use aets_common::{splitmix64, RowKey, TableId, Timestamp};
use aets_memtable::MemDb;
use aets_replay::{AetsConfig, AetsEngine, QuerySpec, ReplayEngine, SerialEngine, TableGrouping};
use aets_wal::{batch_into_epochs, encode_epoch, EncodedEpoch, ReplicationTimeline};
use aets_workloads::tpcc::TpccConfig;
use aets_workloads::{bustracker, chbench, QueryInstance, Workload};
use std::time::Instant;

/// Replay worker threads of every engine the benchmark builds.
pub const ENGINE_THREADS: usize = 2;
/// Transactions per epoch.
pub const EPOCH_TXNS: usize = 256;
/// Rows one bounded-range spec covers at most.
const RANGE_ROWS: usize = 1024;
/// Distinct probe queries generated per stream.
const NUM_PROBES: u32 = 512;

/// One analytical query: a snapshot timestamp, its table footprint, and
/// one spec per footprint table.
pub struct Query {
    pub id: u32,
    /// Arrival on the primary clock; also the snapshot timestamp.
    pub qts: Timestamp,
    pub tables: Vec<TableId>,
    pub specs: Vec<QuerySpec>,
}

/// A generated log stream with its oracle.
pub struct Stream {
    pub num_tables: usize,
    pub grouping: TableGrouping,
    pub epochs: Vec<EncodedEpoch>,
    /// When each epoch reaches the backup on the primary clock
    /// (`ReplicationTimeline::arrivals`).
    pub arrivals: Vec<Timestamp>,
    pub txns: usize,
    pub log_bytes: u64,
    pub last_ts: Timestamp,
    /// Serial-oracle state: never GC'd, so any `qts` can be evaluated.
    pub oracle: MemDb,
    pub digest: u64,
    /// Throughput of the oracle's `SerialEngine` replay — the
    /// single-threaded baseline.
    pub serial_txn_per_s: f64,
    /// The workload's own Poisson query stream (22 CH classes, or the
    /// BusTracker templates): footprints of one to eight tables.
    pub queries: Vec<Query>,
    /// Probe queries for a caught-up node: every one reads *all* hot
    /// tables at `last_ts`, so their cost is unimodal and a median over
    /// them means something.
    pub probes: Vec<Query>,
}

impl Stream {
    pub fn engine(&self) -> AetsEngine {
        AetsEngine::builder(self.grouping.clone())
            .config(AetsConfig { threads: ENGINE_THREADS, ..Default::default() })
            .build()
            .expect("positive thread count")
    }

    pub fn log_mib(&self) -> f64 {
        self.log_bytes as f64 / (1 << 20) as f64
    }

    /// `n` probe queries for rep `rep`, rotating through the probe set.
    pub fn probes_for(&self, rep: usize, n: usize) -> Vec<&Query> {
        (0..n).map(|i| &self.probes[(rep * n + i) % self.probes.len()]).collect()
    }

    /// Index of the first epoch whose commits reach `ts`.
    pub fn epoch_covering(&self, ts: Timestamp) -> usize {
        self.epochs.partition_point(|e| e.max_commit_ts < ts).min(self.epochs.len() - 1)
    }
}

fn build(w: Workload, grouping: TableGrouping, seed: u64, bounded: bool) -> Stream {
    let num_tables = w.num_tables();
    let txns = w.txns.len();
    let raw = batch_into_epochs(w.txns, EPOCH_TXNS).expect("positive epoch size");
    let arrivals = ReplicationTimeline::default().arrivals(&raw);
    let epochs: Vec<EncodedEpoch> = raw.iter().map(encode_epoch).collect();
    drop(raw);
    let log_bytes = epochs.iter().map(|e| e.bytes.len() as u64).sum();
    let last_ts = epochs.last().expect("nonempty stream").max_commit_ts;

    let oracle = MemDb::new(num_tables);
    let t0 = Instant::now();
    SerialEngine.replay_all(&epochs, &oracle).expect("oracle replay");
    let serial_txn_per_s = txns as f64 / t0.elapsed().as_secs_f64();
    let digest = oracle.digest_at(Timestamp::MAX);

    let queries = specs_for(&w.queries, &oracle, seed, bounded);
    let mut hot: Vec<TableId> = w.analytic_tables.iter().copied().collect();
    hot.sort_unstable();
    let probe_src: Vec<QueryInstance> = (0..NUM_PROBES)
        .map(|id| QueryInstance { id, class: 0, arrival: last_ts, tables: hot.clone() })
        .collect();
    let probes = specs_for(&probe_src, &oracle, !seed, bounded);
    Stream {
        num_tables,
        grouping,
        epochs,
        arrivals,
        txns,
        log_bytes,
        last_ts,
        oracle,
        digest,
        serial_txn_per_s,
        queries,
        probes,
    }
}

/// One count spec per footprint table. `bounded` restricts each to a
/// seeded key range of at most [`RANGE_ROWS`] rows of the oracle's final
/// key set (CH-benCHmark's big tables); otherwise the whole table.
fn specs_for(src: &[QueryInstance], oracle: &MemDb, seed: u64, bounded: bool) -> Vec<Query> {
    let keys: Vec<Vec<RowKey>> = if bounded {
        oracle.tables().map(|t| t.entries().into_iter().map(|(k, _)| k).collect()).collect()
    } else {
        Vec::new()
    };
    src.iter()
        .map(|q| {
            let specs = q
                .tables
                .iter()
                .enumerate()
                .map(|(i, &t)| {
                    let spec = QuerySpec::count(t);
                    match keys.get(t.index()) {
                        Some(k) if k.len() > RANGE_ROWS => {
                            let draw = splitmix64(seed ^ ((q.id as u64) << 8 | i as u64));
                            let lo = (draw % (k.len() - RANGE_ROWS) as u64) as usize;
                            spec.keys(k[lo], k[lo + RANGE_ROWS - 1])
                        }
                        _ => spec,
                    }
                })
                .collect();
            Query { id: q.id, qts: q.arrival, tables: q.tables.clone(), specs }
        })
        .collect()
}

/// CH-benCHmark (TPC-C writes, 22 query classes, 12 tables, one group
/// per table) at `oltp_tps` commits and `olap_qps` queries per second of
/// primary time.
pub fn chbench(seed: u64, num_txns: usize, oltp_tps: f64, olap_qps: f64) -> Stream {
    let w = chbench::generate(&TpccConfig { seed, warehouses: 20, num_txns, oltp_tps, olap_qps });
    let written = w.written_tables();
    let grouping = TableGrouping::per_table(w.num_tables(), &w.analytic_tables, |t| {
        if written.contains(&t) {
            100.0
        } else {
            1.0
        }
    });
    build(w, grouping, seed, true)
}

/// BusTracker (65 tables, 14 hot ones clustered by DBSCAN over their
/// mean access rate, ~37 % hot entries, 5 000-row hot tables).
pub fn bustracker(seed: u64, num_txns: usize) -> Stream {
    let cfg = bustracker::BusTrackerConfig { seed, num_txns, ..Default::default() };
    let slots = cfg.slots;
    let w = bustracker::generate(&cfg);
    let mean_rate = |t: TableId| {
        (0..slots).map(|s| bustracker::access_rate(t.index(), s)).sum::<f64>() / slots as f64
    };
    let grouping = TableGrouping::dbscan(w.num_tables(), &w.analytic_tables, mean_rate, 0.5)
        .expect("bustracker rates are finite");
    build(w, grouping, seed, false)
}
