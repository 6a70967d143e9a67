//! Replay-path microbenchmarks: dispatch (metadata routing), TPLR phase-1
//! translate, and a full engine pass.

use aets_memtable::MemDb;
use aets_replay::{
    dispatch_epoch, translate_entry, AetsConfig, AetsEngine, ReplayEngine, TableGrouping,
};
use aets_wal::encode_epoch;
use aets_workloads::tpcc::{self, TpccConfig};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn bench_replay(c: &mut Criterion) {
    let w = tpcc::generate(&TpccConfig { num_txns: 2_000, warehouses: 2, ..Default::default() });
    let (groups, rates) = tpcc::paper_grouping();
    let grouping = TableGrouping::new(w.num_tables(), groups, rates, &w.analytic_tables).unwrap();
    let epochs: Vec<_> = aets_wal::batch_into_epochs(w.txns.clone(), 2_048)
        .unwrap()
        .iter()
        .map(encode_epoch)
        .collect();
    let entries = w.total_entries() as u64;

    let mut g = c.benchmark_group("replay");
    g.sample_size(20);
    g.throughput(Throughput::Elements(epochs[0].txn_count as u64));
    g.bench_function("dispatch_epoch", |b| {
        b.iter(|| dispatch_epoch(std::hint::black_box(&epochs[0]), &grouping).unwrap())
    });

    let work = dispatch_epoch(&epochs[0], &grouping).unwrap();
    let db = MemDb::new(w.num_tables());
    let sample: Vec<_> = work.groups[0]
        .mini_txns
        .iter()
        .flat_map(|mt| mt.entry_ranges.iter().cloned())
        .take(1_000)
        .collect();
    g.throughput(Throughput::Elements(sample.len() as u64));
    g.bench_function("phase1_translate_1k", |b| {
        b.iter(|| {
            for r in &sample {
                let _ = translate_entry(&db, &work.bytes, r.clone()).unwrap();
            }
        })
    });

    g.throughput(Throughput::Elements(entries));
    g.bench_function("aets_full_replay_2t", |b| {
        let engine = AetsEngine::builder(grouping.clone())
            .config(AetsConfig { threads: 2, ..Default::default() })
            .build()
            .unwrap();
        b.iter(|| {
            let db = MemDb::new(w.num_tables());
            engine.replay_all(std::hint::black_box(&epochs), &db).unwrap()
        })
    });

    // A multi-epoch stream: the one shape that gets the dispatcher thread
    // (the single 2 048-txn epoch above dispatches inline).
    let small_epochs: Vec<_> = aets_wal::batch_into_epochs(w.txns.clone(), 256)
        .unwrap()
        .iter()
        .map(encode_epoch)
        .collect();
    g.bench_function("aets_multi_epoch_2t_pipelined", |b| {
        let engine = AetsEngine::builder(grouping.clone())
            .config(AetsConfig { threads: 2, ..Default::default() })
            .build()
            .unwrap();
        b.iter(|| {
            let db = MemDb::new(w.num_tables());
            engine.replay_all(std::hint::black_box(&small_epochs), &db).unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_replay);
criterion_main!(benches);
