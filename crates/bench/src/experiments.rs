//! One function per paper table/figure. Each prints the same rows/series
//! the paper reports and, at full scale, writes a JSON blob under
//! `results/`.

use crate::json;
use crate::{
    bustracker_bench, chbench_bench, delay_summary, map_groups, ms, run_with_delays, slot_len_us,
    tpcc_bench, write_json, Bench, EngineSel, TextTable,
};
use aets_forecast::{evaluate, Arima, Dtgm, DtgmConfig, Forecaster, Ha, Qb5000, RateSeries};
use aets_replay::UrgencyMode;
use aets_simulator::{
    evaluate_by_class, evaluate_by_slot, simulate, SimAetsConfig, SimConfig, SimEngineKind,
};
use aets_workloads::bustracker;

/// Scale knobs for one full run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Whether this is the scale the tracked `results/` quote; only such
    /// a run writes there.
    pub full: bool,
    /// Transactions per throughput/visibility workload.
    pub txns: usize,
    /// Forecasting series length (slots).
    pub series_slots: usize,
    /// DTGM training epochs.
    pub dtgm_epochs: usize,
}

impl Scale {
    /// Paper-faithful scale (minutes of runtime).
    pub fn full() -> Self {
        Self { full: true, txns: 40_000, series_slots: 420, dtgm_epochs: 70 }
    }

    /// Quick smoke scale (seconds of runtime).
    pub fn fast() -> Self {
        Self { full: false, txns: 6_000, series_slots: 160, dtgm_epochs: 30 }
    }

    /// A bench size stated at full scale, shrunk in proportion to `txns`.
    pub fn of(&self, full_size: usize) -> usize {
        (full_size * self.txns / Self::full().txns).max(1)
    }
}

const THREADS: usize = 32;
const EPOCH: usize = 2048;

/// Table I: workload characteristics.
pub fn table1(scale: Scale) {
    println!("== Table I: OLAP-relevant share of the OLTP log ==");
    let mut t = TextTable::new(&["benchmark", "num(T)", "num(A)", "num(A∩T)", "ratio", "paper"]);
    let mut blobs = Vec::new();

    let tpcc = aets_workloads::tpcc::generate(&aets_workloads::tpcc::TpccConfig {
        num_txns: scale.txns.min(20_000),
        ..Default::default()
    });
    let seats = aets_workloads::seats::generate(&aets_workloads::seats::SeatsConfig {
        num_txns: scale.txns.min(20_000),
        ..Default::default()
    });
    let ch = aets_workloads::chbench::generate(&aets_workloads::tpcc::TpccConfig {
        num_txns: scale.txns.min(20_000),
        olap_qps: 2_000.0,
        ..Default::default()
    });
    let bus = aets_workloads::bustracker::generate(&bustracker::BusTrackerConfig {
        num_txns: scale.txns.min(20_000),
        ..Default::default()
    });

    for (w, paper) in [(&tpcc, "90.98%"), (&seats, "38.08%"), (&bus, "37.12%")] {
        let row = aets_workloads::table_one_row(w);
        t.row(vec![
            row.label.clone(),
            row.num_written.to_string(),
            row.num_analytic.to_string(),
            row.num_intersection.to_string(),
            format!("{:.2}%", row.ratio * 100.0),
            paper.to_string(),
        ]);
        blobs.push(json!({
            "label": row.label, "written": row.num_written, "analytic": row.num_analytic,
            "intersection": row.num_intersection, "ratio": row.ratio, "paper": paper,
        }));
    }
    let ch_paper = ["60.83%", "18.79%", "74.93%", "66.91%", "90.79%", "60.83%"];
    for q in 1..=6u32 {
        if let Some(row) = aets_workloads::table_one_row_for_class(&ch, q) {
            t.row(vec![
                row.label.clone(),
                row.num_written.to_string(),
                row.num_analytic.to_string(),
                row.num_intersection.to_string(),
                format!("{:.2}%", row.ratio * 100.0),
                ch_paper[q as usize - 1].to_string(),
            ]);
            blobs.push(json!({
                "label": row.label, "written": row.num_written, "analytic": row.num_analytic,
                "intersection": row.num_intersection, "ratio": row.ratio,
                "paper": ch_paper[q as usize - 1],
            }));
        }
    }
    println!("{}", t.render());
    write_json(scale, "table1", &blobs);
}

/// Figure 7: BusTracker access rates of three typical tables.
pub fn fig7(scale: Scale) {
    println!("== Figure 7: BusTracker table access rate over time ==");
    let tables = [0usize, 1, 2]; // one per regime: sinusoid / shift / peaks
    let mut t = TextTable::new(&["slot", "m.trip", "m.calendar", "m.estimate"]);
    let mut series = vec![Vec::new(); 3];
    for slot in 0..bustracker::DAY_SLOTS {
        let rates: Vec<f64> = tables.iter().map(|&ti| bustracker::access_rate(ti, slot)).collect();
        t.row(vec![
            slot.to_string(),
            format!("{:.1}", rates[0]),
            format!("{:.1}", rates[1]),
            format!("{:.1}", rates[2]),
        ]);
        for (i, r) in rates.iter().enumerate() {
            series[i].push(*r);
        }
    }
    println!("{}", t.render());
    write_json(
        scale,
        "fig7",
        &json!({ "tables": ["m.trip", "m.calendar", "m.estimate"], "series": series }),
    );
}

fn perf_panels(name: &str, bench: &Bench, scale: Scale) {
    // 0.50 keeps even the slowest engine (C5, ~1.8x AETS per-entry cost)
    // below saturation during paced visibility runs.
    let cost = bench.calibrated_cost(THREADS, 0.50);

    // (a) normalized replay throughput (divided by primary throughput).
    let offered = bench.offered_rate() * 1e6; // entries per second
    let mut ta = TextTable::new(&["engine", "replay entries/s", "normalized vs primary"]);
    let mut blob_tput = Vec::new();
    let mut results = Vec::new();
    for sel in EngineSel::ALL {
        let outcome = bench.run(sel, THREADS, EPOCH, &cost, false);
        let tput = outcome.entries_per_sec();
        ta.row(vec![
            sel.name().to_string(),
            format!("{:.0}", tput),
            format!("{:.2}x", tput / offered),
        ]);
        blob_tput.push(json!({ "engine": sel.name(), "entries_per_sec": tput,
            "normalized": tput / offered }));
        results.push((sel, outcome));
    }
    println!("-- ({name}a) normalized replay throughput @ {THREADS} threads --");
    println!("{}", ta.render());

    // (b) normalized replay time: stage walls normalized by AETS cold.
    let aets = &results.iter().find(|(s, _)| *s == EngineSel::Aets).expect("aets ran").1;
    let aets_cold = aets.stage2_wall.max(1.0);
    let mut tb = TextTable::new(&["series", "virtual time", "normalized vs AETS(cold)"]);
    let mut blob_time = Vec::new();
    tb.row(vec![
        "AETS(hot)".into(),
        ms(aets.stage1_wall),
        format!("{:.2}x", aets.stage1_wall / aets_cold),
    ]);
    tb.row(vec!["AETS(cold)".into(), ms(aets.stage2_wall), "1.00x".into()]);
    blob_time.push(json!({ "series": "AETS(hot)", "us": aets.stage1_wall }));
    blob_time.push(json!({ "series": "AETS(cold)", "us": aets.stage2_wall }));
    for (sel, outcome) in &results {
        if *sel == EngineSel::Aets {
            continue;
        }
        let total = outcome.wall_us as f64;
        tb.row(vec![
            format!("{}(total)", sel.name()),
            ms(total),
            format!("{:.2}x", total / aets_cold),
        ]);
        blob_time.push(json!({ "series": format!("{}(total)", sel.name()), "us": total }));
    }
    println!("-- ({name}b) replay time (hot stage vs cold stage vs totals) --");
    println!("{}", tb.render());

    // (c) visibility delay under real-time pacing.
    let mut tc = TextTable::new(&["engine", "visibility delay"]);
    let mut blob_delay = Vec::new();
    let mut aets_mean = 0.0f64;
    let mut atr_mean = 0.0f64;
    for sel in EngineSel::ALL {
        let (_, stats) = run_with_delays(bench, sel, THREADS, EPOCH, &cost);
        tc.row(vec![sel.name().to_string(), delay_summary(&stats)]);
        blob_delay.push(json!({ "engine": sel.name(), "mean_us": stats.mean(),
            "p95_us": stats.percentile(95.0), "n": stats.delays.len() }));
        if sel == EngineSel::Aets {
            aets_mean = stats.mean();
        }
        if sel == EngineSel::Atr {
            atr_mean = stats.mean();
        }
    }
    println!("-- ({name}c) visibility delay @ {THREADS} threads (paced replication) --");
    println!("{}", tc.render());
    if aets_mean > 0.0 {
        println!("   ATR/AETS mean delay ratio: {:.2}x (paper: ~1.3x)\n", atr_mean / aets_mean);
    }
    write_json(
        scale,
        &format!("fig{name}"),
        &json!({ "throughput": blob_tput, "replay_time": blob_time, "delay": blob_delay }),
    );
}

/// Figure 8: TPC-C performance comparison at 32 threads.
pub fn fig8(scale: Scale) {
    println!("== Figure 8: TPC-C @ 32 threads ==");
    let bench = tpcc_bench(scale.txns);
    perf_panels("8", &bench, scale);
}

/// Figure 9: BusTracker performance comparison at 32 threads.
pub fn fig9(scale: Scale) {
    println!("== Figure 9: BusTracker @ 32 threads ==");
    let bench = bustracker_bench(scale.txns, 35);
    perf_panels("9", &bench, scale);
}

/// Figure 10: CH-benCHmark per-query visibility delay.
pub fn fig10(scale: Scale) {
    println!("== Figure 10: CH-benCHmark visibility delay per query ==");
    let bench = chbench_bench(scale.txns);
    let cost = bench.calibrated_cost(THREADS, 0.70);
    let mut per_engine = Vec::new();
    let mut table = TextTable::new(&["query", "AETS", "ATR", "C5"]);
    let mut rows: Vec<Vec<String>> = (1..=22).map(|q| vec![format!("Q{q}")]).collect();
    for sel in [EngineSel::Aets, EngineSel::Atr, EngineSel::C5] {
        let outcome = bench.run(sel, THREADS, EPOCH, &cost, true);
        let grouping = bench.grouping_for(sel);
        let by_class = evaluate_by_class(&outcome, &bench.workload.queries, |tables| {
            map_groups(grouping, sel, tables)
        });
        let mut means = [0.0f64; 23];
        for (class, stats) in &by_class {
            if (*class as usize) < means.len() {
                means[*class as usize] = stats.mean();
            }
        }
        for q in 1..=22usize {
            rows[q - 1].push(ms(means[q]));
        }
        per_engine.push(json!({ "engine": sel.name(),
            "mean_us_per_query": means[1..=22].to_vec() }));
    }
    for r in rows {
        table.row(r);
    }
    println!("{}", table.render());
    write_json(scale, "fig10", &per_engine);
}

/// Figure 11: multi-core scalability (normalized to single-thread ATR).
pub fn fig11(scale: Scale) {
    println!("== Figure 11: replay throughput vs threads (normalized by ATR@1) ==");
    let bench = tpcc_bench(scale.txns);
    let cost = bench.calibrated_cost(THREADS, 0.70);
    let threads = [1usize, 2, 4, 8, 16, 32, 48, 64];
    let atr1 = bench.run(EngineSel::Atr, 1, EPOCH, &cost, false).entries_per_sec();
    let mut t = TextTable::new(&["threads", "ATR", "C5", "AETS"]);
    let mut blob = Vec::new();
    for &th in &threads {
        let row: Vec<f64> = [EngineSel::Atr, EngineSel::C5, EngineSel::Aets]
            .iter()
            .map(|sel| bench.run(*sel, th, EPOCH, &cost, false).entries_per_sec() / atr1)
            .collect();
        t.row(vec![
            th.to_string(),
            format!("{:.2}", row[0]),
            format!("{:.2}", row[1]),
            format!("{:.2}", row[2]),
        ]);
        blob.push(json!({ "threads": th, "atr": row[0], "c5": row[1], "aets": row[2] }));
    }
    println!("{}", t.render());
    write_json(scale, "fig11", &blob);
}

/// Table II: time breakdown of AETS (dispatch / replay / commit).
pub fn table2(scale: Scale) {
    println!("== Table II: AETS management overhead ==");
    let mut t = TextTable::new(&["dataset", "dispatch", "replay", "commit", "paper (d/r/c)"]);
    let mut blob = Vec::new();
    let benches: [(&str, Bench, &str); 3] = [
        ("TPC-C", tpcc_bench(scale.txns), "0.37/99.47/0.16"),
        ("BusTracker", bustracker_bench(scale.txns, 35), "0.80/98.44/0.76"),
        ("CH-benCHmark", chbench_bench(scale.txns), "0.72/99.08/0.20"),
    ];
    for (name, bench, paper) in benches {
        let cost = bench.calibrated_cost(THREADS, 0.70);
        let outcome = bench.run(EngineSel::Aets, THREADS, EPOCH, &cost, false);
        let (d, r, c) = outcome.breakdown();
        t.row(vec![
            name.to_string(),
            format!("{:.2}%", d * 100.0),
            format!("{:.2}%", r * 100.0),
            format!("{:.2}%", c * 100.0),
            paper.to_string(),
        ]);
        blob.push(json!({ "dataset": name, "dispatch": d, "replay": r, "commit": c }));
    }
    println!("{}", t.render());
    write_json(scale, "table2", &blob);
}

/// Figure 12: effect of epoch size on visibility delay.
pub fn fig12(scale: Scale) {
    println!("== Figure 12: visibility delay vs epoch size (TPC-C, 32 threads) ==");
    let bench = tpcc_bench(scale.txns);
    // Near saturation + a per-epoch coordination cost: small epochs choke
    // on overhead, large epochs choke on batching.
    let mut cost = bench.calibrated_cost(THREADS, 0.80);
    cost.stage_setup = 9_000.0;
    let sizes = [64usize, 128, 256, 512, 1024, 2048, 4096, 8192, 16384];
    let mut t = TextTable::new(&["epoch size", "mean visibility delay"]);
    let mut blob = Vec::new();
    for &sz in &sizes {
        let (_, stats) = run_with_delays(&bench, EngineSel::Aets, THREADS, sz, &cost);
        t.row(vec![sz.to_string(), ms(stats.mean())]);
        blob.push(json!({ "epoch_size": sz, "mean_us": stats.mean() }));
    }
    println!("{}", t.render());
    write_json(scale, "fig12", &blob);
}

/// Builds per-epoch group-rate providers for Figure 13.
fn group_rates_for_slot(bench: &Bench, rates_at_slot: &[f64]) -> Vec<f64> {
    (0..bench.grouping.num_groups() as u32)
        .map(|g| {
            let members = bench.grouping.members(aets_common::GroupId::new(g));
            members
                .iter()
                .map(|t| rates_at_slot.get(t.index()).copied().unwrap_or(0.0))
                .sum::<f64>()
                / members.len() as f64
        })
        .collect()
}

/// Figure 13: adaptive thread allocation on BusTracker — AETS (DTGM
/// rates) vs AETS-HA (trailing-average rates) vs AETS-NOAC (no access
/// rates).
pub fn fig13(scale: Scale) {
    println!("== Figure 13: per-slot visibility delay under different allocators ==");
    let slots = 35usize;
    let bench = crate::bustracker_bench_per_table(scale.txns, slots);
    let mut cost = bench.calibrated_cost(THREADS, 0.75);
    cost.stage_setup = 100.0;
    let slot_us = slot_len_us(&bench.workload, slots);

    // Ground truth rates per slot (by table), and the history the
    // predictors see: previous "days" of the same process.
    let truth: Vec<Vec<f64>> = (0..slots)
        .map(|s| (0..bench.workload.num_tables()).map(|t| bustracker::access_rate(t, s)).collect())
        .collect();
    // History: whole previous "days" of the same process, so the history
    // length stays phase-aligned with the evaluation day.
    let days = (scale.series_slots / bustracker::DAY_SLOTS).max(3);
    let train = RateSeries::bustracker_hot(days * bustracker::DAY_SLOTS, 0.1, 99);
    let dtgm = Dtgm::fit(
        &train,
        &bustracker::access_graph(),
        DtgmConfig {
            epochs: scale.dtgm_epochs,
            steps_per_epoch: 16,
            lr: 2e-3,
            decay_every: (scale.dtgm_epochs / 2).max(1),
            max_horizon: 1,
            ..DtgmConfig::default()
        },
    )
    .expect("series long enough for DTGM");

    // Map epoch index -> slot via the epoch's position in the stream.
    // Finer epochs than the default so the allocator can re-plan several
    // times per slot (the paper's epochs are ~0.2 s vs 1-minute slots).
    let fig13_epoch = 256usize;
    let profiles = bench.profiles(EngineSel::Aets, fig13_epoch, &cost, true);
    let epoch_slot: Vec<usize> = profiles
        .iter()
        .map(|p| ((p.max_commit_ts.as_micros() / slot_us) as usize).min(slots - 1))
        .collect();

    // Three allocators: DTGM-predicted, trailing-average (last 5 slots of
    // truth), and NOAC (ignore rates).
    let dtgm_rates: Vec<Vec<f64>> = (0..slots)
        .map(|s| {
            // Predict slot s one step ahead: the model sees the full
            // history (previous days) plus the current day up to slot s.
            // `train` ends on a day boundary, so history length stays
            // phase-aligned.
            let mut hist = train.values.clone();
            // The model is trained on the 14 hot tables only.
            hist.extend(truth[..s].iter().map(|row| row[..bustracker::NUM_HOT].to_vec()));
            let pred = dtgm.forecast(&hist, 1);
            let mut by_table = vec![0.0; bench.workload.num_tables()];
            for (t, v) in pred[0].iter().enumerate() {
                by_table[t] = *v;
            }
            group_rates_for_slot(&bench, &by_table)
        })
        .collect();
    let ha_rates: Vec<Vec<f64>> = (0..slots)
        .map(|s| {
            let lo = s.saturating_sub(5);
            let n = (s - lo).max(1);
            let mut avg = vec![0.0; bench.workload.num_tables()];
            for row in &truth[lo..lo + n] {
                for (t, v) in row.iter().enumerate() {
                    avg[t] += v / n as f64;
                }
            }
            group_rates_for_slot(&bench, &avg)
        })
        .collect();

    let mut blob = Vec::new();
    let mut table = TextTable::new(&["slot", "AETS", "AETS-HA", "AETS-NOAC"]);
    let mut series: Vec<Vec<f64>> = Vec::new();
    for (label, urgency, rates) in [
        ("AETS", UrgencyMode::Log, Some(&dtgm_rates)),
        ("AETS-HA", UrgencyMode::Log, Some(&ha_rates)),
        ("AETS-NOAC", UrgencyMode::Ignore, None),
    ] {
        let kind =
            SimEngineKind::TwoPhase(SimAetsConfig { two_stage: true, adaptive: true, urgency });
        let rate_fn = |eidx: usize| -> Vec<f64> {
            match rates {
                Some(r) => r[epoch_slot[eidx.min(epoch_slot.len() - 1)]].clone(),
                None => vec![1.0; bench.grouping.num_groups()],
            }
        };
        let outcome = simulate(
            &profiles,
            &bench.grouping,
            &SimConfig { kind, threads: THREADS, cost: cost.clone() },
            Some(&rate_fn),
        );
        let per_slot =
            evaluate_by_slot(&outcome, &bench.workload.queries, slot_us, slots, |tables| {
                map_groups(&bench.grouping, EngineSel::Aets, tables)
            });
        blob.push(json!({ "series": label, "per_slot_mean_us": per_slot }));
        series.push(per_slot);
        let _ = label;
    }
    #[allow(clippy::needless_range_loop)]
    for s in 5..slots {
        table.row(vec![(s - 5).to_string(), ms(series[0][s]), ms(series[1][s]), ms(series[2][s])]);
    }
    println!("{}", table.render());
    let avg = |v: &[f64]| v[5..].iter().sum::<f64>() / (slots - 5) as f64;
    println!(
        "averages after warm-up: AETS {} | AETS-HA {} | AETS-NOAC {}\n",
        ms(avg(&series[0])),
        ms(avg(&series[1])),
        ms(avg(&series[2]))
    );
    write_json(scale, "fig13", &blob);
}

/// Trains the Table III model set and returns `(name, mape@15/30/60)`.
pub fn table3(scale: Scale) {
    println!("== Table III: access-rate prediction MAPE ==");
    let full = RateSeries::bustracker_hot(scale.series_slots, 0.10, 42);
    let split = scale.series_slots * 3 / 4;
    let (train, _) = full.split(split);
    let horizons = [15usize, 30, 60];
    // Horizons are capped by the available test region.
    let max_h = 60usize.min(scale.series_slots - split - 1);

    let ha = Ha { window: 60 };
    let arima = Arima::fit(&train, 3);
    let qb = Qb5000::fit(&train, 12, max_h, 42);
    let dtgm = Dtgm::fit(
        &train,
        &bustracker::access_graph(),
        DtgmConfig {
            epochs: scale.dtgm_epochs,
            steps_per_epoch: 16,
            lr: 2e-3,
            decay_every: (scale.dtgm_epochs / 2).max(1),
            max_horizon: max_h,
            ..Default::default()
        },
    )
    .expect("series long enough for DTGM");

    let models: Vec<&dyn Forecaster> = vec![&ha, &arima, &qb, &dtgm];
    let mut t = TextTable::new(&["model", "15 slots", "30 slots", "60 slots", "paper@15"]);
    let paper = ["30.30%", "18.66%", "18.12%", "16.80%"];
    let mut blob = Vec::new();
    for (mi, m) in models.iter().enumerate() {
        let mut row = vec![m.name().to_string()];
        let mut errs = Vec::new();
        for &h in &horizons {
            let h = h.min(max_h);
            let e = evaluate(*m, &full, split, h);
            row.push(format!("{:.2}%", e * 100.0));
            errs.push(e);
        }
        row.push(paper[mi].to_string());
        t.row(row);
        blob.push(json!({ "model": m.name(), "mape": errs }));
    }
    println!("{}", t.render());
    write_json(scale, "table3", &blob);
}

/// Table IV: DTGM vs its no-GCN ablation.
pub fn table4(scale: Scale) {
    println!("== Table IV: DTGM ablation ==");
    let full = RateSeries::bustracker_hot(scale.series_slots, 0.10, 42);
    let split = scale.series_slots * 3 / 4;
    let (train, _) = full.split(split);
    let h = 15usize;
    let mut t = TextTable::new(&["model", "MAPE", "paper"]);
    let mut blob = Vec::new();
    for (use_gcn, paper) in [(false, "16.96%"), (true, "16.80%")] {
        let m = Dtgm::fit(
            &train,
            &bustracker::access_graph(),
            DtgmConfig {
                use_gcn,
                epochs: scale.dtgm_epochs,
                steps_per_epoch: 16,
                lr: 2e-3,
                decay_every: (scale.dtgm_epochs / 2).max(1),
                max_horizon: h,
                ..Default::default()
            },
        )
        .expect("series long enough for DTGM");
        let e = evaluate(&m, &full, split, h);
        t.row(vec![m.name().to_string(), format!("{:.2}%", e * 100.0), paper.to_string()]);
        blob.push(json!({ "model": m.name(), "mape": e }));
    }
    println!("{}", t.render());
    write_json(scale, "table4", &blob);
}

/// Figure 14: hidden-dimension hyper-parameter sweep.
pub fn fig14(scale: Scale) {
    println!("== Figure 14: DTGM hidden dimension sweep ==");
    let full = RateSeries::bustracker_hot(scale.series_slots, 0.10, 42);
    let split = scale.series_slots * 3 / 4;
    let (train, _) = full.split(split);
    let h = 15usize;
    let dims = [16usize, 32, 48, 64];
    let mut t = TextTable::new(&["hidden", "MAPE"]);
    let mut blob = Vec::new();
    for &d in &dims {
        let m = Dtgm::fit(
            &train,
            &bustracker::access_graph(),
            DtgmConfig {
                hidden: d,
                epochs: scale.dtgm_epochs,
                steps_per_epoch: 16,
                lr: 2e-3,
                decay_every: (scale.dtgm_epochs / 2).max(1),
                max_horizon: h,
                ..Default::default()
            },
        )
        .expect("series long enough for DTGM");
        let e = evaluate(&m, &full, split, h);
        t.row(vec![d.to_string(), format!("{:.2}%", e * 100.0)]);
        blob.push(json!({ "hidden": d, "mape": e }));
    }
    println!("{}", t.render());
    write_json(scale, "fig14", &blob);
}

/// Cross-engine correctness validation on the real threaded engines:
/// every engine must converge to the serial oracle's state.
pub fn validate(scale: Scale) {
    use aets_memtable::MemDb;
    use aets_replay::{AetsConfig, AetsEngine, AtrEngine, C5Engine, ReplayEngine, SerialEngine};
    println!("== Cross-engine state validation (real threaded engines) ==");
    let txns = scale.txns.min(5_000);
    for (name, bench) in [
        ("TPC-C", tpcc_bench(txns)),
        ("BusTracker", bustracker_bench(txns, 35)),
        ("CH-benCHmark", chbench_bench(txns)),
    ] {
        let epochs = bench.encode(1024);
        let n = bench.workload.num_tables();
        let oracle = MemDb::new(n);
        SerialEngine.replay_all(&epochs, &oracle).expect("serial replay");
        let want = oracle.digest_at(aets_common::Timestamp::MAX);

        let engines: Vec<(&str, Box<dyn ReplayEngine>)> = vec![
            (
                "AETS",
                Box::new(
                    AetsEngine::builder(bench.grouping.clone())
                        .config(AetsConfig { threads: 4, ..Default::default() })
                        .build()
                        .expect("valid config"),
                ),
            ),
            (
                "TPLR",
                Box::new(
                    AetsEngine::tplr_baseline(4, n, &bench.workload.analytic_tables)
                        .expect("valid config"),
                ),
            ),
            ("ATR", Box::new(AtrEngine::new(4).expect("valid config"))),
            ("C5", Box::new(C5Engine::new(4).expect("valid config"))),
        ];
        for (ename, engine) in engines {
            let db = MemDb::new(n);
            engine.replay_all(&epochs, &db).expect("replay");
            let got = db.digest_at(aets_common::Timestamp::MAX);
            assert_eq!(got, want, "{ename} diverged from oracle on {name}");
            println!("  {name:<14} {ename:<5} state digest OK ({want:#018x})");
        }
    }
    println!();
}
