//! Every seeded stream in the workspace, pinned. Workload logs and query
//! streams, forecaster weights and training order, and property-test
//! cases are pure functions of their seed through `aets_common::rng`;
//! these digests fix those functions bit for bit. A change that moves a
//! digest moves every experiment drawn from that stream: update it only
//! together with the regenerated `results/` files.

use aets_suite::common::rng::check;
use aets_suite::forecast::{Dtgm, DtgmConfig, Forecaster, Lstm, LstmConfig, RateSeries};
use aets_suite::workloads::{bustracker, chbench, drift, seats, tpcc, Workload};
use std::fmt::Debug;

/// FNV-1a over the value's `Debug` rendering. Floats print in their
/// shortest round-trip form, so equal digests mean equal bits.
fn digest<T: Debug + ?Sized>(v: &T) -> u64 {
    format!("{v:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3))
}

fn workload_digest(w: &Workload) -> u64 {
    digest(&(&w.txns, &w.queries))
}

#[test]
fn workload_streams_are_pinned() {
    let tpcc_cfg = tpcc::TpccConfig { seed: 42, num_txns: 400, ..Default::default() };
    let bus_cfg = bustracker::BusTrackerConfig { seed: 42, num_txns: 400, ..Default::default() };
    let got = [
        ("tpcc", workload_digest(&tpcc::generate(&tpcc_cfg))),
        ("chbench", workload_digest(&chbench::generate(&tpcc_cfg))),
        ("bustracker", workload_digest(&bustracker::generate(&bus_cfg))),
        (
            "seats",
            workload_digest(&seats::generate(&seats::SeatsConfig {
                seed: 42,
                num_txns: 400,
                ..Default::default()
            })),
        ),
        (
            "rotating_tpcc",
            workload_digest(&drift::rotating_tpcc(&drift::RotatingTpccConfig {
                base: tpcc::TpccConfig { warehouses: 4, ..tpcc_cfg.clone() },
                ..Default::default()
            })),
        ),
        (
            "flash_crowd",
            workload_digest(&drift::flash_crowd_bustracker(&drift::FlashCrowdConfig {
                base: bus_cfg.clone(),
                ..Default::default()
            })),
        ),
    ];
    let want = [
        ("tpcc", 0xe525_3ece_aab8_5b4d),
        ("chbench", 0xd221_001f_dd3f_092b),
        ("bustracker", 0x378c_a1e2_4e40_55f8),
        ("seats", 0x1344_0cf6_7528_e1eb),
        ("rotating_tpcc", 0x1fa3_8338_218b_e0cd),
        ("flash_crowd", 0x1909_c57e_b178_b31b),
    ];
    assert_eq!(got, want, "digests: {got:#x?}");
}

#[test]
fn forecaster_weights_and_training_order_are_pinned() {
    let series = RateSeries::bustracker_hot(48, 0.1, 99);
    let (train, test) = series.split(40);
    let lstm = Lstm::fit(
        &train,
        LstmConfig {
            hidden: 4,
            t_in: 4,
            max_horizon: 2,
            epochs: 3,
            steps_per_epoch: 4,
            ..Default::default()
        },
    );
    let dtgm = Dtgm::fit(
        &train,
        &[(0, 1), (1, 2), (2, 3)],
        DtgmConfig {
            hidden: 4,
            layers: 1,
            t_in: 4,
            max_horizon: 2,
            epochs: 3,
            steps_per_epoch: 4,
            ..Default::default()
        },
    )
    .expect("series is long enough");
    let history = &test.values[..4];
    let got = [
        ("series", digest(&series.values)),
        ("lstm", digest(&lstm.forecast(history, 2))),
        ("dtgm", digest(&dtgm.forecast(history, 2))),
    ];
    let want = [
        ("series", 0x645b_1de1_b08b_43d7),
        ("lstm", 0x1675_45cf_47e1_c8d0),
        ("dtgm", 0xbdd6_8ce2_d1e0_add0),
    ];
    assert_eq!(got, want, "digests: {got:#x?}");
}

#[test]
fn property_cases_are_pinned() {
    // The runner's per-case seeding and the draw formulas the properties
    // use: integer ranges, `any` words and floats, a pick among options,
    // a sized collection, an optional value and a character class.
    let mut cases = Vec::new();
    check("pinned", 16, |rng| {
        let word = rng.next_u64();
        let flag = rng.next_u64() & 1 == 1;
        let mag = rng.unit() * 1e15;
        let float = if rng.next_u64() & 1 == 1 { mag } else { -mag };
        let small = rng.below(80) as i32 - 40;
        let byte = rng.below(256) as u8;
        let unit = rng.uniform(1.5, 2.5);
        let picks: Vec<u16> = (0..rng.below(6))
            .map(|_| if rng.below(2) == 0 { 0 } else { 7 + rng.below(3) as u16 })
            .collect();
        let text = (!rng.chance(0.25)).then(|| {
            (0..1 + rng.below(3)).map(|_| b"abc"[rng.below(3) as usize] as char).collect::<String>()
        });
        cases.push(((word, flag, float, small), (byte, unit, picks, text)));
    });
    assert_eq!(digest(&cases), 0xfea4_d3ab_ce76_625e, "digest: {:#x}", digest(&cases));
}
