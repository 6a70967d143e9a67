//! Umbrella crate for the AETS reproduction workspace.
//!
//! Re-exports the public surface of every sub-crate so that examples and
//! integration tests can use a single dependency. Downstream users should
//! depend on the individual crates (`aets-replay`, `aets-memtable`, ...).

pub use aets_common as common;
pub use aets_fleet as fleet;
pub use aets_forecast as forecast;
pub use aets_memtable as memtable;
pub use aets_neural as neural;
pub use aets_replay as replay;
pub use aets_simulator as simulator;
pub use aets_telemetry as telemetry;
pub use aets_transport as transport;
pub use aets_wal as wal;
pub use aets_workloads as workloads;

/// The seeds a seeded test suite runs: its `pinned` ones, or the single
/// seed in `AETS_SEED` when that is set, to replay one CI lane or bisect
/// a failure. A value that does not parse as a `u64` is ignored.
pub fn seeds(pinned: &[u64]) -> Vec<u64> {
    match std::env::var("AETS_SEED").ok().and_then(|s| s.parse().ok()) {
        Some(seed) => vec![seed],
        None => pinned.to_vec(),
    }
}
