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
/// a failure. The value is a `u64` in decimal or in `0x` hex, the form
/// the suites print a failing seed in; a value that is neither panics,
/// so a mistyped seed never quietly runs the pinned ones instead.
pub fn seeds(pinned: &[u64]) -> Vec<u64> {
    let Some(raw) = std::env::var_os("AETS_SEED") else { return pinned.to_vec() };
    let seed = raw.to_str().and_then(parse_seed);
    vec![seed.unwrap_or_else(|| panic!("AETS_SEED={raw:?} is neither a decimal nor a 0x-hex u64"))]
}

/// A `u64` written in decimal or `0x` hex, with `_` separators allowed.
fn parse_seed(s: &str) -> Option<u64> {
    let digits = s.replace('_', "");
    match digits.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => digits.parse().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::parse_seed;

    #[test]
    fn seeds_parse_in_decimal_or_hex() {
        // The forms CI passes and the suites print.
        assert_eq!(parse_seed("15855216"), Some(0x00F1_EE70));
        assert_eq!(parse_seed("01337"), Some(1337));
        assert_eq!(parse_seed("0xf1ee70"), Some(15855216));
        assert_eq!(parse_seed("0x00F1_EE70"), Some(15855216));
        assert_eq!(parse_seed("1_000"), Some(1000));
        assert_eq!(parse_seed("0xffff_ffff_ffff_ffff"), Some(u64::MAX));
        for bad in [
            "",
            "0x",
            "seed",
            "f1ee70",
            "0xg1",
            "0X5E1F",
            "-1",
            "18446744073709551616",
            "0x1_0000_0000_0000_0000",
        ] {
            assert_eq!(parse_seed(bad), None, "{bad:?}");
        }
    }
}
