//! String codecs for the workspace's hand-written JSON writers: string
//! escaping, and the hex form binary payloads travel in.

use crate::{Error, Result};
use std::fmt::Write as _;

/// Escapes `s` for use between the quotes of a JSON string: `"` and `\`
/// get a backslash, control characters their short (`\n`, `\r`, `\t`) or
/// `\u00XX` form; everything else passes through.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Lower-case hex digits of `bytes`, two per byte.
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(out, "{b:02x}");
    }
    out
}

/// Inverse of [`hex_encode`] (either case). Decodes over the raw bytes, so
/// a corrupted payload holding a multi-byte character is an
/// [`Error::Codec`] rather than a slice panic, as is an odd length.
pub fn hex_decode(s: &str) -> Result<Vec<u8>> {
    let nibble = |b: u8| {
        char::from(b).to_digit(16).ok_or_else(|| Error::Codec("non-hex byte in payload".into()))
    };
    let s = s.as_bytes();
    if !s.len().is_multiple_of(2) {
        return Err(Error::Codec("odd-length hex payload".into()));
    }
    s.chunks_exact(2).map(|p| Ok((nibble(p[0])? << 4 | nibble(p[1])?) as u8)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters_only() {
        assert_eq!(json_escape("group=\"3\" a\\b"), "group=\\\"3\\\" a\\\\b");
        assert_eq!(json_escape("a\nb\rc\td\u{1}"), "a\\nb\\rc\\td\\u0001");
        let plain = "deadbeef shard=2 µs é";
        assert_eq!(json_escape(plain), plain);
    }

    #[test]
    fn hex_round_trips_and_rejects_odd_or_non_hex_input() {
        let bytes = [0x00, 0x7f, 0x80, 0xab, 0xff];
        assert_eq!(hex_encode(&bytes), "007f80abff");
        assert_eq!(hex_decode("007F80abff").unwrap(), bytes);
        for bad in ["abc", "zz", "éé"] {
            assert!(matches!(hex_decode(bad), Err(Error::Codec(_))), "{bad:?}");
        }
    }
}
