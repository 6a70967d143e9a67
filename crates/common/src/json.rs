//! JSON string escaping for the workspace's hand-written JSON writers.

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
}
