//! Tiny JSON document model replacing the external `serde_json`
//! dependency for result blobs (offline build). Only what the experiment
//! writers need: construction via the [`crate::json!`] macro, conversion of the
//! workspace's scalar/collection types, and pretty printing.

use aets_common::json_escape;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (serialized in shortest-roundtrip form).
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object. Keys stay in insertion order is not required by any
    /// consumer, so a sorted map keeps output deterministic.
    Obj(BTreeMap<String, Json>),
}

/// Conversion into [`Json`], the stand-in for `serde::Serialize`.
pub trait ToJson {
    /// Converts `self` to a JSON document.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

macro_rules! impl_to_json_num {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )*};
}
impl_to_json_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl Json {
    /// Pretty-prints with 2-space indentation (the `to_string_pretty`
    /// layout the result blobs have always used).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&json_escape(s));
    out.push('"');
}

/// Builds a [`Json`] object or array literal, mirroring `serde_json::json!`
/// for the shapes used in this crate.
#[macro_export]
macro_rules! json {
    ({ $($key:literal : $val:expr),* $(,)? }) => {{
        let mut map = std::collections::BTreeMap::new();
        $(map.insert(
            $key.to_string(),
            $crate::json::ToJson::to_json(&$val),
        );)*
        $crate::json::Json::Obj(map)
    }};
    ([ $($val:expr),* $(,)? ]) => {
        $crate::json::Json::Arr(vec![
            $($crate::json::ToJson::to_json(&$val),)*
        ])
    };
    (null) => {
        $crate::json::Json::Null
    };
    ($val:expr) => {
        $crate::json::ToJson::to_json(&$val)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_and_array_literals_build() {
        let j = json!({ "a": 1, "b": "x", "c": [1.5, 2.0], "d": true });
        let Json::Obj(map) = &j else { panic!("expected object") };
        assert_eq!(map["a"], Json::Num(1.0));
        assert_eq!(map["b"], Json::Str("x".into()));
        assert_eq!(map["c"], Json::Arr(vec![Json::Num(1.5), Json::Num(2.0)]));
        assert_eq!(map["d"], Json::Bool(true));
    }

    #[test]
    fn nested_collections_convert() {
        let series: Vec<Vec<f64>> = vec![vec![1.0], vec![2.0, 3.0]];
        let j = json!({ "series": series, "tables": ["a", "b"] });
        let s = j.pretty();
        assert!(s.contains("\"series\""));
        assert!(s.contains("\"a\""));
    }

    #[test]
    fn pretty_output_is_valid_layout() {
        let j = json!({ "k": [1, 2], "s": "he said \"hi\"\n" });
        let s = j.pretty();
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\\\"hi\\\""));
        assert!(s.contains("\\n"));
        // Integral floats print without a trailing ".0".
        assert!(s.contains("1") && !s.contains("1.0"));
    }

    #[test]
    fn empty_containers_render_compact() {
        assert_eq!(Json::Arr(vec![]).pretty(), "[]");
        assert_eq!(Json::Obj(Default::default()).pretty(), "{}");
        assert_eq!(json!(null).pretty(), "null");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).pretty(), "null");
        assert_eq!(Json::Num(f64::INFINITY).pretty(), "null");
    }
}
