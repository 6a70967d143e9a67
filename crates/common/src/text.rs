//! UTF-8 string view over shared [`Bytes`] storage.
//!
//! A decoded `Value::Text` wraps `Bytes` rather than a `String`, so
//! cloning a value during replay is a reference-count bump. The decoder
//! gives each text payload an allocation of its own rather than a slice of
//! the buffer it read. The validity invariant is established once at
//! construction ([`Utf8Bytes::from_utf8`]) and every accessor relies on
//! it.

use bytes::Bytes;
use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::str::Utf8Error;

/// An immutable UTF-8 string backed by shared [`Bytes`].
///
/// Invariant: the wrapped bytes are always valid UTF-8.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Utf8Bytes(Bytes);

// Hash must agree with `str` because of the `Borrow<str>` impl below
// (`Bytes`' slice hash has a different prefix/terminator scheme).
impl std::hash::Hash for Utf8Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl Utf8Bytes {
    /// Validates `bytes` as UTF-8 and wraps them without copying.
    pub fn from_utf8(bytes: Bytes) -> Result<Self, Utf8Error> {
        std::str::from_utf8(&bytes)?;
        Ok(Self(bytes))
    }

    /// The string contents.
    #[inline]
    pub fn as_str(&self) -> &str {
        // SAFETY: constructors validate UTF-8 and Bytes is immutable.
        unsafe { std::str::from_utf8_unchecked(&self.0) }
    }

    /// The raw bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the string is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The underlying shared buffer.
    #[inline]
    pub fn into_bytes(self) -> Bytes {
        self.0
    }
}

impl Deref for Utf8Bytes {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Utf8Bytes {
    #[inline]
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Utf8Bytes {
    #[inline]
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Utf8Bytes {
    fn from(s: &str) -> Self {
        Self(Bytes::from(s.as_bytes().to_vec()))
    }
}

impl From<String> for Utf8Bytes {
    fn from(s: String) -> Self {
        Self(Bytes::from(s.into_bytes()))
    }
}

impl PartialEq<str> for Utf8Bytes {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Utf8Bytes {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Debug for Utf8Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Utf8Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_utf8() {
        let ok = Utf8Bytes::from_utf8(Bytes::from(b"h\xc3\xa9llo".to_vec())).unwrap();
        assert_eq!(ok.as_str(), "héllo");
        assert!(Utf8Bytes::from_utf8(Bytes::from(vec![0xFF, 0xFE])).is_err());
    }

    #[test]
    fn zero_copy_from_shared_buffer() {
        let buf = Bytes::from(b"prefix-text".to_vec());
        let s = Utf8Bytes::from_utf8(buf.slice(7..)).unwrap();
        assert_eq!(s, "text");
        // The slice shares the original allocation, no copy happened.
        assert_eq!(s.as_bytes().as_ptr(), buf[7..].as_ptr());
    }

    #[test]
    fn string_like_semantics() {
        let a = Utf8Bytes::from("abc");
        let b = Utf8Bytes::from("abd".to_string());
        assert!(a < b);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert!(Utf8Bytes::default().is_empty());
        assert_eq!(format!("{a}"), "abc");
        assert_eq!(format!("{a:?}"), "\"abc\"");
        assert_eq!(&*a, "abc");
    }

    #[test]
    fn hashes_like_str() {
        use std::collections::HashMap;
        let mut m: HashMap<Utf8Bytes, i32> = HashMap::new();
        m.insert(Utf8Bytes::from("k"), 1);
        // Borrow<str> + str-compatible Hash allow &str lookups.
        assert_eq!(m.get("k"), Some(&1));
        assert_eq!(m.get("missing"), None);
    }
}
