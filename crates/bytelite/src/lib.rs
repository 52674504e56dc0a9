//! # bytelite — a std-only, cheaply-cloneable byte buffer
//!
//! A minimal stand-in for the `bytes` crate's `Bytes` type, built on
//! `Arc<[u8]>` so this workspace resolves with zero external dependencies.
//! Provides exactly the surface the repo uses: cheap `clone`, zero-copy
//! `slice`, `Deref<Target = [u8]>`, and the usual conversions.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted byte buffer. Cloning and slicing are
/// O(1) and share the underlying allocation.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// The empty buffer.
    pub(crate) fn new() -> Bytes {
        Bytes::from(Vec::new())
    }

    /// Wrap a static slice. (Copies once into the shared allocation; the
    /// semantics — an immutable shared buffer — are identical.)
    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::from(bytes)
    }

    /// Copy a slice into a fresh buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data)
    }

    pub(crate) fn len(&self) -> usize {
        self.end - self.start
    }

    /// Zero-copy sub-buffer over `range` (indices relative to `self`).
    ///
    /// # Panics
    /// Panics when the range is out of bounds, matching `bytelite::Bytes`.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(begin <= end, "slice index starts at {begin} but ends at {end}");
        assert!(end <= self.len(), "range end {end} out of bounds (len {})", self.len());
        Bytes { data: Arc::clone(&self.data), start: self.start + begin, end: self.start + end }
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let len = v.len();
        Bytes { data: Arc::from(v), start: 0, end: len }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Bytes {
        let len = s.len();
        Bytes { data: Arc::from(s), start: 0, end: len }
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(s: &[u8; N]) -> Bytes {
        Bytes::from(&s[..])
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Bytes {
        Bytes::from(s.as_bytes())
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

impl std::iter::FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_allocation() {
        let a = Bytes::from(vec![1u8, 2, 3, 4]);
        let b = a.clone();
        assert_eq!(a, b);
        assert!(Arc::ptr_eq(&a.data, &b.data));
    }

    #[test]
    fn slice_is_zero_copy_and_relative() {
        let a = Bytes::from(&b"hello world"[..]);
        let s = a.slice(6..);
        assert_eq!(&s[..], b"world");
        assert!(Arc::ptr_eq(&a.data, &s.data));
        let s2 = s.slice(1..3);
        assert_eq!(&s2[..], b"or");
    }

    #[test]
    #[should_panic]
    fn slice_out_of_bounds_panics() {
        Bytes::from(&b"abc"[..]).slice(0..4);
    }

    #[test]
    fn conversions_and_eq() {
        assert_eq!(Bytes::from_static(b"x"), Bytes::from(vec![b'x']));
        assert_eq!(Bytes::copy_from_slice(b"yz").len(), 2);
        assert_eq!(Bytes::from(String::from("s")), Bytes::from("s"));
        assert_eq!(Bytes::new().len(), 0);
        assert_eq!(format!("{:?}", Bytes::from(&b"a\n"[..])), "b\"a\\n\"");
    }
}
