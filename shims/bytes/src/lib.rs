//! Offline shim for the `bytes` crate: a cheaply cloneable, sliceable,
//! immutable byte buffer backed by `Arc<Vec<u8>>` — no unsafe code.
//!
//! The workspace uses a narrow API subset:
//!
//! * [`Bytes`] — ref-counted view `(Arc<Vec<u8>>, offset, len)`. `clone`,
//!   [`Bytes::slice`], [`Bytes::split_to`] and [`Bytes::split_off`] are
//!   O(1): they bump the refcount and adjust the window, never copying
//!   payload bytes.
//! * [`BytesMut`] — a plain growable buffer that [`BytesMut::freeze`]s
//!   into a `Bytes` without copying.
//!
//! Beyond the upstream-compatible core, the shim exposes the two
//! provenance queries the zero-copy data plane is built on:
//! [`Bytes::same_parent`] (do two views share one backing allocation?)
//! and [`Bytes::try_join`] (merge adjacent views of one parent in O(1)).

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable view into a ref-counted byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    offset: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer (no allocation is shared; `Arc<Vec>` is empty).
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copies a slice into a fresh buffer (the one constructor that
    /// inherently copies).
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Length of this view in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pointer to the first byte of this view. Two views of the same
    /// parent at the same offset return the same pointer, which is how
    /// the fan-out tests assert replicas alias one allocation.
    pub fn as_ptr(&self) -> *const u8 {
        self.as_slice().as_ptr()
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.offset..self.offset + self.len]
    }

    /// O(1) sub-view; shares the backing allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or decreasing.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "slice [{start}, {end}) out of bounds of Bytes of length {}",
            self.len
        );
        Bytes {
            data: Arc::clone(&self.data),
            offset: self.offset + start,
            len: end - start,
        }
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the
    /// rest. O(1), shares the backing allocation.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len, "split_to {at} > len {}", self.len);
        let head = self.slice(..at);
        self.offset += at;
        self.len -= at;
        head
    }

    /// Splits off and returns everything from `at` on; `self` keeps the
    /// first `at` bytes. O(1), shares the backing allocation.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len, "split_off {at} > len {}", self.len);
        let tail = self.slice(at..);
        self.len = at;
        tail
    }

    /// Shortens the view to at most `len` bytes (no-op if already
    /// shorter). O(1).
    pub fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
    }

    /// Empties the view. O(1).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Whether two views share one backing allocation, regardless of
    /// their windows.
    pub fn same_parent(&self, other: &Bytes) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Merges two views in O(1) if `next` starts exactly where `self`
    /// ends within the same parent; `None` otherwise. Either side being
    /// empty yields the other unchanged, so a fold over segments starts
    /// from `Bytes::new()`.
    pub fn try_join(&self, next: &Bytes) -> Option<Bytes> {
        if self.is_empty() {
            return Some(next.clone());
        }
        if next.is_empty() {
            return Some(self.clone());
        }
        if self.same_parent(next) && self.offset + self.len == next.offset {
            Some(Bytes {
                data: Arc::clone(&self.data),
                offset: self.offset,
                len: self.len + next.len,
            })
        } else {
            None
        }
    }

    /// Mutable access via copy-on-write: borrows the backing bytes in
    /// place when this view uniquely owns its whole parent, otherwise
    /// first detaches into a private copy (the only time bytes move).
    pub fn make_mut(&mut self) -> &mut [u8] {
        let unique = Arc::strong_count(&self.data) == 1;
        if !(unique && self.offset == 0 && self.len == self.data.len()) {
            let copy = self.as_slice().to_vec();
            self.data = Arc::new(copy);
            self.offset = 0;
            self.len = self.data.len();
        }
        let len = self.len;
        // The Arc is uniquely owned after the detach above.
        &mut Arc::get_mut(&mut self.data).expect("detached arc is unique")[..len]
    }

    /// Copies the view out into an owned `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes {
            data: Arc::new(v),
            offset: 0,
            len,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::from(s.to_vec())
    }
}

impl From<&Vec<u8>> for Bytes {
    fn from(s: &Vec<u8>) -> Self {
        Bytes::from(s.clone())
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(a: [u8; N]) -> Self {
        Bytes::from(a.to_vec())
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(a: &[u8; N]) -> Self {
        Bytes::from(a.to_vec())
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Self {
        b.to_vec()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A growable byte buffer that freezes into [`Bytes`] without copying.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(capacity),
        }
    }

    /// A zero-filled buffer of `len` bytes.
    pub fn zeroed(len: usize) -> Self {
        BytesMut { data: vec![0; len] }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.data.extend_from_slice(extend);
    }

    /// Alias for [`BytesMut::extend_from_slice`] (upstream `BufMut`).
    pub fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }

    /// Resizes, filling new space with `value`.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.data.resize(new_len, value);
    }

    /// Shortens the buffer to at most `len` bytes.
    pub fn truncate(&mut self, len: usize) {
        self.data.truncate(len);
    }

    /// Empties the buffer.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Converts into an immutable [`Bytes`] without copying: the heap
    /// allocation moves into the new `Arc` parent.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }

    /// Consumes the buffer, returning the underlying vector.
    pub fn into_vec(self) -> Vec<u8> {
        self.data
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(data: Vec<u8>) -> Self {
        BytesMut { data }
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> Self {
        BytesMut { data: s.to_vec() }
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.data, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_and_slice_share_parent() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let c = b.clone();
        let s = b.slice(1..4);
        assert!(b.same_parent(&c));
        assert!(b.same_parent(&s));
        assert_eq!(s, [2u8, 3, 4]);
        assert_eq!(s.as_ptr(), b.slice(1..).as_ptr());
    }

    #[test]
    fn split_to_and_off_match_vec_semantics() {
        let mut b = Bytes::from(vec![0u8, 1, 2, 3, 4, 5]);
        let head = b.split_to(2);
        assert_eq!(head, [0u8, 1]);
        assert_eq!(b, [2u8, 3, 4, 5]);
        let tail = b.split_off(3);
        assert_eq!(b, [2u8, 3, 4]);
        assert_eq!(tail, [5u8]);
        assert!(head.same_parent(&tail));
    }

    #[test]
    fn try_join_merges_adjacent_views_only() {
        let b = Bytes::from(vec![9u8; 100]);
        let left = b.slice(0..40);
        let right = b.slice(40..100);
        let gap = b.slice(41..100);
        let joined = left.try_join(&right).expect("adjacent");
        assert_eq!(joined.len(), 100);
        assert_eq!(joined.as_ptr(), b.as_ptr());
        assert!(left.try_join(&gap).is_none());
        let other = Bytes::from(vec![9u8; 60]);
        assert!(left.try_join(&other).is_none());
        assert_eq!(Bytes::new().try_join(&right).expect("empty lhs"), right);
        assert_eq!(left.try_join(&Bytes::new()).expect("empty rhs"), left);
    }

    #[test]
    fn make_mut_is_copy_on_write() {
        let mut a = Bytes::from(vec![1u8, 2, 3]);
        let b = a.clone();
        a.make_mut()[0] = 99;
        assert_eq!(a, [99u8, 2, 3]);
        assert_eq!(b, [1u8, 2, 3], "sibling view unaffected");
        assert!(!a.same_parent(&b), "mutation detached the parent");
        // Unique whole-parent views mutate in place.
        let ptr = a.as_ptr();
        a.make_mut()[1] = 42;
        assert_eq!(a.as_ptr(), ptr, "unique view mutated without copying");
    }

    #[test]
    fn freeze_moves_without_copying() {
        let mut m = BytesMut::with_capacity(8);
        m.extend_from_slice(&[1, 2, 3]);
        m.resize(5, 0);
        let ptr = m.as_ref().as_ptr();
        let b = m.freeze();
        assert_eq!(b, [1u8, 2, 3, 0, 0]);
        assert_eq!(b.as_ptr(), ptr, "freeze reuses the allocation");
    }

    #[test]
    fn equality_across_types() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b, vec![1u8, 2, 3]);
        assert_eq!(vec![1u8, 2, 3], b);
        assert_eq!(b, [1u8, 2, 3]);
        assert_eq!(b, &[1u8, 2, 3][..]);
        assert_eq!(b[1], 2);
        assert_eq!(&b[1..], &[2u8, 3][..]);
    }

    #[test]
    fn truncate_and_clear_are_window_ops() {
        let parent = Bytes::from(vec![7u8; 10]);
        let mut b = parent.clone();
        b.truncate(4);
        assert_eq!(b.len(), 4);
        assert!(b.same_parent(&parent));
        b.clear();
        assert!(b.is_empty());
    }
}
