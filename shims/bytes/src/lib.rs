//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so the workspace vendors
//! the small slice of the `bytes` API that raincore actually uses: cheaply
//! clonable immutable [`Bytes`] (reference-counted, zero-copy slicing), a
//! growable [`BytesMut`] builder, and the [`Buf`]/[`BufMut`] traits.
//! Semantics match the real crate for this subset. Performance matches it
//! where the codec and the payload paths lean on it — slicing is O(1), clone
//! is an `Arc` bump, and the one-line leaf methods are `#[inline]`, as the
//! real crate's are, so an encode's per-byte `put_u8` is not a call across
//! the crate boundary — with one difference: `from_static`, `freeze` and
//! `From<Vec<u8>>` copy once into a fresh allocation, where the real crate
//! borrows or takes over the buffer.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Cheaply clonable, immutable, contiguous byte buffer.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Empty buffer (does not allocate a payload).
    pub fn new() -> Self {
        Bytes {
            data: Arc::from(&[][..]),
            start: 0,
            end: 0,
        }
    }

    /// Buffer backed by a static slice. (The shim copies once; the real
    /// crate borrows. Behaviour is otherwise identical.)
    pub fn from_static(s: &'static [u8]) -> Self {
        Bytes::copy_from_slice(s)
    }

    /// Copy `s` into a new reference-counted buffer.
    pub fn copy_from_slice(s: &[u8]) -> Self {
        Bytes {
            data: Arc::from(s),
            start: 0,
            end: s.len(),
        }
    }

    /// Zero-copy `Bytes` over a caller-managed shared allocation — the
    /// `Bytes::from_owner` constructor (real crate ≥ 1.9) specialized to
    /// the one owner type raincore uses: the `Arc<[u8]>` blocks of the
    /// UDP receive buffer pool. No bytes are copied; the allocation stays
    /// alive until the last clone (and the caller's own `Arc`) drops, so
    /// the caller can probe `Arc::strong_count` to learn when the block
    /// is reusable.
    pub fn from_owner(owner: Arc<[u8]>) -> Self {
        let end = owner.len();
        Bytes {
            data: owner,
            start: 0,
            end,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// O(1) sub-slice sharing the same allocation.
    ///
    /// Panics if the range is out of bounds, like the real crate.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            begin <= end,
            "range start must not be greater than end: {begin} <= {end}"
        );
        assert!(end <= len, "range end out of bounds: {end} <= {len}");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    /// Split off the bytes from `at` to the end; `self` keeps `[0, at)`.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        assert!(
            at <= self.len(),
            "split_off out of bounds: {at} <= {}",
            self.len()
        );
        let tail = self.slice(at..);
        self.end = self.start + at;
        tail
    }

    /// Split off the first `at` bytes; `self` keeps `[at, len)`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(
            at <= self.len(),
            "split_to out of bounds: {at} <= {}",
            self.len()
        );
        let head = self.slice(..at);
        self.start += at;
        head
    }

    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.end = self.start + len;
        }
    }

    pub fn clear(&mut self) {
        self.end = self.start;
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    #[inline]
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
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

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}
impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl PartialEq<Bytes> for &[u8] {
    fn eq(&self, other: &Bytes) -> bool {
        *self == other.as_slice()
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

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            if b.is_ascii_graphic() || b == b' ' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes {
            data: Arc::from(v.into_boxed_slice()),
            start: 0,
            end: len,
        }
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Self {
        let len = v.len();
        Bytes {
            data: Arc::from(v),
            start: 0,
            end: len,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl<const N: usize> From<&'static [u8; N]> for Bytes {
    fn from(s: &'static [u8; N]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        Bytes::from(b.inner)
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Growable byte buffer used to build up messages, frozen into [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BytesMut {
    inner: Vec<u8>,
}

impl BytesMut {
    #[inline]
    pub fn new() -> Self {
        BytesMut { inner: Vec::new() }
    }

    #[inline]
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            inner: Vec::with_capacity(cap),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.inner.reserve(additional);
    }

    #[inline]
    pub fn clear(&mut self) {
        self.inner.clear();
    }

    #[inline]
    pub fn truncate(&mut self, len: usize) {
        self.inner.truncate(len);
    }

    #[inline]
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.inner.extend_from_slice(s);
    }

    /// Convert into an immutable [`Bytes`] (the shim copies once; see the
    /// crate docs).
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.inner)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.inner
    }
}

impl std::ops::DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.inner
    }
}

impl AsRef<[u8]> for BytesMut {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.inner
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut({} bytes)", self.inner.len())
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.inner.extend(iter);
    }
}

/// Read side of a byte cursor.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    #[inline]
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn get_u8(&mut self) -> u8 {
        assert!(self.has_remaining(), "get_u8 past end of buffer");
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(
            self.remaining() >= dst.len(),
            "copy_to_slice past end of buffer"
        );
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }
    #[inline]
    fn chunk(&self) -> &[u8] {
        self
    }
    #[inline]
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }
    #[inline]
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end of buffer");
        self.start += cnt;
    }
}

/// Write side of a byte sink.
pub trait BufMut {
    fn put_u8(&mut self, v: u8);
    fn put_slice(&mut self, s: &[u8]);

    #[inline]
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }
    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    #[inline]
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.inner.push(v);
    }
    #[inline]
    fn put_slice(&mut self, s: &[u8]) {
        self.inner.extend_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_allocation() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.len(), 3);
        let s2 = s.slice(1..);
        assert_eq!(&s2[..], &[3, 4]);
    }

    #[test]
    fn from_owner_shares_without_copy() {
        let block: Arc<[u8]> = vec![9u8; 64].into();
        let b = Bytes::from_owner(block.clone()).slice(8..12);
        // One handle in the pool (`block`) + one inside `b`.
        assert_eq!(Arc::strong_count(&block), 2);
        assert_eq!(&b[..], &[9, 9, 9, 9]);
        drop(b);
        assert_eq!(Arc::strong_count(&block), 1);
    }

    #[test]
    fn freeze_round_trip() {
        let mut m = BytesMut::with_capacity(8);
        m.put_u8(7);
        m.put_slice(&[8, 9]);
        m.extend_from_slice(&[10]);
        let b = m.freeze();
        assert_eq!(&b[..], &[7, 8, 9, 10]);
        assert_eq!(b, Bytes::from_static(&[7, 8, 9, 10]));
    }

    #[test]
    fn split_and_truncate() {
        let mut b = Bytes::from(vec![0u8, 1, 2, 3, 4]);
        let tail = b.split_off(3);
        assert_eq!(&b[..], &[0, 1, 2]);
        assert_eq!(&tail[..], &[3, 4]);
        let mut c = Bytes::from(vec![0u8, 1, 2, 3]);
        let head = c.split_to(1);
        assert_eq!(&head[..], &[0]);
        assert_eq!(&c[..], &[1, 2, 3]);
        c.truncate(1);
        assert_eq!(&c[..], &[1]);
    }

    #[test]
    fn buf_cursor() {
        let mut s: &[u8] = &[1, 2, 3];
        assert_eq!(s.get_u8(), 1);
        assert_eq!(s.remaining(), 2);
        let mut out = [0u8; 2];
        s.copy_to_slice(&mut out);
        assert_eq!(out, [2, 3]);
        assert!(!s.has_remaining());
    }
}
