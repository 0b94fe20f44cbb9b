//! Offline shim for the [`bytes`](https://crates.io/crates/bytes) API subset
//! this workspace uses: `Bytes` (cheaply clonable shared buffer), `BytesMut`
//! (growable buffer), and the `Buf`/`BufMut` cursor traits. `Bytes` is backed
//! by an `Arc<[u8]>` plus an offset/length window, so `clone` and
//! `copy_to_bytes` are O(1) reference bumps exactly like the real crate. See
//! the workspace README's "Dependency policy" section.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A cheaply clonable, immutable, contiguous slice of memory.
#[derive(Clone)]
pub struct Bytes {
    data: Repr,
    start: usize,
    end: usize,
}

/// Backing storage: borrowed statics avoid allocation (and permit `const`
/// construction); everything else is a shared `Arc` window.
#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<[u8]>),
}

impl Repr {
    fn as_slice(&self) -> &[u8] {
        match self {
            Repr::Static(s) => s,
            Repr::Shared(a) => a,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Bytes {
    /// Creates an empty `Bytes`.
    pub const fn new() -> Self {
        Bytes { data: Repr::Static(&[]), start: 0, end: 0 }
    }

    /// Creates `Bytes` from a static slice without copying.
    pub const fn from_static(slice: &'static [u8]) -> Self {
        Bytes { data: Repr::Static(slice), start: 0, end: slice.len() }
    }

    /// Creates `Bytes` by copying `slice`.
    pub fn copy_from_slice(slice: &[u8]) -> Self {
        // One allocation: straight into the shared buffer, no staging `Vec`.
        let data: Arc<[u8]> = Arc::from(slice);
        Bytes { data: Repr::Shared(data), start: 0, end: slice.len() }
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a sub-view of `self` for the given range (O(1), shares the
    /// backing allocation).
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes { data: self.data.clone(), start: self.start + lo, end: self.start + hi }
    }

    /// Splits off and returns the bytes after `at`, leaving `self` with the
    /// first `at` bytes (both views share the allocation).
    pub fn split_off(&mut self, at: usize) -> Bytes {
        let tail = self.slice(at..);
        self.end = self.start + at;
        tail
    }

    /// Splits off and returns the first `at` bytes, advancing `self` past
    /// them (both views share the allocation).
    pub fn split_to(&mut self, at: usize) -> Bytes {
        let head = self.slice(..at);
        self.start += at;
        head
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data.as_slice()[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let data: Arc<[u8]> = v.into();
        let end = data.len();
        Bytes { data: Repr::Shared(data), start: 0, end }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self[..] == other[..]
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self[..] == **other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self[..].cmp(&other[..])
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        // The copy is deliberate: `self` may share its backing allocation.
        #[allow(clippy::unnecessary_to_owned)]
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self[..].iter()
    }
}

/// A growable, uniquely owned byte buffer.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BytesMut {
    vec: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut { vec: Vec::new() }
    }

    /// Creates an empty buffer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { vec: Vec::with_capacity(cap) }
    }

    /// Length of the buffer in bytes.
    pub fn len(&self) -> usize {
        self.vec.len()
    }

    /// Number of bytes the buffer can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.vec.capacity()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    /// Reserves capacity for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.vec.reserve(additional);
    }

    /// Appends `extend` to the buffer.
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.vec.extend_from_slice(extend);
    }

    /// Converts the buffer into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.vec)
    }

    /// Splits off and returns the bytes after `at`, leaving `self` with the
    /// first `at` bytes.
    pub fn split_off(&mut self, at: usize) -> BytesMut {
        BytesMut { vec: self.vec.split_off(at) }
    }

    /// Splits off and returns the first `at` bytes, advancing `self` past
    /// them.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        let tail = self.vec.split_off(at);
        BytesMut { vec: std::mem::replace(&mut self.vec, tail) }
    }

    /// Clears the buffer.
    pub fn clear(&mut self) {
        self.vec.clear();
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.vec
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.vec
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(vec: Vec<u8>) -> Self {
        BytesMut { vec }
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> Self {
        BytesMut { vec: s.to_vec() }
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Bytes::copy_from_slice(&self.vec).fmt(f)
    }
}

/// Read cursor over a contiguous or windowed byte source.
pub trait Buf {
    /// Bytes remaining between the cursor and the end of the source.
    fn remaining(&self) -> usize;
    /// The current contiguous chunk at the cursor.
    fn chunk(&self) -> &[u8];
    /// Advances the cursor by `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Copies `dst.len()` bytes from the cursor into `dst` and advances.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        let mut off = 0;
        while off < dst.len() {
            let chunk = self.chunk();
            let n = chunk.len().min(dst.len() - off);
            dst[off..off + n].copy_from_slice(&chunk[..n]);
            off += n;
            self.advance(n);
        }
    }

    /// Reads one byte and advances.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a little-endian `u16` and advances.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    /// Reads a little-endian `u32` and advances.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian `u64` and advances.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Reads a little-endian `u128` and advances.
    fn get_u128_le(&mut self) -> u128 {
        let mut b = [0u8; 16];
        self.copy_to_slice(&mut b);
        u128::from_le_bytes(b)
    }

    /// Reads a little-endian `i64` and advances.
    fn get_i64_le(&mut self) -> i64 {
        self.get_u64_le() as i64
    }

    /// Copies the next `len` bytes into a fresh [`Bytes`] and advances.
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        let mut v = vec![0u8; len];
        self.copy_to_slice(&mut v);
        Bytes::from(v)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.start += cnt;
    }
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        self.split_to(len)
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        self.vec.drain(..cnt);
    }
}

impl<B: Buf + ?Sized> Buf for &mut B {
    fn remaining(&self) -> usize {
        (**self).remaining()
    }
    fn chunk(&self) -> &[u8] {
        (**self).chunk()
    }
    fn advance(&mut self, cnt: usize) {
        (**self).advance(cnt)
    }
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        // Must forward rather than use the default copying body: nested
        // decoders reborrow (`&mut &mut Bytes`), and only forwarding
        // preserves `Bytes`' O(1) window-split specialization.
        (**self).copy_to_bytes(len)
    }
}

/// Write cursor appending to a growable byte sink.
pub trait BufMut {
    /// Appends `src`.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u128`.
    fn put_u128_le(&mut self, v: u128) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `i64`.
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.vec.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl<B: BufMut + ?Sized> BufMut for &mut B {
    fn put_slice(&mut self, src: &[u8]) {
        (**self).put_slice(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_window_ops() {
        let mut b = Bytes::from(b"hello world".to_vec());
        assert_eq!(b.slice(0..5), Bytes::from_static(b"hello"));
        let tail = b.split_off(5);
        assert_eq!(b, Bytes::from_static(b"hello"));
        assert_eq!(tail, Bytes::from_static(b" world"));
    }

    #[test]
    fn buf_roundtrip() {
        let mut m = BytesMut::new();
        m.put_u8(7);
        m.put_u32_le(0xdead_beef);
        m.put_u64_le(42);
        m.put_slice(b"xy");
        let mut r: &[u8] = &m;
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32_le(), 0xdead_beef);
        assert_eq!(r.get_u64_le(), 42);
        assert_eq!(r.copy_to_bytes(2), Bytes::from_static(b"xy"));
        assert!(!r.has_remaining());
    }

    #[test]
    fn bytes_advance_is_window_shift() {
        let mut b = Bytes::from(b"abcdef".to_vec());
        b.advance(2);
        assert_eq!(&b[..], b"cdef");
        let head = b.copy_to_bytes(2);
        assert_eq!(&head[..], b"cd");
        assert_eq!(&b[..], b"ef");
    }
}
