//! Compact binary wire codec.
//!
//! Every Raincore datagram — transport frames, tokens, 911 calls, beacons —
//! is encoded with this codec before it is handed to the (simulated or
//! real) network. The format is deliberately simple:
//!
//! * unsigned integers as LEB128 varints,
//! * byte strings and sequences length-prefixed with a varint,
//! * enums as a one-byte tag followed by the variant fields.
//!
//! Decoding is fully length-checked and returns [`WireError`] on truncated
//! or malformed input; it never panics and the crate forbids `unsafe`.
//! Round-tripping of all message types is property-tested.

use bytes::{BufMut, Bytes, BytesMut};
use core::fmt;

/// Error produced when decoding malformed or truncated wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    Truncated,
    /// A varint exceeded 64 bits.
    VarintOverflow,
    /// An enum tag byte did not match any known variant.
    BadTag {
        /// The type being decoded.
        ty: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A declared length prefix was implausibly large for the remaining input.
    BadLength {
        /// Declared element count or byte length.
        declared: u64,
        /// Bytes actually remaining in the buffer.
        remaining: usize,
    },
    /// Trailing bytes remained after a complete message was decoded.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire data truncated"),
            WireError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            WireError::BadTag { ty, tag } => write!(f, "unknown tag {tag} for {ty}"),
            WireError::BadLength {
                declared,
                remaining,
            } => {
                write!(
                    f,
                    "declared length {declared} exceeds remaining {remaining} bytes"
                )
            }
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

/// Result alias for wire decoding.
pub type WireResult<T> = core::result::Result<T, WireError>;

/// Bytes [`Writer::put_varint`] spends on `v`: the arithmetic behind the
/// `wire_len` methods, which size a value without encoding it.
pub fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Growable encode buffer (a thin wrapper over [`BytesMut`]).
#[derive(Default, Debug)]
pub struct Writer {
    buf: BytesMut,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// Appends a LEB128 varint.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.put_u8(byte);
                return;
            }
            self.buf.put_u8(byte | 0x80);
        }
    }

    /// Appends a single raw byte (used for enum tags and booleans).
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Appends a boolean as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.put_u8(v as u8);
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_varint(v.len() as u64);
        self.buf.put_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends raw, already-encoded bytes (no length prefix). Used by the
    /// patch-per-hop token encoder to splice a cached body after a freshly
    /// written header.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.put_slice(v);
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Clears the buffer for reuse, keeping its capacity. Together with
    /// [`Writer::snapshot`] this lets hot paths recycle one scratch buffer
    /// across encodes instead of allocating a fresh one per message.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Copies the current contents into an immutable buffer *without*
    /// consuming the writer: exactly one allocation, and the scratch
    /// capacity stays available for the next encode.
    pub fn snapshot(&self) -> Bytes {
        Bytes::copy_from_slice(&self.buf)
    }

    /// Finishes encoding and returns the immutable byte buffer.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Length-checked decode cursor over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Returns an error if any bytes remain (call after decoding a full
    /// message to reject padded datagrams).
    pub fn expect_end(&self) -> WireResult<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.buf.len()))
        }
    }

    /// Reads a LEB128 varint.
    pub fn get_varint(&mut self) -> WireResult<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let &byte = self.buf.first().ok_or(WireError::Truncated)?;
            self.buf = &self.buf[1..];
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(WireError::VarintOverflow);
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads one raw byte.
    pub fn get_u8(&mut self) -> WireResult<u8> {
        let &byte = self.buf.first().ok_or(WireError::Truncated)?;
        self.buf = &self.buf[1..];
        Ok(byte)
    }

    /// Reads a boolean byte; any nonzero value is `true`.
    pub fn get_bool(&mut self) -> WireResult<bool> {
        Ok(self.get_u8()? != 0)
    }

    /// Reads a length-prefixed byte string, copying it into a fresh buffer.
    pub fn get_bytes(&mut self) -> WireResult<Bytes> {
        let len = self.get_varint()?;
        if len > self.buf.len() as u64 {
            return Err(WireError::BadLength {
                declared: len,
                remaining: self.buf.len(),
            });
        }
        let (head, tail) = self.buf.split_at(len as usize);
        self.buf = tail;
        Ok(Bytes::copy_from_slice(head))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> WireResult<String> {
        let b = self.get_bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::BadTag { ty: "utf8", tag: 0 })
    }

    /// Reads a sequence length prefix, sanity-checking it against the
    /// remaining input (each element needs at least `min_elem_bytes`).
    pub fn get_seq_len(&mut self, min_elem_bytes: usize) -> WireResult<usize> {
        let len = self.get_varint()?;
        let need = len.saturating_mul(min_elem_bytes.max(1) as u64);
        if need > self.buf.len() as u64 {
            return Err(WireError::BadLength {
                declared: len,
                remaining: self.buf.len(),
            });
        }
        Ok(len as usize)
    }
}

/// Types that can be written to the wire.
pub trait WireEncode {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);

    /// Convenience: encodes into a fresh buffer.
    fn encode_to_bytes(&self) -> Bytes {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.finish()
    }
}

/// Types that can be read back from the wire.
pub trait WireDecode: Sized {
    /// Decodes one value from `r`, advancing the cursor.
    fn decode(r: &mut Reader<'_>) -> WireResult<Self>;

    /// Convenience: decodes a value that must occupy the whole buffer.
    fn decode_from_bytes(buf: &[u8]) -> WireResult<Self> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }
}

macro_rules! impl_wire_varint_newtype {
    ($ty:ty, $inner:ty) => {
        impl WireEncode for $ty {
            fn encode(&self, w: &mut Writer) {
                w.put_varint(self.0 as u64);
            }
        }
        impl WireDecode for $ty {
            fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
                Ok(Self(r.get_varint()? as $inner))
            }
        }
    };
}

impl_wire_varint_newtype!(crate::id::NodeId, u32);
impl_wire_varint_newtype!(crate::id::Incarnation, u32);
impl_wire_varint_newtype!(crate::id::MsgId, u64);
impl_wire_varint_newtype!(crate::id::OriginSeq, u64);
impl_wire_varint_newtype!(crate::id::VipId, u32);
impl_wire_varint_newtype!(crate::time::Time, u64);
impl_wire_varint_newtype!(crate::time::Duration, u64);

impl WireEncode for crate::id::GroupId {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }
}

impl WireDecode for crate::id::GroupId {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(crate::id::GroupId(crate::id::NodeId::decode(r)?))
    }
}

impl WireEncode for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(*self);
    }
}

impl WireDecode for u64 {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        r.get_varint()
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
}

impl<T: WireDecode> WireDecode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let len = r.get_seq_len(1)?;
        let mut out = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl WireEncode for Bytes {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self);
    }
}

impl WireDecode for Bytes {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        r.get_bytes()
    }
}

impl WireEncode for String {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self);
    }
}

impl WireDecode for String {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        r.get_str()
    }
}

/// A tuple is its fields, in order.
macro_rules! impl_wire_tuple {
    ($($field:ident)+) => {
        #[allow(non_snake_case)]
        impl<$($field: WireEncode),+> WireEncode for ($($field,)+) {
            fn encode(&self, w: &mut Writer) {
                let ($($field,)+) = self;
                $($field.encode(w);)+
            }
        }
        impl<$($field: WireDecode),+> WireDecode for ($($field,)+) {
            fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
                Ok(($($field::decode(r)?,)+))
            }
        }
    };
}

impl_wire_tuple!(A B);
impl_wire_tuple!(A B C);

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn varint_small_values_one_byte() {
        for v in 0..128u64 {
            let mut w = Writer::new();
            w.put_varint(v);
            assert_eq!(w.len(), 1);
        }
    }

    #[test]
    fn varint_boundaries() {
        for &v in &[0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut w = Writer::new();
            w.put_varint(v);
            let buf = w.finish();
            let mut r = Reader::new(&buf);
            assert_eq!(r.get_varint().unwrap(), v);
            r.expect_end().unwrap();
        }
    }

    #[test]
    fn varint_len_matches_the_encoder() {
        for shift in 0..64 {
            for v in [(1u64 << shift) - 1, 1 << shift, u64::MAX >> shift] {
                let mut w = Writer::new();
                w.put_varint(v);
                assert_eq!(varint_len(v), w.len(), "{v}");
            }
        }
    }

    #[test]
    fn varint_truncated_is_error() {
        let mut w = Writer::new();
        w.put_varint(u64::MAX);
        let buf = w.finish();
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert_eq!(r.get_varint(), Err(WireError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn varint_overflow_is_error() {
        // Eleven continuation bytes encode more than 64 bits.
        let buf = [0xffu8; 11];
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_varint(), Err(WireError::VarintOverflow));
    }

    #[test]
    fn bytes_round_trip_and_bad_length() {
        let mut w = Writer::new();
        w.put_bytes(b"hello");
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(&r.get_bytes().unwrap()[..], b"hello");

        // Length prefix claiming more than available must fail.
        let mut w = Writer::new();
        w.put_varint(100);
        w.put_u8(1);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(matches!(
            r.get_bytes(),
            Err(WireError::BadLength { declared: 100, .. })
        ));
    }

    #[test]
    fn string_round_trip_and_invalid_utf8() {
        let mut w = Writer::new();
        w.put_str("héllo");
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_str().unwrap(), "héllo");

        let mut w = Writer::new();
        w.put_bytes(&[0xff, 0xfe]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(r.get_str().is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = Writer::new();
        w.put_varint(1);
        w.put_u8(0);
        let buf = w.finish();
        assert_eq!(
            u64::decode_from_bytes(&buf),
            Err(WireError::TrailingBytes(1))
        );
    }

    #[test]
    fn vec_round_trip() {
        let v: Vec<u64> = vec![0, 1, u64::MAX];
        let buf = v.encode_to_bytes();
        assert_eq!(Vec::<u64>::decode_from_bytes(&buf).unwrap(), v);
    }

    #[test]
    fn seq_len_guard_rejects_absurd_counts() {
        let mut w = Writer::new();
        w.put_varint(1 << 40);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.get_seq_len(1), Err(WireError::BadLength { .. })));
    }

    proptest! {
        #[test]
        fn prop_varint_round_trip(v in any::<u64>()) {
            let mut w = Writer::new();
            w.put_varint(v);
            let buf = w.finish();
            let mut r = Reader::new(&buf);
            prop_assert_eq!(r.get_varint().unwrap(), v);
            prop_assert_eq!(r.remaining(), 0);
        }

        #[test]
        fn prop_bytes_round_trip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let mut w = Writer::new();
            w.put_bytes(&data);
            let buf = w.finish();
            let mut r = Reader::new(&buf);
            prop_assert_eq!(r.get_bytes().unwrap().to_vec(), data);
        }

        #[test]
        fn prop_decode_random_garbage_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Decoding arbitrary bytes as a Vec<u64> must fail cleanly or succeed,
            // never panic.
            let _ = Vec::<u64>::decode_from_bytes(&data);
        }

        #[test]
        fn prop_bool_round_trip(v in any::<bool>()) {
            let mut w = Writer::new();
            w.put_bool(v);
            let buf = w.finish();
            let mut r = Reader::new(&buf);
            prop_assert_eq!(r.get_bool().unwrap(), v);
        }
    }
}
