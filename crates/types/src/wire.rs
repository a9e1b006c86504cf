//! Compact binary wire codec.
//!
//! Every Raincore datagram — transport frames, tokens, 911 calls, beacons —
//! is encoded with this codec before it is handed to the (simulated or
//! real) network. The format is deliberately simple:
//!
//! * unsigned integers as LEB128 varints (`i64` zigzagged first), a `u8`
//!   or a `bool` as one raw byte,
//! * byte strings and sequences length-prefixed with a varint,
//! * a struct as its fields in declaration order,
//! * an enum as a one-byte tag followed by the variant's fields.
//!
//! Each format is declared once. [`wire_struct!`](crate::wire_struct) and
//! [`wire_enum!`](crate::wire_enum) take a type's own definition and
//! derive all three directions from it — [`WireEncode::encode`], the
//! exact [`WireEncode::encoded_len`] (which neither encodes nor
//! allocates) and [`WireDecode::decode`] — each field through its own
//! type's impl. Only types with a representation of their own are written
//! by hand: the id list and ring, the copy-on-write message list, the
//! transport frame, the replica transfer frame.
//!
//! Decoding is fully length-checked and returns [`WireError`] on truncated
//! or malformed input — a varint too large for its `u32` field is refused,
//! not truncated; it never panics and the crate forbids `unsafe`. The
//! bytes of every declared format are pinned by `tests/wire_golden.rs`.

use crate::id::{GroupId, Incarnation, MsgId, NodeId, OriginSeq, VipId};
use crate::time::{Duration, Time};
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
    /// A varint did not fit the integer type it was read into.
    OutOfRange {
        /// The type being decoded.
        ty: &'static str,
        /// The value on the wire.
        value: u64,
    },
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
            WireError::OutOfRange { ty, value } => write!(f, "{value} is out of range for {ty}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Result alias for wire decoding.
pub type WireResult<T> = core::result::Result<T, WireError>;

/// Bytes [`Writer::put_varint`] spends on `v`: the arithmetic behind
/// [`WireEncode::encoded_len`], which sizes a value without encoding it.
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

    /// Appends raw, already-encoded bytes (no length prefix), e.g. a
    /// fixed magic prefix.
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
    /// The buffer `buf` is a view of, if the caller has one: byte strings
    /// are then slices of it, not copies.
    shared: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`; [`Reader::get_bytes`] copies.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, shared: None }
    }

    /// Creates a reader over `buf` whose [`Reader::get_bytes`] shares
    /// `buf`'s allocation instead of copying: what it returns keeps all
    /// of `buf` alive.
    pub fn shared(buf: &'a Bytes) -> Self {
        Reader {
            buf,
            shared: Some(buf),
        }
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

    /// Reads a varint into the unsigned type `T`, refusing a value that
    /// does not fit (`ty` names what was being read). Every narrow integer
    /// on the wire — the `u32` ids and fields — is read through this one
    /// check, never truncated.
    pub fn get_uint<T: TryFrom<u64>>(&mut self, ty: &'static str) -> WireResult<T> {
        let value = self.get_varint()?;
        T::try_from(value).map_err(|_| WireError::OutOfRange { ty, value })
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

    /// Reads a length prefix and borrows that many bytes of the input.
    fn get_prefixed(&mut self) -> WireResult<&'a [u8]> {
        let len = self.get_varint()?;
        if len > self.buf.len() as u64 {
            return Err(WireError::BadLength {
                declared: len,
                remaining: self.buf.len(),
            });
        }
        let (head, tail) = self.buf.split_at(len as usize);
        self.buf = tail;
        Ok(head)
    }

    /// Reads a length-prefixed byte string: a slice of the shared buffer
    /// ([`Reader::shared`]), else a copy into a fresh one.
    pub fn get_bytes(&mut self) -> WireResult<Bytes> {
        let head = self.get_prefixed()?;
        Ok(match self.shared {
            Some(whole) => {
                let start = head.as_ptr() as usize - whole.as_ptr() as usize;
                whole.slice(start..start + head.len())
            }
            None => Bytes::copy_from_slice(head),
        })
    }

    /// Reads a length-prefixed UTF-8 string: checked in place, then copied
    /// once into the `String`.
    pub fn get_str(&mut self) -> WireResult<String> {
        let b = self.get_prefixed()?;
        core::str::from_utf8(b)
            .map(str::to_owned)
            .map_err(|_| WireError::BadTag { ty: "utf8", tag: 0 })
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

    /// Exact length of [`WireEncode::encode`]'s output, computed without
    /// encoding or allocating.
    fn encoded_len(&self) -> usize;

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
        decode_whole(Reader::new(buf))
    }

    /// As [`WireDecode::decode_from_bytes`], with the byte strings in the
    /// value sharing `buf` ([`Reader::shared`]) instead of copied out.
    fn decode_from_shared(buf: &Bytes) -> WireResult<Self> {
        decode_whole(Reader::shared(buf))
    }
}

/// Decodes a value that must occupy all of `r`.
fn decode_whole<T: WireDecode>(mut r: Reader<'_>) -> WireResult<T> {
    let v = T::decode(&mut r)?;
    r.expect_end()?;
    Ok(v)
}

/// An id or time newtype is its integer as a varint; a `u32` one is read
/// through the checked [`Reader::get_uint`].
macro_rules! impl_wire_varint_newtype {
    ($($ty:ident),+) => {$(
        impl WireEncode for $ty {
            fn encode(&self, w: &mut Writer) {
                w.put_varint(u64::from(self.0));
            }
            fn encoded_len(&self) -> usize {
                varint_len(u64::from(self.0))
            }
        }
        impl WireDecode for $ty {
            fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
                Ok(Self(r.get_uint(stringify!($ty))?))
            }
        }
    )+};
}

impl_wire_varint_newtype!(NodeId, Incarnation, MsgId, OriginSeq, VipId, Time, Duration);

impl WireEncode for GroupId {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }
}

impl WireDecode for GroupId {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(GroupId(NodeId::decode(r)?))
    }
}

impl WireEncode for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(*self);
    }
    fn encoded_len(&self) -> usize {
        varint_len(*self)
    }
}

impl WireDecode for u64 {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        r.get_varint()
    }
}

impl WireEncode for u32 {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(u64::from(*self));
    }
    fn encoded_len(&self) -> usize {
        varint_len(u64::from(*self))
    }
}

impl WireDecode for u32 {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        r.get_uint("u32")
    }
}

/// Zigzag: the varint of `(v << 1) ^ (v >> 63)`, so small magnitudes of
/// either sign stay short.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

impl WireEncode for i64 {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(zigzag(*self));
    }
    fn encoded_len(&self) -> usize {
        varint_len(zigzag(*self))
    }
}

impl WireDecode for i64 {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let z = r.get_varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }
}

impl WireEncode for u8 {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl WireDecode for u8 {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        r.get_u8()
    }
}

impl WireEncode for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_bool(*self);
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl WireDecode for bool {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        r.get_bool()
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.iter().map(T::encoded_len).sum::<usize>()
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
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
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
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
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
            fn encoded_len(&self) -> usize {
                let ($($field,)+) = self;
                0 $(+ $field.encoded_len())+
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

/// Declares a struct whose wire format is its fields in declaration
/// order, and derives [`WireEncode`] (with the exact
/// [`WireEncode::encoded_len`]) and [`WireDecode`] from that one
/// declaration, each field through its own type's impl. The struct is
/// written exactly as without the macro: docs, derives, visibility.
///
/// ```
/// raincore_types::wire_struct! {
///     /// A point.
///     #[derive(Debug, PartialEq)]
///     pub struct Point {
///         /// Across.
///         pub x: u64,
///         /// Down.
///         pub y: u32,
///     }
/// }
/// use raincore_types::wire::{WireDecode, WireEncode};
/// let p = Point { x: 300, y: 1 };
/// assert_eq!(&p.encode_to_bytes()[..], [0xac, 0x02, 0x01]);
/// assert_eq!(p.encoded_len(), 3);
/// assert_eq!(Point::decode_from_bytes(&[0xac, 0x02, 0x01]), Ok(p));
/// ```
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty ),*
        }

        impl $crate::wire::WireEncode for $name {
            fn encode(&self, w: &mut $crate::wire::Writer) {
                $( $crate::wire::WireEncode::encode(&self.$field, w); )*
            }
            fn encoded_len(&self) -> usize {
                0 $( + $crate::wire::WireEncode::encoded_len(&self.$field) )*
            }
        }

        impl $crate::wire::WireDecode for $name {
            fn decode(r: &mut $crate::wire::Reader<'_>) -> $crate::wire::WireResult<Self> {
                Ok($name {
                    $( $field: <$ty as $crate::wire::WireDecode>::decode(r)? ),*
                })
            }
        }
    };
}

/// Declares a tagged enum — a one-byte tag, then the variant's fields in
/// declaration order — and derives [`WireEncode`] (with the exact
/// [`WireEncode::encoded_len`]) and [`WireDecode`] from that one
/// declaration. The enum is written exactly as without the macro, except
/// that each variant (unit, one-field tuple or struct) is followed by its
/// row: `= TAG`, then optionally `as CONST` (a public `u8` constant
/// naming the tag) and `=> "LABEL"`. If every variant has a label, the
/// enum gets a `kind()` returning it. A tag byte no row names decodes as
/// [`WireError::BadTag`].
///
/// ```
/// raincore_types::wire_enum! {
///     /// A shape.
///     #[derive(Debug, PartialEq)]
///     pub enum Shape {
///         /// Nothing.
///         Empty = 0 as TAG_EMPTY => "EMPTY",
///         /// A circle of this radius.
///         Circle(u64) = 1 as TAG_CIRCLE => "CIRCLE",
///         /// A rectangle.
///         Rect {
///             /// Across.
///             w: u32,
///             /// Down.
///             h: u32,
///         } = 2 as TAG_RECT => "RECT",
///     }
/// }
/// use raincore_types::wire::{WireDecode, WireEncode};
/// let r = Shape::Rect { w: 3, h: 4 };
/// assert_eq!(&r.encode_to_bytes()[..], [Shape::TAG_RECT, 3, 4]);
/// assert_eq!(r.encoded_len(), 3);
/// assert_eq!(Shape::decode_from_bytes(&[1, 9]), Ok(Shape::Circle(9)));
/// assert_eq!(Shape::Empty.kind(), "EMPTY");
/// ```
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident { $($rows:tt)* }
    ) => {
        $crate::wire_enum!(@rows [$(#[$meta])* $vis enum $name] [] $($rows)*);
    };
    // Each variant is read into `{[definition] name tag [const] [label]
    // {field binding: type, ...}}`; a tuple variant's one field is `0`.
    (@rows $head:tt [$($done:tt)*]
        $(#[$vmeta:meta])* $variant:ident
        = $tag:literal $(as $konst:ident)? $(=> $label:literal)? $(, $($rest:tt)*)?
    ) => {
        $crate::wire_enum!(@rows $head [$($done)* {
            [$(#[$vmeta])* $variant] $variant $tag [$($konst)?] [$($label)?] {}
        }] $($($rest)*)?);
    };
    (@rows $head:tt [$($done:tt)*]
        $(#[$vmeta:meta])* $variant:ident ($ty:ty)
        = $tag:literal $(as $konst:ident)? $(=> $label:literal)? $(, $($rest:tt)*)?
    ) => {
        $crate::wire_enum!(@rows $head [$($done)* {
            [$(#[$vmeta])* $variant($ty)] $variant $tag [$($konst)?] [$($label)?] {0 field: $ty}
        }] $($($rest)*)?);
    };
    (@rows $head:tt [$($done:tt)*]
        $(#[$vmeta:meta])* $variant:ident {
            $( $(#[$fmeta:meta])* $field:ident : $ty:ty ),* $(,)?
        } = $tag:literal $(as $konst:ident)? $(=> $label:literal)? $(, $($rest:tt)*)?
    ) => {
        $crate::wire_enum!(@rows $head [$($done)* {
            [$(#[$vmeta])* $variant { $( $(#[$fmeta])* $field: $ty ),* }]
            $variant $tag [$($konst)?] [$($label)?] {$($field $field: $ty),*}
        }] $($($rest)*)?);
    };
    (@rows [$(#[$meta:meta])* $vis:vis enum $name:ident] [$({
        [$($def:tt)*] $variant:ident $tag:literal [$($konst:ident)?] [$($label:literal)?]
        {$($f:tt $bind:ident: $ty:ty),*}
    })*]) => {
        $(#[$meta])*
        $vis enum $name {
            $( $($def)* ),*
        }

        impl $name {
            $($(
                #[doc = concat!("Wire tag of [`", stringify!($name), "::", stringify!($variant), "`].")]
                $vis const $konst: u8 = $tag;
            )?)*
        }

        $crate::wire_enum!(@kind $vis $name $($variant [$($label)?])*);

        impl $crate::wire::WireEncode for $name {
            fn encode(&self, w: &mut $crate::wire::Writer) {
                match self {
                    $( Self::$variant { $($f: $bind),* } => {
                        w.put_u8($tag);
                        $( $crate::wire::WireEncode::encode($bind, w); )*
                    } )*
                }
            }
            fn encoded_len(&self) -> usize {
                match self {
                    $( Self::$variant { $($f: $bind),* } => {
                        1 $( + $crate::wire::WireEncode::encoded_len($bind) )*
                    } )*
                }
            }
        }

        impl $crate::wire::WireDecode for $name {
            fn decode(r: &mut $crate::wire::Reader<'_>) -> $crate::wire::WireResult<Self> {
                match r.get_u8()? {
                    $( $tag => Ok(Self::$variant {
                        $( $f: <$ty as $crate::wire::WireDecode>::decode(r)? ),*
                    }), )*
                    tag => Err($crate::wire::WireError::BadTag { ty: stringify!($name), tag }),
                }
            }
        }
    };
    (@kind $vis:vis $name:ident $($variant:ident [$label:literal])*) => {
        impl $name {
            /// Short human-readable kind name (for traces).
            $vis fn kind(&self) -> &'static str {
                match self {
                    $( Self::$variant { .. } => $label, )*
                }
            }
        }
    };
    (@kind $vis:vis $name:ident $($variant:ident [])*) => {};
}

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
    fn shared_reader_slices_instead_of_copying() {
        let mut w = Writer::new();
        w.put_varint(300);
        w.put_bytes(b"payload");
        let buf = w.finish();
        let back = <(u64, Bytes)>::decode_from_shared(&buf).unwrap();
        assert_eq!(back, (300, Bytes::from_static(b"payload")));
        // The same bytes of the same allocation, three bytes in.
        assert_eq!(back.1.as_ptr(), buf[3..].as_ptr());
        let copied = <(u64, Bytes)>::decode_from_bytes(&buf).unwrap();
        assert_eq!(copied, back);
        assert_ne!(copied.1.as_ptr(), back.1.as_ptr());
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

    /// A `u32` id is refused when its varint does not fit, not truncated
    /// (2³² + 3 once read as `n3`).
    #[test]
    fn u32_ids_beyond_range_are_refused() {
        let mut w = Writer::new();
        w.put_varint((1 << 32) + 3);
        let wire = w.finish();
        let got = crate::id::NodeId::decode_from_bytes(&wire).map_err(|e| e.to_string());
        assert_eq!(
            got,
            Err("4294967299 is out of range for NodeId".to_string())
        );
        let got = crate::id::VipId::decode_from_bytes(&wire).map_err(|e| e.to_string());
        assert_eq!(got, Err("4294967299 is out of range for VipId".to_string()));
        let mut w = Writer::new();
        w.put_varint(u64::from(u32::MAX));
        let wire = w.finish();
        let max = crate::id::Incarnation::decode_from_bytes(&wire);
        assert_eq!(max, Ok(crate::id::Incarnation(u32::MAX)));
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
