//! Transport frame format.
//!
//! Two frames cross the wire: `DATA` (one fragment of a logical message)
//! and `ACK` (the fragments of one message its receiver holds). A `DATA`
//! frame says whether its sender wants an acknowledgement at all:
//! fire-and-forget frames ([`Endpoint::send_unreliable`]) clear the
//! reliability bit and are never acknowledged. An `ACK` names a *set* of
//! fragments ([`FragSet`]), so the fragments of one receive burst share
//! one acknowledgement datagram instead of costing one each.
//!
//! The incarnation field lets receivers discard ghosts of a peer's
//! previous life and lets senders discard acknowledgements addressed to
//! theirs.
//!
//! # Wire tags
//!
//! | tag | frame | layout after the tag |
//! |---|---|---|
//! | 0 | `DATA`, reliable | `from inc msg_id frag_index frag_count payload` |
//! | 1 | `ACK` of exactly one fragment | `from inc msg_id frag_index` |
//! | 2 | `DATA`, fire-and-forget | as tag 0 |
//! | 3 | `ACK` of any other set | `from inc msg_id nwords word*` |
//!
//! Tags 0 and 1 are the original format, so single-fragment reliable
//! traffic — every token that fits the MTU and its acknowledgement — is
//! byte-identical to what earlier builds put on the wire.
//!
//! [`Endpoint::send_unreliable`]: crate::Endpoint::send_unreliable

use bytes::Bytes;
use raincore_types::wire::{Reader, WireDecode, WireEncode, WireError, WireResult, Writer};
use raincore_types::{Incarnation, MsgId, NodeId, StateDigest};

/// Upper bound on fragments per message: guards reassembly memory and
/// the size of a decoded [`FragSet`] against corrupt or hostile counts.
pub const MAX_FRAGS: u32 = 4096;

/// 64-bit words a [`FragSet`] can span.
const MAX_WORDS: usize = (MAX_FRAGS / 64) as usize;

/// A set of fragment indices below [`MAX_FRAGS`], as a bitmap: bit `i` of
/// word `w` is fragment `64 * w + i`.
///
/// The first word is stored inline, so the set of a message of up to 64
/// fragments (about 87 KiB at the default MTU) — in particular the
/// one-element set of a single-fragment message — never touches the heap.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FragSet {
    lo: u64,
    /// Words 1.., never ending in a zero word (so equal sets compare equal).
    hi: Vec<u64>,
}

impl FragSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The set holding only `index` (empty if `index` is out of range).
    pub fn single(index: u32) -> Self {
        let mut s = Self::new();
        s.insert(index);
        s
    }

    /// The set `0..count` — every fragment of a `count`-fragment message
    /// (`count` is clamped to [`MAX_FRAGS`]).
    pub fn first_n(count: u32) -> Self {
        let count = count.min(MAX_FRAGS) as usize;
        let word = |w: usize| match count.saturating_sub(64 * w) {
            0 => 0,
            n if n >= 64 => u64::MAX,
            n => (1u64 << n) - 1,
        };
        FragSet {
            lo: word(0),
            hi: (1..count.div_ceil(64)).map(word).collect(),
        }
    }

    /// Adds `index`. Returns `false` (and changes nothing) if it is not
    /// below [`MAX_FRAGS`].
    pub fn insert(&mut self, index: u32) -> bool {
        if index >= MAX_FRAGS {
            return false;
        }
        let bit = 1u64 << (index % 64);
        match (index / 64) as usize {
            0 => self.lo |= bit,
            w => {
                if self.hi.len() < w {
                    self.hi.resize(w, 0);
                }
                self.hi[w - 1] |= bit;
            }
        }
        true
    }

    /// Number of indices in the set.
    pub fn len(&self) -> u32 {
        self.lo.count_ones() + self.hi.iter().map(|w| w.count_ones()).sum::<u32>()
    }

    /// True if `index` is in the set.
    pub fn contains(&self, index: u32) -> bool {
        let word = match (index / 64) as usize {
            0 => self.lo,
            w => self.hi.get(w - 1).copied().unwrap_or(0),
        };
        word & (1u64 << (index % 64)) != 0
    }

    /// True if the set holds no index.
    pub fn is_empty(&self) -> bool {
        self.lo == 0 && self.hi.is_empty()
    }

    /// The indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words().enumerate().flat_map(|(w, mut word)| {
            std::iter::from_fn(move || {
                if word == 0 {
                    return None;
                }
                let bit = word.trailing_zeros();
                word &= word - 1;
                Some(64 * w as u32 + bit)
            })
        })
    }

    /// The bitmap words, word 0 first, up to the last non-zero one.
    pub fn words(&self) -> impl Iterator<Item = u64> + '_ {
        let lo = (!self.is_empty()).then_some(self.lo);
        lo.into_iter().chain(self.hi.iter().copied())
    }

    /// Feeds the set into a model-checker state digest.
    pub fn digest_into(&self, d: &mut StateDigest) {
        d.write_len(self.words().count());
        for word in self.words() {
            d.write_u64(word);
        }
    }

    /// The one index of a one-element set.
    fn as_single(&self) -> Option<u32> {
        if self.hi.is_empty() {
            // The common shape, and the whole of single-fragment traffic.
            return self.lo.is_power_of_two().then(|| self.lo.trailing_zeros());
        }
        let mut indices = self.iter();
        let first = indices.next()?;
        indices.next().is_none().then_some(first)
    }
}

/// A transport-layer frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// One fragment of a logical message.
    Data {
        /// Sending node.
        from: NodeId,
        /// Sender's incarnation.
        inc: Incarnation,
        /// Logical message id, unique per (sender, incarnation).
        msg_id: MsgId,
        /// Index of this fragment.
        frag_index: u32,
        /// Total number of fragments in the message.
        frag_count: u32,
        /// True if the sender keeps the message until it is acknowledged;
        /// false for fire-and-forget frames, which a receiver never
        /// acknowledges.
        reliable: bool,
        /// Fragment payload.
        payload: Bytes,
    },
    /// Acknowledgement of fragments of one message.
    Ack {
        /// Acknowledging node (the receiver of the DATA frames).
        from: NodeId,
        /// Incarnation of the *original sender* being acknowledged, echoed
        /// back so a restarted sender ignores stale acks.
        inc: Incarnation,
        /// Message id being acknowledged.
        msg_id: MsgId,
        /// Every fragment of the message the receiver holds so far.
        frags: FragSet,
    },
}

impl Frame {
    /// Short kind string for traces.
    pub fn kind(&self) -> &'static str {
        match self {
            Frame::Data { .. } => "DATA",
            Frame::Ack { .. } => "ACK",
        }
    }
}

const TAG_DATA: u8 = 0;
const TAG_ACK_ONE: u8 = 1;
const TAG_DATA_UNRELIABLE: u8 = 2;
const TAG_ACK_SET: u8 = 3;

impl WireEncode for Frame {
    fn encode(&self, w: &mut Writer) {
        match self {
            Frame::Data {
                from,
                inc,
                msg_id,
                frag_index,
                frag_count,
                reliable,
                payload,
            } => {
                w.put_u8(if *reliable {
                    TAG_DATA
                } else {
                    TAG_DATA_UNRELIABLE
                });
                from.encode(w);
                inc.encode(w);
                msg_id.encode(w);
                w.put_varint(u64::from(*frag_index));
                w.put_varint(u64::from(*frag_count));
                w.put_bytes(payload);
            }
            Frame::Ack {
                from,
                inc,
                msg_id,
                frags,
            } => {
                let single = frags.as_single();
                w.put_u8(if single.is_some() {
                    TAG_ACK_ONE
                } else {
                    TAG_ACK_SET
                });
                from.encode(w);
                inc.encode(w);
                msg_id.encode(w);
                match single {
                    Some(index) => w.put_varint(u64::from(index)),
                    None => {
                        w.put_varint(frags.words().count() as u64);
                        for word in frags.words() {
                            w.put_varint(word);
                        }
                    }
                }
            }
        }
    }
}

impl WireDecode for Frame {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let tag = r.get_u8()?;
        match tag {
            TAG_DATA | TAG_DATA_UNRELIABLE => Ok(Frame::Data {
                from: NodeId::decode(r)?,
                inc: Incarnation::decode(r)?,
                msg_id: MsgId::decode(r)?,
                frag_index: r.get_varint()? as u32,
                frag_count: r.get_varint()? as u32,
                reliable: tag == TAG_DATA,
                payload: r.get_bytes()?,
            }),
            TAG_ACK_ONE | TAG_ACK_SET => Ok(Frame::Ack {
                from: NodeId::decode(r)?,
                inc: Incarnation::decode(r)?,
                msg_id: MsgId::decode(r)?,
                frags: if tag == TAG_ACK_ONE {
                    // An index no message can have names nothing.
                    FragSet::single(u32::try_from(r.get_varint()?).unwrap_or(u32::MAX))
                } else {
                    decode_frag_set(r)?
                },
            }),
            tag => Err(WireError::BadTag { ty: "Frame", tag }),
        }
    }
}

/// Reads the `nwords word*` tail of a set acknowledgement. The word count
/// comes from the peer: it is bounded before anything is allocated.
fn decode_frag_set(r: &mut Reader<'_>) -> WireResult<FragSet> {
    let nwords = r.get_seq_len(1)?;
    if nwords > MAX_WORDS {
        return Err(WireError::BadLength {
            declared: nwords as u64,
            remaining: r.remaining(),
        });
    }
    let mut set = FragSet::new();
    if nwords > 0 {
        set.lo = r.get_varint()?;
        set.hi.reserve_exact(nwords - 1);
        for _ in 1..nwords {
            set.hi.push(r.get_varint()?);
        }
        while set.hi.last() == Some(&0) {
            set.hi.pop();
        }
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn data(frag_index: u32, frag_count: u32, reliable: bool, payload: &'static [u8]) -> Frame {
        Frame::Data {
            from: NodeId(3),
            inc: Incarnation(2),
            msg_id: MsgId(77),
            frag_index,
            frag_count,
            reliable,
            payload: Bytes::from_static(payload),
        }
    }

    fn ack(frags: FragSet) -> Frame {
        Frame::Ack {
            from: NodeId(9),
            inc: Incarnation(2),
            msg_id: MsgId(77),
            frags,
        }
    }

    fn set_of(indices: &[u32]) -> FragSet {
        let mut s = FragSet::new();
        for &i in indices {
            assert!(s.insert(i));
        }
        s
    }

    #[test]
    fn round_trip_data_both_flavours() {
        for reliable in [true, false] {
            let f = data(1, 4, reliable, b"chunk");
            let buf = f.encode_to_bytes();
            assert_eq!(Frame::decode_from_bytes(&buf).unwrap(), f);
            assert_eq!(f.kind(), "DATA");
        }
    }

    #[test]
    fn round_trip_ack_both_forms() {
        for frags in [
            FragSet::single(0),
            FragSet::single(4095),
            FragSet::new(),
            set_of(&[0, 1, 2, 3, 5]),
            set_of(&[70, 4000]),
            FragSet::first_n(MAX_FRAGS),
        ] {
            let f = ack(frags);
            let buf = f.encode_to_bytes();
            assert_eq!(Frame::decode_from_bytes(&buf).unwrap(), f);
            assert_eq!(f.kind(), "ACK");
        }
    }

    /// The bytes the parent format put on the wire for single-fragment
    /// reliable traffic, written out: tags 0 and 1 must never move (the
    /// experiments' byte counts and the chaos byte-exact verdict pin
    /// depend on it).
    #[test]
    fn single_fragment_reliable_traffic_is_byte_identical_to_the_original_format() {
        assert_eq!(
            &data(0, 1, true, b"tok").encode_to_bytes()[..],
            &[0, 3, 2, 77, 0, 1, 3, b't', b'o', b'k']
        );
        assert_eq!(
            &ack(FragSet::single(0)).encode_to_bytes()[..],
            &[1, 9, 2, 77, 0]
        );
        // Any one-fragment ack keeps the original form, whatever message
        // it belongs to; the new tags appear only where the old format
        // had no way to say it.
        assert_eq!(
            &ack(FragSet::single(300)).encode_to_bytes()[..],
            &[1, 9, 2, 77, 0xac, 0x02]
        );
        assert_eq!(data(0, 1, false, b"tok").encode_to_bytes()[0], 2);
        assert_eq!(
            &ack(set_of(&[0, 1, 2, 3, 4, 5])).encode_to_bytes()[..],
            &[3, 9, 2, 77, 1, 0x3f]
        );
    }

    #[test]
    fn bad_tag_rejected() {
        assert!(matches!(
            Frame::decode_from_bytes(&[7]),
            Err(WireError::BadTag { ty: "Frame", .. })
        ));
    }

    #[test]
    fn frag_set_basics() {
        let mut s = FragSet::new();
        assert!(s.is_empty());
        assert!(!s.insert(MAX_FRAGS), "out of range is refused");
        assert!(s.is_empty());
        for i in [5, 64, 4095, 5] {
            assert!(s.insert(i));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![5, 64, 4095]);
        assert!(s.contains(64) && !s.contains(63) && !s.contains(MAX_FRAGS + 5));
        assert_eq!(FragSet::single(MAX_FRAGS), FragSet::new());
        for n in [0, 1, 63, 64, 65, 128, 4095, 4096, 9999] {
            let full = FragSet::first_n(n);
            assert_eq!(full.len(), n.min(MAX_FRAGS));
            assert_eq!(full.iter().last(), n.min(MAX_FRAGS).checked_sub(1));
        }
    }

    #[test]
    fn set_ack_with_trailing_zero_words_decodes_to_the_same_set() {
        // tag 3, from 9, inc 2, msg 77, three words: 0b101, 0, 0.
        let f = Frame::decode_from_bytes(&[3, 9, 2, 77, 3, 5, 0, 0]).unwrap();
        assert_eq!(f, ack(set_of(&[0, 2])));
    }

    #[test]
    fn oversized_or_truncated_set_ack_rejected() {
        // 65 words declared (and present): one more than MAX_FRAGS allows.
        let mut long = vec![3, 9, 2, 77, 65];
        long.extend(std::iter::repeat_n(1, 65));
        assert!(matches!(
            Frame::decode_from_bytes(&long),
            Err(WireError::BadLength { declared: 65, .. })
        ));
        // A huge declared count with nothing behind it.
        assert!(Frame::decode_from_bytes(&[3, 9, 2, 77, 0xff, 0xff, 0xff, 0x7f]).is_err());
        assert!(Frame::decode_from_bytes(&[3, 9, 2, 77, 2, 1]).is_err());
        // A one-fragment ack whose index no message can have names nothing.
        let f = Frame::decode_from_bytes(&[1, 9, 2, 77, 0xff, 0xff, 0xff, 0xff, 0x7f]).unwrap();
        assert_eq!(f, ack(FragSet::new()));
    }

    proptest! {
        #[test]
        fn prop_round_trip_data(
            from in 0u32..1000,
            inc in 0u32..10,
            msg in any::<u64>(),
            idx in 0u32..64,
            cnt in 1u32..64,
            reliable in any::<bool>(),
            payload in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let f = Frame::Data {
                from: NodeId(from),
                inc: Incarnation(inc),
                msg_id: MsgId(msg),
                frag_index: idx,
                frag_count: cnt,
                reliable,
                payload: Bytes::from(payload),
            };
            let buf = f.encode_to_bytes();
            prop_assert_eq!(buf[0], if reliable { 0 } else { 2 });
            prop_assert_eq!(Frame::decode_from_bytes(&buf).unwrap(), f);
        }

        #[test]
        fn prop_round_trip_ack(
            from in 0u32..1000,
            inc in 0u32..10,
            msg in any::<u64>(),
            indices in proptest::collection::vec(0u32..MAX_FRAGS, 0..40),
        ) {
            let frags = set_of(&indices);
            let f = Frame::Ack {
                from: NodeId(from),
                inc: Incarnation(inc),
                msg_id: MsgId(msg),
                frags: frags.clone(),
            };
            let buf = f.encode_to_bytes();
            prop_assert_eq!(buf[0], if frags.len() == 1 { 1 } else { 3 });
            prop_assert_eq!(Frame::decode_from_bytes(&buf).unwrap(), f);
            let mut sorted = indices.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(frags.iter().collect::<Vec<_>>(), sorted);
        }

        #[test]
        fn prop_garbage_never_panics(data in proptest::collection::vec(any::<u8>(), 0..128)) {
            if let Ok(Frame::Ack { frags, .. }) = Frame::decode_from_bytes(&data) {
                prop_assert!(frags.len() <= MAX_FRAGS);
            }
        }
    }
}
