//! Encode-once, patch-per-hop token wire codec.
//!
//! The token is the hottest message in the system: it crosses the wire
//! `L·N` times per second regardless of load (§4.1). Its wire image splits
//! naturally into a tiny mutable *header* — the `SessionMsg` tag and the
//! per-hop `seq` varint — and a *body* (ring, tbm flag, piggybacked
//! messages) that only changes when membership changes or messages ride
//! the token. [`TokenEncoder`] exploits that split: it keeps the encoded
//! body of the last quiescent token and, while the body stays equal,
//! re-encodes only the header on each hop and splices the cached bytes in
//! after it. The scratch buffer is pooled across encodes, so a
//! steady-state hop costs exactly one allocation — the immutable output
//! buffer handed to the transport.
//!
//! Output is byte-identical to `SessionMsg::Token(t).encode_to_bytes()`
//! by construction (the header is written with the same primitives, the
//! body bytes are the same bytes); `crates/types/tests/wire_fuzz.rs`
//! property-tests the equivalence across seeded token mutations.
//!
//! Cache validity is decided by **value** equality of the ring and tbm
//! flag, never by `Arc` pointer identity: the CoW containers
//! ([`Ring`], [`crate::messages::MsgList`]) mutate in place when uniquely
//! owned, so an address comparison could vouch for a stale body. The
//! ring comparison is a cheap `O(N)` id scan and only runs for quiescent
//! tokens (no messages aboard) — exactly the steady-state regime the
//! paper's overhead argument is about.

use crate::membership::Ring;
use crate::messages::{SessionMsg, Token};
use crate::wire::{WireEncode, Writer};
use bytes::Bytes;

/// Body bytes of the last quiescent token, with the values they encode.
#[derive(Debug)]
struct CachedBody {
    /// Ring the cached bytes encode (a CoW handle; compared by value).
    ring: Ring,
    /// TBM flag the cached bytes encode.
    tbm: bool,
    /// Encoded `ring | tbm | msgs(empty)` image.
    bytes: Bytes,
}

/// Reusable encoder for `SessionMsg::Token` wire images.
///
/// One encoder lives inside each session node; it owns a pooled scratch
/// buffer and the cached body. See the module docs for the design.
#[derive(Debug, Default)]
pub struct TokenEncoder {
    scratch: Writer,
    cached: Option<CachedBody>,
    hits: u64,
    misses: u64,
}

impl TokenEncoder {
    /// Creates an encoder with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes the full `SessionMsg::Token` wire image of `token`,
    /// reusing the cached body when it is still valid.
    pub fn encode(&mut self, token: &Token) -> Bytes {
        self.scratch.clear();
        self.scratch.put_u8(SessionMsg::TAG_TOKEN);
        self.scratch.put_varint(token.seq);
        // The trace context (circ/hop/parent) changes every hop, exactly
        // like `seq` — it belongs to the patched header, not the cached
        // body: three more varints in the pooled scratch, zero extra
        // allocations.
        token.trace.encode(&mut self.scratch);
        match &self.cached {
            Some(c) if token.msgs.is_empty() && c.tbm == token.tbm && c.ring == token.ring => {
                self.hits += 1;
                self.scratch.put_raw(&c.bytes);
            }
            _ => {
                self.misses += 1;
                let body_start = self.scratch.len();
                token.encode_body(&mut self.scratch);
                if token.msgs.is_empty() {
                    self.cached = Some(CachedBody {
                        ring: token.ring.clone(),
                        tbm: token.tbm,
                        bytes: Bytes::copy_from_slice(&self.scratch.as_slice()[body_start..]),
                    });
                }
                // A message-carrying body is not cached (it changes every
                // hop), but the previous quiescent body is kept: it
                // becomes valid again the moment the messages retire.
            }
        }
        self.scratch.snapshot()
    }

    /// Hops served from the cached body.
    pub fn cache_hits(&self) -> u64 {
        self.hits
    }

    /// Hops that re-encoded the body (membership change, tbm change, or
    /// messages aboard).
    pub fn cache_misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{NodeId, OriginSeq};
    use crate::messages::{Attached, DeliveryMode};
    use crate::wire::WireEncode;

    fn full(t: &Token) -> Bytes {
        SessionMsg::Token(t.clone()).encode_to_bytes()
    }

    #[test]
    fn quiescent_hops_hit_the_cache_and_match_full_encode() {
        let mut enc = TokenEncoder::new();
        let mut t = Token::founding(Ring::from([1, 2, 3]));
        for hop in 0..10 {
            t.seq += 1;
            t.trace.hop += 1;
            assert_eq!(enc.encode(&t)[..], full(&t)[..], "hop {hop}");
        }
        assert_eq!(enc.cache_misses(), 1);
        assert_eq!(enc.cache_hits(), 9);
    }

    #[test]
    fn trace_ctx_rides_the_patched_header_without_body_invalidation() {
        use crate::messages::TraceCtx;
        let mut enc = TokenEncoder::new();
        let mut t = Token::founding(Ring::from([1, 2, 3]));
        assert_eq!(enc.encode(&t)[..], full(&t)[..]);
        // A regeneration mints a fresh circulation: every header field
        // changes, the body does not — the cache must keep serving.
        t.seq += 2;
        t.trace = TraceCtx::mint(NodeId(2), t.seq, t.trace.hop);
        assert_eq!(enc.encode(&t)[..], full(&t)[..]);
        t.seq += 1;
        t.trace.hop += 1;
        assert_eq!(enc.encode(&t)[..], full(&t)[..]);
        assert_eq!(enc.cache_misses(), 1);
        assert_eq!(enc.cache_hits(), 2);
    }

    #[test]
    fn membership_change_invalidates_by_value() {
        let mut enc = TokenEncoder::new();
        let mut t = Token::founding(Ring::from([1, 2]));
        assert_eq!(enc.encode(&t)[..], full(&t)[..]);
        // The encoder's cached ring shares storage with the token's; the
        // push below unshares in place. A pointer-identity cache would
        // serve stale bytes here — value comparison must not.
        t.ring.push(NodeId(3));
        t.seq += 1;
        assert_eq!(enc.encode(&t)[..], full(&t)[..]);
        assert_eq!(enc.cache_misses(), 2);
        // The new body is cached in turn.
        t.seq += 1;
        assert_eq!(enc.encode(&t)[..], full(&t)[..]);
        assert_eq!(enc.cache_hits(), 1);
    }

    #[test]
    fn tbm_flip_and_messages_bypass_the_cache() {
        let mut enc = TokenEncoder::new();
        let mut t = Token::founding(Ring::from([1, 2]));
        assert_eq!(enc.encode(&t)[..], full(&t)[..]);
        t.tbm = true;
        assert_eq!(enc.encode(&t)[..], full(&t)[..]);
        t.tbm = false;
        t.msgs.push(Attached::new(
            NodeId(1),
            OriginSeq(0),
            DeliveryMode::Agreed,
            Bytes::from_static(b"payload"),
        ));
        assert_eq!(enc.encode(&t)[..], full(&t)[..]);
        assert_eq!(enc.cache_hits(), 0);
        assert_eq!(enc.cache_misses(), 3);
        // Messages retire: the cached body (tbm=true vintage) no longer
        // matches, so one more miss re-primes the cache and subsequent
        // quiescent hops hit again.
        t.msgs = Default::default();
        assert_eq!(enc.encode(&t)[..], full(&t)[..]);
        t.seq += 1;
        assert_eq!(enc.encode(&t)[..], full(&t)[..]);
        assert_eq!(enc.cache_hits(), 1);
    }

    #[test]
    fn manifest_entries_stay_byte_identical_to_full_encode() {
        let mut enc = TokenEncoder::new();
        let mut t = Token::founding(Ring::from([1, 2, 3]));
        assert_eq!(enc.encode(&t)[..], full(&t)[..]);
        // An id-manifest entry rides the token: the patched-header path
        // must stay byte-identical to the full encode, hop after hop, as
        // the watermark (seen set) mutates in place.
        t.msgs.push(Attached::new_oob(
            NodeId(2),
            OriginSeq(4),
            DeliveryMode::Agreed,
            4096,
        ));
        for hop in 0..4 {
            t.seq += 1;
            t.trace.hop += 1;
            for m in t.msgs.iter_mut() {
                m.mark_seen(NodeId(1 + hop % 3));
            }
            assert_eq!(enc.encode(&t)[..], full(&t)[..], "manifest hop {hop}");
        }
        // A mixed token (inline + manifest) is equally faithful.
        t.msgs.push(Attached::new(
            NodeId(3),
            OriginSeq(9),
            DeliveryMode::Safe,
            Bytes::from_static(b"inline"),
        ));
        t.seq += 1;
        assert_eq!(enc.encode(&t)[..], full(&t)[..]);
    }

    #[test]
    fn manifest_retirement_restores_the_quiescent_cache() {
        use crate::messages::Attached;
        let mut enc = TokenEncoder::new();
        let mut t = Token::founding(Ring::from([1, 2]));
        assert_eq!(enc.encode(&t)[..], full(&t)[..]); // miss: primes cache
        t.seq += 1;
        assert_eq!(enc.encode(&t)[..], full(&t)[..]); // hit
                                                      // A manifest aboard bypasses the cache like any message...
        t.msgs.push(Attached::new_oob(
            NodeId(1),
            OriginSeq(0),
            DeliveryMode::Agreed,
            1024,
        ));
        t.seq += 1;
        assert_eq!(enc.encode(&t)[..], full(&t)[..]); // miss
                                                      // ...and once it retires the old quiescent body serves again
                                                      // without re-encoding: the steady-state floor is intact.
        t.msgs.retain(|_| false);
        t.seq += 1;
        assert_eq!(enc.encode(&t)[..], full(&t)[..]); // hit
        assert_eq!(enc.cache_misses(), 2);
        assert_eq!(enc.cache_hits(), 2);
    }
}
