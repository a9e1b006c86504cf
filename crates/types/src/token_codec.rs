//! Token wire encoder with a pooled scratch buffer.
//!
//! The token is the hottest message in the system: it crosses the wire
//! `L·N` times per second regardless of load (§4.1). [`TokenEncoder`]
//! writes its `SessionMsg::Token` wire image into one scratch buffer that
//! lives as long as the encoder, so a hop's encode allocates exactly once
//! — the immutable output buffer handed to the transport.
//!
//! Output is byte-identical to `SessionMsg::Token(t).encode_to_bytes()`
//! by construction (the same tag, then the token's own encode);
//! `crates/types/tests/wire_fuzz.rs` checks the equivalence across a
//! seeded walk of token mutations.

use crate::messages::{SessionMsg, Token};
use crate::wire::{WireEncode, Writer};
use bytes::Bytes;

/// Reusable encoder for `SessionMsg::Token` wire images.
///
/// One encoder lives inside each session node; it owns the pooled
/// scratch buffer. See the module docs.
#[derive(Debug, Default)]
pub struct TokenEncoder {
    scratch: Writer,
}

impl TokenEncoder {
    /// Creates an encoder with an empty scratch buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes the full `SessionMsg::Token` wire image of `token`.
    pub fn encode(&mut self, token: &Token) -> Bytes {
        self.scratch.clear();
        self.scratch.put_u8(SessionMsg::TAG_TOKEN);
        token.encode(&mut self.scratch);
        self.scratch.snapshot()
    }
}
