//! §4.1's baselines — group multicast emulated over unicast — in closed form.
//!
//! The paper weighs the token ring against protocols whose "broadcast
//! messages are achieved by sending multiple unicast messages". On a
//! lossless network their cost is exact arithmetic in `N` and `M`, so it
//! is counted here rather than simulated. Each function takes E1 and E2's
//! scenario — `n` members with ids `0..n`, each multicasting one message
//! of `msg_bytes` — and returns what that round puts on the wire.
//!
//! A datagram is counted as [`Datagram::wire_bytes`] counts it: the
//! encoded message plus [`WIRE_OVERHEAD`]. A message is a one-byte tag and
//! varint fields: a payload is its length and its bytes, and node ids,
//! origin sequences (0 here) and slots take one byte each below 128.
//!
//! [`Datagram::wire_bytes`]: raincore_net::Datagram::wire_bytes

use raincore_net::WIRE_OVERHEAD;
use raincore_types::wire::varint_len;

/// What one round — every member multicasts one message — costs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Round {
    /// Datagrams put on the wire.
    pub packets: u64,
    /// Their bytes, header overhead included.
    pub bytes: u64,
    /// Wake-ups of the busiest member: one per datagram it receives.
    pub max_wakeups: u64,
}

impl Round {
    /// Wake-ups per second per member, mean and busiest, when every member
    /// multicasts `m` messages a second. Each datagram wakes one receiver.
    pub fn wakeups_per_s(&self, n: u32, m: u32) -> (f64, f64) {
        let per_s = |count: u64| (u64::from(m) * count) as f64;
        (per_s(self.packets) / f64::from(n), per_s(self.max_wakeups))
    }
}

/// Wire bytes of a datagram holding a tag, `ids` one-byte varint fields
/// and, if it carries one, a payload of that many bytes.
fn datagram(ids: u64, payload: Option<usize>) -> u64 {
    let body = payload.map_or(0, |m| varint_len(m as u64) + m);
    WIRE_OVERHEAD + 1 + ids + body as u64
}

/// Plain fan-out. Each member sends its message to each of the `N−1`
/// others as a PUB (origin, origin sequence, payload); nothing is
/// acknowledged or ordered. `N(N−1)` packets; every member receives `N−1`.
pub fn fan_out(n: u32, msg_bytes: usize) -> Round {
    let (n, pubs) = (u64::from(n), u64::from(n) * u64::from(n - 1));
    Round {
        packets: pubs,
        bytes: pubs * datagram(2, Some(msg_bytes)),
        max_wakeups: n - 1,
    }
}

/// Acknowledged fan-out: [`fan_out`], and every receiver answers each PUB
/// with an ACK (origin, origin sequence) to its origin, which would resend
/// to whoever stays silent past its retry timeout (never, with no loss).
/// Reliable, but members may deliver in different orders. `2N(N−1)`
/// packets; every member receives `N−1` PUBs and `N−1` ACKs.
pub fn acked_fan_out(n: u32, msg_bytes: usize) -> Round {
    let pubs = fan_out(n, msg_bytes);
    Round {
        packets: 2 * pubs.packets,
        bytes: pubs.bytes + pubs.packets * datagram(2, None),
        max_wakeups: 2 * pubs.max_wakeups,
    }
}

/// Sequencer two-phase commit: atomic and totally ordered. The lowest id
/// is the sequencer, and every other member SUBMITs its message (origin,
/// origin sequence, payload) to it. For each message the sequencer takes
/// the next global slot and sends PREPARE (slot, origin, origin sequence,
/// payload) to the `N−1` others, who answer PREPARED (slot); with every
/// answer in, it sends COMMIT (slot), answered by COMMITTED (slot), and
/// members deliver in slot order. `(N−1) + 4·N(N−1) = (4N+1)(N−1)`
/// packets: `(N−1)(N+1)` carry the payload, `3N(N−1)` only a slot. The
/// sequencer receives every SUBMIT, PREPARED and COMMITTED, `(2N+1)(N−1)`:
/// the hotspot behind §4.1's "up to 6·M·N".
pub fn sequencer_2pc(n: u32, msg_bytes: usize) -> Round {
    let (n, others) = (u64::from(n), u64::from(n - 1));
    let phase = n * others; // N slots, each sent to or from N−1 members
    Round {
        packets: others + 4 * phase,
        bytes: others * datagram(2, Some(msg_bytes))
            + phase * datagram(3, Some(msg_bytes))
            + 3 * phase * datagram(1, None),
        max_wakeups: (2 * n + 1) * others,
    }
}
