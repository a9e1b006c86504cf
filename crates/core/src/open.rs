//! Open group communication (§2.6).
//!
//! "In addition, open group communication between a node outside the
//! Raincore group and the Raincore group can be achieved. A node can
//! send a message to any member of the Raincore group, and that member
//! then forwards the message to the entire group using Raincore."
//!
//! An external [`OpenClient`] rides the Raincore Transport Service only
//! (no session stack, no membership): it reliably unicasts an
//! [`OpenSubmit`] to any member and fails over to another member on
//! failure-on-delivery. The receiving member deduplicates per
//! `(sender, seq)` and injects the payload into the group as an ordinary
//! agreed multicast, wrapped in an envelope that preserves the external
//! origin; group members recover it with [`unwrap_open`].
//!
//! [`OpenSubmit`]: raincore_types::messages::OpenSubmit

use bytes::Bytes;
use raincore_net::{Addr, Datagram};
use raincore_transport::{Endpoint, PeerTable, TransportEvent};
use raincore_types::messages::OpenSubmit;
use raincore_types::wire::{Reader, WireDecode, WireEncode, Writer};
use raincore_types::{
    Error, Incarnation, MsgId, NodeId, OriginSeq, Result, SessionMsg, Time, TransportConfig,
};
use std::collections::{HashMap, VecDeque};

/// Magic prefix of an open-group envelope inside a multicast payload.
pub const OPEN_MAGIC: &[u8; 4] = b"RCOP";

/// Wraps an external submission into a multicast envelope.
pub fn wrap_open(from: NodeId, seq: OriginSeq, payload: &[u8]) -> Bytes {
    let mut w = Writer::with_capacity(payload.len() + 12);
    for &b in OPEN_MAGIC {
        w.put_u8(b);
    }
    from.encode(&mut w);
    seq.encode(&mut w);
    w.put_bytes(payload);
    w.finish()
}

/// Recovers `(external sender, sender seq, payload)` from an open-group
/// envelope; `None` if the payload is not one.
pub fn unwrap_open(payload: &[u8]) -> Option<(NodeId, OriginSeq, Bytes)> {
    let rest = payload.strip_prefix(&OPEN_MAGIC[..])?;
    let mut r = Reader::new(rest);
    let from = NodeId::decode(&mut r).ok()?;
    let seq = OriginSeq::decode(&mut r).ok()?;
    let inner = r.get_bytes().ok()?;
    r.expect_end().ok()?;
    Some((from, seq, inner))
}

/// Outcome of an open submission, as observed by the external client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpenOutcome {
    /// A member accepted the submission (it will be multicast).
    Accepted {
        /// The submission's sequence.
        seq: OriginSeq,
        /// The member that accepted it.
        via: NodeId,
    },
    /// Every candidate member failed; the submission was dropped.
    Failed {
        /// The submission's sequence.
        seq: OriginSeq,
    },
}

#[derive(Debug)]
struct PendingSubmit {
    seq: OriginSeq,
    payload: Bytes,
    /// Members not yet tried.
    remaining: Vec<NodeId>,
}

/// An external (non-member) client of a Raincore group.
///
/// Sans-io like everything else: drive it with `on_datagram` / `on_tick`
/// and drain `poll_outgoing` / `poll_outcome`.
#[derive(Debug)]
pub struct OpenClient {
    transport: Endpoint,
    members: Vec<NodeId>,
    next_seq: OriginSeq,
    inflight: HashMap<MsgId, PendingSubmit>,
    outcomes: VecDeque<OpenOutcome>,
}

impl OpenClient {
    /// Creates a client with id `id` (must be distinct from every group
    /// member's id) that may submit via any of `members`.
    pub fn new(
        id: NodeId,
        local_addrs: Vec<Addr>,
        peers: PeerTable,
        members: Vec<NodeId>,
        tcfg: TransportConfig,
    ) -> Result<Self> {
        if members.is_empty() {
            return Err(Error::Config("open client needs at least one member"));
        }
        Ok(OpenClient {
            transport: Endpoint::new(id, Incarnation::FIRST, local_addrs, peers, tcfg)?,
            members,
            next_seq: OriginSeq::default(),
            inflight: HashMap::new(),
            outcomes: VecDeque::new(),
        })
    }

    /// Submits `payload` for multicast into the group. Tries members in
    /// configured order, failing over on failure-on-delivery.
    pub fn submit(&mut self, now: Time, payload: Bytes) -> Result<OriginSeq> {
        let seq = self.next_seq;
        self.next_seq = seq.next();
        let mut remaining = self.members.clone();
        let first = remaining.remove(0);
        self.send_to(
            now,
            first,
            PendingSubmit {
                seq,
                payload,
                remaining,
            },
        )?;
        Ok(seq)
    }

    fn send_to(&mut self, now: Time, member: NodeId, pending: PendingSubmit) -> Result<()> {
        let msg = SessionMsg::Open(OpenSubmit {
            from: self.transport.id(),
            seq: pending.seq,
            payload: pending.payload.clone(),
        });
        let msg_id = self.transport.send(now, member, msg.encode_to_bytes())?;
        self.inflight.insert(msg_id, pending);
        Ok(())
    }

    /// Feeds a received datagram (acknowledgements).
    pub fn on_datagram(&mut self, now: Time, dgram: Datagram) {
        self.transport.on_datagram(now, dgram);
        self.drain(now);
    }

    /// Advances retransmission timers.
    pub fn on_tick(&mut self, now: Time) {
        self.transport.on_tick(now);
        self.drain(now);
    }

    fn drain(&mut self, now: Time) {
        while let Some(ev) = self.transport.poll_event() {
            match ev {
                TransportEvent::Delivered { msg_id, to } => {
                    if let Some(p) = self.inflight.remove(&msg_id) {
                        self.outcomes.push_back(OpenOutcome::Accepted {
                            seq: p.seq,
                            via: to,
                        });
                    }
                }
                TransportEvent::DeliveryFailed { msg_id, .. } => {
                    if let Some(mut p) = self.inflight.remove(&msg_id) {
                        if p.remaining.is_empty() {
                            self.outcomes.push_back(OpenOutcome::Failed { seq: p.seq });
                        } else {
                            let next = p.remaining.remove(0);
                            let _ = self.send_to(now, next, p);
                        }
                    }
                }
                // An external client receives nothing but acks, and has
                // moved on to the next member by the time a late one comes.
                TransportEvent::Received { .. } | TransportEvent::FailureRefuted { .. } => {}
            }
        }
    }

    /// Earliest time `on_tick` has work to do.
    pub fn next_wakeup(&self) -> Option<Time> {
        self.transport.next_wakeup()
    }

    /// Drains one outgoing datagram.
    pub fn poll_outgoing(&mut self) -> Option<Datagram> {
        self.transport.poll_outgoing()
    }

    /// Drains one submission outcome.
    pub fn poll_outcome(&mut self) -> Option<OpenOutcome> {
        self.outcomes.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trip() {
        let b = wrap_open(NodeId(9), OriginSeq(4), b"payload");
        assert_eq!(
            unwrap_open(&b),
            Some((NodeId(9), OriginSeq(4), Bytes::from_static(b"payload")))
        );
        assert_eq!(unwrap_open(b"RCLKxx"), None);
        assert_eq!(unwrap_open(b""), None);
        // Trailing garbage is rejected.
        let mut v = b.to_vec();
        v.push(0);
        assert_eq!(unwrap_open(&v), None);
    }

    #[test]
    fn client_requires_members() {
        let err = OpenClient::new(
            NodeId(50),
            vec![Addr::primary(NodeId(50))],
            PeerTable::new(),
            vec![],
            TransportConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, Error::Config(_)));
    }
}
