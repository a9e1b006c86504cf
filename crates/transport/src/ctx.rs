//! What a transport component borrows from [`crate::Endpoint`].
//!
//! The composer's own state — identity, configuration, the peer table,
//! the two output queues and the counters — is one struct, [`Ctx`], so
//! lending it to the sender or the receiver for one call is `&mut`. They
//! own everything else they need. Rules about the shared state — how a
//! frame becomes a datagram, which NIC a peer address is reached from,
//! which timeout a message is armed with — are written here once.

use crate::events::{TransportEvent, TransportObs, TransportStats};
use crate::frame::Frame;
use crate::peers::PeerTable;
use raincore_net::{Addr, Datagram};
use raincore_types::wire::WireEncode;
use raincore_types::{Duration, Incarnation, NodeId, StateDigest, TransportConfig};
use std::collections::VecDeque;

/// One physical path between this endpoint and a peer. A frame leaves on
/// the link its answer is expected on, and an acknowledgement returns on
/// the link its data arrived on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Link {
    /// Our address (the NIC).
    pub(crate) ours: Addr,
    /// The peer's address.
    pub(crate) theirs: Addr,
}

pub(crate) fn digest_addr(a: Addr, d: &mut StateDigest) {
    d.node(a.node);
    d.write_u8(a.nic);
}

/// The composer's own state, lent to a component for one call.
#[derive(Debug)]
pub(crate) struct Ctx {
    pub(crate) id: NodeId,
    pub(crate) inc: Incarnation,
    pub(crate) cfg: TransportConfig,
    /// One per NIC, never empty.
    pub(crate) local_addrs: Vec<Addr>,
    pub(crate) peers: PeerTable,
    pub(crate) outbox: VecDeque<Datagram>,
    pub(crate) events: VecDeque<TransportEvent>,
    pub(crate) stats: TransportStats,
    pub(crate) obs: TransportObs,
}

impl Ctx {
    /// The `k`-th link to `to`: the peer's k-th address is paired with
    /// our k-th NIC, so redundant links ride physically separate networks.
    pub(crate) fn link(&self, to: NodeId, k: usize) -> Option<Link> {
        let theirs = *self.peers.addrs(to)?.get(k)?;
        let ours = self.local_addrs[(theirs.nic as usize) % self.local_addrs.len()];
        Some(Link { ours, theirs })
    }

    /// Queues `frame` as one control-class datagram on `link` and counts
    /// it.
    pub(crate) fn put(&mut self, link: Link, frame: &Frame) {
        match frame {
            Frame::Data { .. } => self.stats.data_frames_sent += 1,
            Frame::Ack { .. } => self.stats.acks_sent += 1,
        }
        let payload = frame.encode_to_bytes();
        self.outbox
            .push_back(Datagram::control(link.ours, link.theirs, payload));
    }

    /// The timeout the next transmission to `to` waits
    /// ([`PeerTable::rto`] under the configured ceiling), recorded as
    /// armed.
    pub(crate) fn arm_rto(&self, to: NodeId) -> Duration {
        let rto = self.peers.rto(to, self.cfg.retry_timeout);
        self.obs.rto.record(rto.as_nanos());
        rto
    }
}
