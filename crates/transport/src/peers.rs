//! Who the endpoint talks to and how long it waits for them (§2.1):
//! the peer address table, the per-peer round-trip estimate and the
//! retransmission timeout armed from it.

use raincore_net::Addr;
use raincore_types::{Duration, NodeId, StateDigest};
use std::collections::BTreeMap;

/// The floor of the adaptive retransmission timeout. On a LAN the
/// estimator reads tens of microseconds; what a timeout must still ride
/// out there is the peer's thread waiting for a CPU, not the wire: the
/// worst acknowledgement delay of fifteen loaded runs beside a CPU hog
/// was 12.1 ms. What it does not ride out is the host taking the whole
/// process off the CPU for 20–500 ms, which a fixed 50 ms does not
/// either: over 150 calm runs a side, a retransmission in 5 with this
/// floor and in 7 without (DESIGN.md §17.2). Everything slower than the
/// floor is the estimator's.
pub const MIN_RTO: Duration = Duration::from_millis(16);

/// Smoothed round-trip estimate to one peer: RFC 6298 §2 in integer
/// nanoseconds, gains 1/8 (srtt) and 1/4 (rttvar).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RttEstimate {
    srtt: u64,
    rttvar: u64,
}

impl RttEstimate {
    fn first(sample: u64) -> Self {
        RttEstimate {
            srtt: sample,
            rttvar: sample / 2,
        }
    }

    fn update(&mut self, sample: u64) {
        let err = self.srtt.abs_diff(sample);
        self.rttvar = self.rttvar - self.rttvar / 4 + err / 4;
        self.srtt = self.srtt - self.srtt / 8 + sample / 8;
    }

    /// `srtt + 4·rttvar` rounded up to whole milliseconds (the grid the
    /// drivers' timers run on), before the floor and the ceiling.
    fn timeout(&self) -> Duration {
        let ns = self.srtt.saturating_add(self.rttvar.saturating_mul(4));
        Duration::from_millis(ns.div_ceil(1_000_000))
    }
}

#[derive(Clone, Debug, Default)]
struct Peer {
    addrs: Vec<Addr>,
    /// `None` until an acknowledgement of a never-retransmitted message
    /// has been timed (Karn's rule): a cold peer.
    rtt: Option<RttEstimate>,
}

/// Addresses of every peer this endpoint may talk to, and what it has
/// measured of the way there.
///
/// Each node can expose several physical addresses (§2.1); the order of
/// the address list is the order the [`SendStrategy::Sequential`] walk
/// tries them in. The round-trip estimate lives and dies with the entry:
/// [`PeerTable::set`] and [`PeerTable::remove`] forget it, since a new
/// address list is a new path. So do a new incarnation of the peer and a
/// failure-on-delivery to it.
///
/// [`SendStrategy::Sequential`]: raincore_types::config::SendStrategy::Sequential
#[derive(Clone, Debug, Default)]
pub struct PeerTable {
    /// Ordered, so that the state digest walks it as it is.
    map: BTreeMap<NodeId, Peer>,
}

impl PeerTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// A table where every node in `nodes` has `nics` addresses
    /// (`Addr { node, nic 0..nics }`) — the simulator's convention.
    pub fn full_mesh(nodes: impl IntoIterator<Item = NodeId>, nics: u8) -> Self {
        let mut t = PeerTable::new();
        for n in nodes {
            t.set(n, (0..nics.max(1)).map(|k| Addr::new(n, k)).collect());
        }
        t
    }

    /// Sets (replaces) a peer's address list.
    pub fn set(&mut self, node: NodeId, addrs: Vec<Addr>) {
        self.map.insert(node, Peer { addrs, rtt: None });
    }

    /// Removes a peer entirely.
    pub fn remove(&mut self, node: NodeId) {
        self.map.remove(&node);
    }

    /// The peer's addresses, if known.
    pub fn addrs(&self, node: NodeId) -> Option<&[Addr]> {
        self.map.get(&node).map(|p| p.addrs.as_slice())
    }

    /// Number of known peers.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no peers are known.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The retransmission timeout of a message to `to`: the peer's
    /// estimate, no lower than [`MIN_RTO`] and no higher than `ceiling`
    /// (the configured `retry_timeout`) — which is also the whole answer
    /// for a peer nothing has been measured of yet. Every transmission of
    /// a message waits this long; the retries are not backed off, because
    /// a detector is sized by their sum and the first of them is what a
    /// late acknowledgement trips over (DESIGN.md §17.2).
    pub(crate) fn rto(&self, to: NodeId, ceiling: Duration) -> Duration {
        let estimate = self.map.get(&to).and_then(|p| p.rtt);
        estimate.map_or(ceiling, |e| e.timeout().max(MIN_RTO).min(ceiling))
    }

    /// Takes one round-trip sample of `node` (RFC 6298 §2.2–2.3). Which
    /// acknowledgements are samples is the sender's rule (Karn's).
    pub(crate) fn sample(&mut self, node: NodeId, ns: u64) {
        if let Some(p) = self.map.get_mut(&node) {
            match &mut p.rtt {
                Some(e) => e.update(ns),
                None => p.rtt = Some(RttEstimate::first(ns)),
            }
        }
    }

    /// What was measured of `node` is void: it restarted (another
    /// process, perhaps another host) or it was given up on (dead, or the
    /// way to it broken). Whatever is sent to it next — beacons, 911
    /// calls — waits out the configured timeout again.
    pub(crate) fn forget(&mut self, node: NodeId) {
        if let Some(p) = self.map.get_mut(&node) {
            p.rtt = None;
        }
    }

    /// The addresses are constant over a model run and stay out. The
    /// round-trip estimates enter as the timeout they arm, which is on a
    /// 1 ms grid: two states whose estimates differ below that grid arm
    /// the same timers until further samples tell them apart, and are
    /// merged (DESIGN.md §17.5).
    pub(crate) fn digest_into(&self, ceiling: Duration, d: &mut StateDigest) {
        for &id in self.map.keys() {
            d.write_u64(self.rto(id, ceiling).as_millis());
        }
    }
}

#[cfg(test)]
mod tests;
