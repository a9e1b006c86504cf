//! The per-connection packet engine.
//!
//! §3.2: Rainwall "includes a kernel-level software packet engine that
//! load-balances traffic connection by connection to all firewall nodes
//! in the cluster. The load and connection assignment information are
//! shared among the cluster using the Raincore Distributed Session
//! Service."
//!
//! Placement uses **rendezvous hashing** over the live membership: every
//! gateway computes the same handler for a connection from local
//! information, the assignment is balanced, and a membership change moves
//! only the connections of the departed/arrived node. Connection state is
//! shared in periodic [`LoadReport`] multicasts so any surviving gateway
//! can keep relaying an established connection after a fail-over.

use crate::packet::FlowKey;
use raincore_net::Addr;
use raincore_types::wire::{WireDecode, WireEncode, Writer};
use raincore_types::{wire_struct, Duration, NodeId, Ring, Time, VipId};
use std::collections::HashMap;

/// Magic prefix identifying a load-report multicast payload.
pub const MAGIC: &[u8; 4] = b"RCLW";

/// State the handling gateway keeps per connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConnEntry {
    /// Where the client expects replies.
    pub client_addr: Addr,
    /// The virtual IP the connection addressed.
    pub vip: VipId,
    /// Last time the connection saw a packet.
    pub last_active: Time,
}

wire_struct! {
    /// A gateway's periodic state-sharing multicast: its load plus the
    /// connections opened since the previous report.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct LoadReport {
        /// Reporting gateway.
        pub node: NodeId,
        /// Active connection count (the load figure used for balancing
        /// decisions and monitoring).
        pub active: u32,
        /// Connections opened since the last report.
        pub flows: Vec<(FlowKey, Addr)>,
    }
}

impl LoadReport {
    /// Encodes as a multicast payload.
    pub fn to_payload(&self) -> bytes::Bytes {
        let mut w = Writer::new();
        w.put_raw(MAGIC);
        self.encode(&mut w);
        w.finish()
    }

    /// Decodes a multicast payload; `None` if it is not a load report.
    pub fn from_payload(payload: &[u8]) -> Option<LoadReport> {
        LoadReport::decode_from_bytes(payload.strip_prefix(&MAGIC[..])?).ok()
    }
}

/// Deterministic rendezvous hash: every gateway computes the same handler
/// for `flow` given the same membership.
pub fn handler_for(flow: FlowKey, members: &Ring) -> Option<NodeId> {
    members.iter().max_by_key(|&m| mix(flow, m))
}

fn mix(flow: FlowKey, member: NodeId) -> u64 {
    // SplitMix64-style avalanche over the (flow, member) pair.
    let mut x = flow.client.raw() as u64
        ^ (flow.id.rotate_left(17))
        ^ (u64::from(member.raw()) << 32)
        ^ 0x9e37_79b9_7f4a_7c15;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Counters for the engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Connections opened here (this gateway is the handler).
    pub opened: u64,
    /// Connections garbage-collected after idling.
    pub expired: u64,
    /// Shared-table entries learned from peers' reports.
    pub learned: u64,
}

/// The per-gateway connection table plus the cluster-shared view.
#[derive(Debug, Default)]
pub struct PacketEngine {
    conns: HashMap<FlowKey, ConnEntry>,
    /// Connections handled elsewhere, learned from load reports — the
    /// fail-over fallback for relaying mid-flow packets.
    shared: HashMap<FlowKey, Addr>,
    new_since_report: Vec<(FlowKey, Addr)>,
    /// Latest reported load of each peer gateway.
    peer_load: HashMap<NodeId, u32>,
    /// Counters.
    pub stats: EngineStats,
}

impl PacketEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens (or refreshes) a locally handled connection.
    pub fn open(&mut self, flow: FlowKey, client_addr: Addr, vip: VipId, now: Time) {
        if self
            .conns
            .insert(
                flow,
                ConnEntry {
                    client_addr,
                    vip,
                    last_active: now,
                },
            )
            .is_none()
        {
            self.stats.opened += 1;
            self.new_since_report.push((flow, client_addr));
        }
    }

    /// Looks up a locally handled connection.
    pub fn lookup(&self, flow: FlowKey) -> Option<&ConnEntry> {
        self.conns.get(&flow)
    }

    /// Marks activity on a connection.
    pub fn touch(&mut self, flow: FlowKey, now: Time) {
        if let Some(e) = self.conns.get_mut(&flow) {
            e.last_active = now;
        }
    }

    /// Closes a connection (object fully relayed).
    pub fn close(&mut self, flow: FlowKey) {
        self.conns.remove(&flow);
    }

    /// Falls back to the cluster-shared view for connections handled by
    /// (possibly departed) peers.
    pub fn lookup_shared(&self, flow: FlowKey) -> Option<Addr> {
        self.shared.get(&flow).copied()
    }

    /// Number of locally handled connections.
    pub fn active(&self) -> usize {
        self.conns.len()
    }

    /// Latest load reported by `peer`.
    pub fn peer_load(&self, peer: NodeId) -> Option<u32> {
        self.peer_load.get(&peer).copied()
    }

    /// Expires connections idle longer than `idle`. Returns how many.
    pub fn gc(&mut self, now: Time, idle: Duration) -> usize {
        let before = self.conns.len();
        self.conns.retain(|_, e| now.since(e.last_active) < idle);
        let expired = before - self.conns.len();
        self.stats.expired += expired as u64;
        expired
    }

    /// Builds this gateway's periodic report and resets the delta.
    pub fn take_report(&mut self, me: NodeId) -> LoadReport {
        LoadReport {
            node: me,
            active: self.conns.len() as u32,
            flows: std::mem::take(&mut self.new_since_report),
        }
    }

    /// Applies a peer's report to the shared view.
    pub fn apply_report(&mut self, report: &LoadReport) {
        self.peer_load.insert(report.node, report.active);
        for &(flow, addr) in &report.flows {
            if self.shared.insert(flow, addr).is_none() {
                self.stats.learned += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(client: u32, id: u64) -> FlowKey {
        FlowKey {
            client: NodeId(client),
            id,
        }
    }

    #[test]
    fn rendezvous_is_deterministic_and_total() {
        let ring = Ring::from([0, 1, 2, 3]);
        for c in 0..50 {
            for i in 0..20 {
                let a = handler_for(flow(c, i), &ring);
                let b = handler_for(flow(c, i), &ring);
                assert_eq!(a, b);
                assert!(ring.contains(a.unwrap()));
            }
        }
        assert_eq!(handler_for(flow(0, 0), &Ring::new()), None);
    }

    #[test]
    fn rendezvous_spreads_load_roughly_evenly() {
        let ring = Ring::from([0, 1, 2, 3]);
        let mut counts = [0u32; 4];
        for c in 0..40 {
            for i in 0..25 {
                let h = handler_for(flow(c + 100, i), &ring).unwrap();
                counts[h.raw() as usize] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (150..=350).contains(&c),
                "member {i} got {c} of 1000: {counts:?}"
            );
        }
    }

    #[test]
    fn rendezvous_only_moves_victims_connections() {
        let full = Ring::from([0, 1, 2, 3]);
        let reduced = Ring::from([0, 1, 3]); // node 2 died
        let mut moved_from_survivor = 0;
        for c in 0..40 {
            for i in 0..25 {
                let f = flow(c, i);
                let before = handler_for(f, &full).unwrap();
                let after = handler_for(f, &reduced).unwrap();
                if before != NodeId(2) && before != after {
                    moved_from_survivor += 1;
                }
                if before == NodeId(2) {
                    assert_ne!(after, NodeId(2));
                }
            }
        }
        assert_eq!(moved_from_survivor, 0, "survivors keep their connections");
    }

    #[test]
    fn table_lifecycle_and_gc() {
        let mut e = PacketEngine::new();
        let t0 = Time::ZERO;
        e.open(flow(1, 1), Addr::primary(NodeId(1)), VipId(0), t0);
        e.open(flow(1, 1), Addr::primary(NodeId(1)), VipId(0), t0); // idempotent
        assert_eq!(e.stats.opened, 1);
        assert_eq!(e.active(), 1);
        e.touch(flow(1, 1), t0 + Duration::from_secs(4));
        assert_eq!(e.gc(t0 + Duration::from_secs(5), Duration::from_secs(5)), 0);
        assert_eq!(
            e.gc(t0 + Duration::from_secs(10), Duration::from_secs(5)),
            1
        );
        assert_eq!(e.active(), 0);
        assert_eq!(e.stats.expired, 1);
    }

    #[test]
    fn reports_carry_deltas_and_build_shared_view() {
        let mut a = PacketEngine::new();
        a.open(flow(7, 1), Addr::primary(NodeId(7)), VipId(0), Time::ZERO);
        a.open(flow(8, 1), Addr::primary(NodeId(8)), VipId(0), Time::ZERO);
        let rep = a.take_report(NodeId(0));
        assert_eq!(rep.active, 2);
        assert_eq!(rep.flows.len(), 2);
        // Next report has an empty delta.
        assert!(a.take_report(NodeId(0)).flows.is_empty());

        let mut b = PacketEngine::new();
        b.apply_report(&rep);
        assert_eq!(b.lookup_shared(flow(7, 1)), Some(Addr::primary(NodeId(7))));
        assert_eq!(b.peer_load(NodeId(0)), Some(2));
        assert_eq!(b.stats.learned, 2);
    }

    #[test]
    fn report_payload_round_trip() {
        let rep = LoadReport {
            node: NodeId(3),
            active: 9,
            flows: vec![(flow(7, 2), Addr::primary(NodeId(7)))],
        };
        assert_eq!(LoadReport::from_payload(&rep.to_payload()), Some(rep));
        assert_eq!(LoadReport::from_payload(b"RCIPxx"), None);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Rendezvous placement is minimally disruptive: removing one
        /// member never moves a connection between two surviving members.
        #[test]
        fn prop_rendezvous_minimal_disruption(
            members in proptest::collection::btree_set(0u32..16, 2..8),
            removed_idx in any::<proptest::sample::Index>(),
            flows in proptest::collection::vec((0u32..64, 0u64..64), 1..40),
        ) {
            let ids: Vec<NodeId> = members.iter().map(|&m| NodeId(m)).collect();
            let full = Ring::from_iter(ids.iter().copied());
            let victim = ids[removed_idx.index(ids.len())];
            let mut reduced = full.clone();
            reduced.remove(victim);
            for (c, i) in flows {
                let f = FlowKey { client: NodeId(c + 1000), id: i };
                let before = handler_for(f, &full).unwrap();
                let after = handler_for(f, &reduced).unwrap();
                if before != victim {
                    prop_assert_eq!(before, after, "survivor's connection moved");
                } else {
                    prop_assert!(reduced.contains(after));
                }
            }
        }
    }
}
