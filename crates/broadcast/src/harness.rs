//! Mini-cluster driver for the baseline protocols.
//!
//! The session stack rides the full [`raincore-sim`] harness; the
//! baselines only need a network and a clock, so this small driver keeps
//! the benchmark dependency graph flat (`raincore-broadcast` depends only
//! on `raincore-net`).
//!
//! [`raincore-sim`]: https://docs.rs/raincore-sim

use crate::node::{BroadcastEvent, BroadcastNode, BroadcastStats, Mode};
use bytes::Bytes;
use raincore_net::{NetStats, SimNet, SimNetConfig};
use raincore_types::{Duration, NodeId, OriginSeq, Time};
use std::collections::BTreeMap;

/// A cluster of baseline-protocol nodes on a simulated network.
pub struct BroadcastCluster {
    now: Time,
    net: SimNet,
    nodes: BTreeMap<NodeId, BroadcastNode>,
    deliveries: BTreeMap<NodeId, Vec<(NodeId, OriginSeq, Bytes)>>,
    completes: BTreeMap<NodeId, Vec<OriginSeq>>,
}

impl BroadcastCluster {
    /// Builds `n` nodes (ids `0..n`) speaking `mode` over `net_cfg`.
    pub fn new(n: u32, mode: Mode, net_cfg: SimNetConfig, retry: Duration) -> Self {
        let members: Vec<NodeId> = (0..n).map(NodeId).collect();
        let nodes = members
            .iter()
            .map(|&id| (id, BroadcastNode::new(id, members.clone(), mode, retry)))
            .collect();
        BroadcastCluster {
            now: Time::ZERO,
            net: SimNet::new(net_cfg),
            nodes,
            deliveries: BTreeMap::new(),
            completes: BTreeMap::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Originates a multicast from `id`.
    pub fn multicast(&mut self, id: NodeId, payload: Bytes) -> OriginSeq {
        let now = self.now;
        // Bench harness driver: node ids originate from its own constructor.
        #[allow(clippy::expect_used)]
        let n = self.nodes.get_mut(&id).expect("node");
        let oseq = n.multicast(now, payload);
        self.drain(id);
        oseq
    }

    /// Runs until `t_end`.
    pub fn run_until(&mut self, t_end: Time) {
        loop {
            let mut moved = false;
            let ids: Vec<NodeId> = self.nodes.keys().copied().collect();
            for id in ids {
                moved |= self.flush(id);
            }
            let arrivals = self.net.pop_arrivals(self.now);
            let had = !arrivals.is_empty();
            for d in arrivals {
                let id = d.dst.node;
                let now = self.now;
                if let Some(n) = self.nodes.get_mut(&id) {
                    n.on_datagram(now, d);
                }
                self.drain(id);
            }
            if moved || had {
                continue;
            }
            let mut next = self.net.next_arrival();
            for n in self.nodes.values() {
                next = match (next, n.next_wakeup()) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, None) => a,
                    (None, b) => b,
                };
            }
            match next {
                Some(t) if t <= t_end => {
                    self.now = t.max(self.now);
                    let now = self.now;
                    let ids: Vec<NodeId> = self.nodes.keys().copied().collect();
                    for id in ids {
                        if let Some(n) = self.nodes.get_mut(&id) {
                            n.on_tick(now);
                        }
                        self.drain(id);
                    }
                }
                _ => {
                    self.now = t_end;
                    return;
                }
            }
        }
    }

    /// Runs for `d` more virtual time.
    pub fn run_for(&mut self, d: Duration) {
        let t = self.now + d;
        self.run_until(t);
    }

    fn flush(&mut self, id: NodeId) -> bool {
        let now = self.now;
        let mut moved = false;
        if let Some(n) = self.nodes.get_mut(&id) {
            while let Some(d) = n.poll_outgoing() {
                self.net.send(now, d);
                moved = true;
            }
        }
        moved
    }

    fn drain(&mut self, id: NodeId) {
        let Some(n) = self.nodes.get_mut(&id) else {
            return;
        };
        while let Some(ev) = n.poll_event() {
            match ev {
                BroadcastEvent::Delivery {
                    origin,
                    oseq,
                    payload,
                } => {
                    self.deliveries
                        .entry(id)
                        .or_default()
                        .push((origin, oseq, payload));
                }
                BroadcastEvent::Complete { oseq } => {
                    self.completes.entry(id).or_default().push(oseq);
                }
            }
        }
        self.flush(id);
    }

    /// Deliveries observed at a node, in delivery order.
    pub fn deliveries(&self, id: NodeId) -> &[(NodeId, OriginSeq, Bytes)] {
        self.deliveries.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Completed (fully propagated) multicasts originated at a node.
    pub fn completes(&self, id: NodeId) -> &[OriginSeq] {
        self.completes.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Node counters.
    pub fn stats(&self, id: NodeId) -> BroadcastStats {
        self.nodes.get(&id).map(|n| n.stats()).unwrap_or_default()
    }

    /// Network accounting.
    pub fn net_stats(&self) -> &NetStats {
        self.net.stats()
    }

    /// Resets network accounting.
    pub fn reset_net_stats(&mut self) {
        self.net.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raincore_net::PacketClass;

    fn lossless() -> SimNetConfig {
        SimNetConfig::default()
    }

    fn run(mode: Mode, n: u32, msgs_per_node: u32) -> BroadcastCluster {
        let mut c = BroadcastCluster::new(n, mode, lossless(), Duration::from_millis(20));
        for k in 0..msgs_per_node {
            for i in 0..n {
                c.multicast(NodeId(i), Bytes::from(vec![i as u8, k as u8]));
            }
        }
        c.run_for(Duration::from_secs(5));
        c
    }

    #[test]
    fn unreliable_delivers_everywhere_on_clean_network() {
        let c = run(Mode::Unreliable, 4, 3);
        for i in 0..4 {
            assert_eq!(c.deliveries(NodeId(i)).len(), 12, "node {i}");
        }
    }

    #[test]
    fn unreliable_packet_count_matches_fanout_formula() {
        let n = 6u32;
        let c = run(Mode::Unreliable, n, 1);
        // Each of the N nodes sends N-1 unicasts: N(N-1) packets total.
        let total = c.net_stats().total_sent(PacketClass::Control).pkts;
        assert_eq!(total, u64::from(n * (n - 1)));
    }

    #[test]
    fn reliable_packet_count_doubles_with_acks() {
        let n = 5u32;
        let c = run(Mode::Reliable, n, 1);
        let total = c.net_stats().total_sent(PacketClass::Control).pkts;
        assert_eq!(total, u64::from(2 * n * (n - 1)), "data + acks");
        // Every originator learned completion.
        for i in 0..n {
            assert_eq!(c.completes(NodeId(i)).len(), 1);
        }
    }

    #[test]
    fn reliable_survives_loss_exactly_once() {
        let mut net = lossless();
        net.loss = 0.3;
        net.seed = 5;
        let mut c = BroadcastCluster::new(3, Mode::Reliable, net, Duration::from_millis(10));
        for i in 0..3 {
            c.multicast(NodeId(i), Bytes::from(vec![i as u8]));
        }
        c.run_for(Duration::from_secs(10));
        for i in 0..3 {
            let d = c.deliveries(NodeId(i));
            assert_eq!(d.len(), 3, "node {i} sees each message exactly once: {d:?}");
            assert!(c.stats(NodeId(i)).retransmissions > 0 || i > 0);
        }
    }

    #[test]
    fn sequenced_gives_identical_total_order() {
        let c = run(Mode::Sequenced, 4, 5);
        let reference: Vec<(NodeId, OriginSeq)> = c
            .deliveries(NodeId(0))
            .iter()
            .map(|(o, s, _)| (*o, *s))
            .collect();
        assert_eq!(reference.len(), 20);
        for i in 1..4 {
            let got: Vec<(NodeId, OriginSeq)> = c
                .deliveries(NodeId(i))
                .iter()
                .map(|(o, s, _)| (*o, *s))
                .collect();
            assert_eq!(got, reference, "node {i} must agree on the total order");
        }
        for i in 0..4 {
            assert_eq!(c.completes(NodeId(i)).len(), 5, "node {i} completions");
        }
    }

    #[test]
    fn sequenced_costs_far_more_packets_than_plain_fanout() {
        let n = 4u32;
        let plain = run(Mode::Unreliable, n, 1)
            .net_stats()
            .total_sent(PacketClass::Control)
            .pkts;
        let seq = run(Mode::Sequenced, n, 1)
            .net_stats()
            .total_sent(PacketClass::Control)
            .pkts;
        assert!(
            seq >= 3 * plain,
            "2PC ({seq} pkts) should dwarf plain fan-out ({plain} pkts)"
        );
    }

    #[test]
    fn task_switch_metric_counts_receptions() {
        let n = 4u32;
        let c = run(Mode::Unreliable, n, 10);
        for i in 0..n {
            // Each node receives 10 messages from each of the other N-1.
            assert_eq!(c.stats(NodeId(i)).events_processed, u64::from(10 * (n - 1)));
        }
    }
}
