//! The Rainwall gateway application.
//!
//! One [`GatewayApp`] runs on each firewall node, tying together:
//!
//! * the **VIP manager** — coarse load balancing and traffic fail-over
//!   (§3.1): virtual IPs spread over the gateways, moved with gratuitous
//!   ARPs when a gateway fails;
//! * the **firewall** — policy filtering of new connections;
//! * the **packet engine** — per-connection placement over the live
//!   membership, connection hand-off, proxying to the server farm, and
//!   relaying response chunks back to clients;
//! * **state sharing** — periodic load/connection reports multicast
//!   through the Raincore session service.

use crate::engine::{handler_for, LoadReport, PacketEngine};
use crate::firewall::{Action, Firewall};
use crate::packet::{AppPacket, FlowKey};
use raincore_net::{Addr, Datagram};
use raincore_session::SessionEvent;
use raincore_sim::{NodeApp, NodeCtl};
use raincore_types::wire::{WireDecode, WireEncode};
use raincore_types::{DeliveryMode, Duration, NodeId, Time, VipId};
use raincore_vip::{SubnetArp, VipManager};
use std::sync::Arc;

/// Gateway configuration.
#[derive(Clone, Debug)]
pub struct GatewayCfg {
    /// The server farm behind the cluster.
    pub servers: Vec<NodeId>,
    /// Load/connection report period (the paper's periodic state
    /// sharing; also the `M` knob of the overhead experiments).
    pub report_interval: Duration,
    /// Idle time after which a connection is garbage-collected.
    pub conn_idle: Duration,
    /// Enable per-connection rendezvous placement (the packet engine).
    /// When disabled the VIP owner handles everything it receives.
    pub per_connection_balance: bool,
}

impl Default for GatewayCfg {
    fn default() -> Self {
        GatewayCfg {
            servers: Vec::new(),
            report_interval: Duration::from_millis(100),
            conn_idle: Duration::from_secs(5),
            per_connection_balance: true,
        }
    }
}

/// Gateway counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Client requests received (on any of our VIPs).
    pub requests: u64,
    /// New connections denied by the firewall policy.
    pub denied: u64,
    /// Connections handed off to their rendezvous handler.
    pub handed_off: u64,
    /// Connections proxied to a server from this gateway.
    pub proxied: u64,
    /// Response chunks relayed to clients.
    pub chunks_to_clients: u64,
    /// Response payload bytes relayed to clients.
    pub bytes_to_clients: u64,
    /// Chunks relayed using the cluster-shared connection table.
    pub relayed_shared: u64,
    /// Chunks dropped: unknown connection (stateful filtering).
    pub dropped_unknown: u64,
}

/// The gateway node application. See the module docs.
pub struct GatewayApp {
    me: NodeId,
    cfg: GatewayCfg,
    vip: VipManager,
    firewall: Firewall,
    engine: PacketEngine,
    stats: GatewayStats,
    server_rr: usize,
    next_report: Time,
    next_gc: Time,
}

impl GatewayApp {
    /// Creates a gateway app.
    pub fn new(
        me: NodeId,
        cfg: GatewayCfg,
        vip_pool: Vec<VipId>,
        arp: Arc<SubnetArp>,
        firewall: Firewall,
    ) -> Self {
        GatewayApp {
            me,
            next_report: Time::ZERO + cfg.report_interval,
            cfg,
            vip: VipManager::new(me, vip_pool).announcing(arp),
            firewall,
            engine: PacketEngine::new(),
            stats: GatewayStats::default(),
            server_rr: 0,
            next_gc: Time::ZERO + Duration::from_secs(1),
        }
    }

    /// What this gateway has filtered, proxied and relayed so far.
    pub fn stats(&self) -> &GatewayStats {
        &self.stats
    }

    /// This gateway's replica of the VIP assignment table.
    pub fn vip(&self) -> &VipManager {
        &self.vip
    }

    fn my_addr(&self) -> Addr {
        Addr::primary(self.me)
    }

    fn send_app(&self, ctl: &mut NodeCtl<'_>, dst: Addr, pkt: &AppPacket) {
        ctl.send(Datagram::data(self.my_addr(), dst, pkt.encode_to_bytes()));
    }

    /// Proxies a connection to the server farm (round-robin).
    fn proxy(
        &mut self,
        ctl: &mut NodeCtl<'_>,
        flow: FlowKey,
        client_addr: Addr,
        vip: VipId,
        object_bytes: u32,
    ) {
        if self.cfg.servers.is_empty() {
            return;
        }
        self.engine.open(flow, client_addr, vip, ctl.now);
        let server = self.cfg.servers[self.server_rr % self.cfg.servers.len()];
        self.server_rr += 1;
        self.stats.proxied += 1;
        self.send_app(
            ctl,
            Addr::primary(server),
            &AppPacket::FetchReq { flow, object_bytes },
        );
    }
}

impl NodeApp for GatewayApp {
    fn on_data(&mut self, ctl: &mut NodeCtl<'_>, dgram: Datagram) {
        let Ok(pkt) = AppPacket::decode_from_bytes(&dgram.payload) else {
            return;
        };
        match pkt {
            AppPacket::Request {
                flow,
                vip,
                object_bytes,
            } => {
                self.stats.requests += 1;
                if self.firewall.admit(flow, vip) == Action::Deny {
                    self.stats.denied += 1;
                    return;
                }
                let handler = if self.cfg.per_connection_balance {
                    ctl.session
                        .as_deref()
                        .and_then(|s| handler_for(flow, s.ring()))
                        .unwrap_or(self.me)
                } else {
                    self.me
                };
                if handler == self.me {
                    self.proxy(ctl, flow, dgram.src, vip, object_bytes);
                } else {
                    self.stats.handed_off += 1;
                    self.send_app(
                        ctl,
                        Addr::primary(handler),
                        &AppPacket::HandOff {
                            flow,
                            vip,
                            client_addr: dgram.src,
                            object_bytes,
                        },
                    );
                }
            }
            AppPacket::HandOff {
                flow,
                vip,
                client_addr,
                object_bytes,
            } => {
                self.proxy(ctl, flow, client_addr, vip, object_bytes);
            }
            AppPacket::Chunk {
                flow,
                seq,
                last,
                fill,
            } => {
                let now = ctl.now;
                if let Some(entry) = self.engine.lookup(flow) {
                    let dst = entry.client_addr;
                    self.engine.touch(flow, now);
                    if last {
                        self.engine.close(flow);
                    }
                    self.stats.chunks_to_clients += 1;
                    self.stats.bytes_to_clients += fill.len() as u64;
                    self.send_app(
                        ctl,
                        dst,
                        &AppPacket::Chunk {
                            flow,
                            seq,
                            last,
                            fill,
                        },
                    );
                } else if let Some(dst) = self.engine.lookup_shared(flow) {
                    // Connection handled by a (possibly departed) peer but
                    // known from state sharing: keep it alive (fail-over).
                    self.stats.relayed_shared += 1;
                    self.stats.chunks_to_clients += 1;
                    self.stats.bytes_to_clients += fill.len() as u64;
                    self.send_app(
                        ctl,
                        dst,
                        &AppPacket::Chunk {
                            flow,
                            seq,
                            last,
                            fill,
                        },
                    );
                } else {
                    // Stateful filtering: unknown mid-flow packets drop.
                    self.stats.dropped_unknown += 1;
                }
            }
            AppPacket::FetchReq { .. } => {
                // Server-side packet; a gateway ignores it.
            }
        }
    }

    fn on_session_event(&mut self, ctl: &mut NodeCtl<'_>, event: &SessionEvent) {
        self.vip.on_session_event(ctl, event);
        // A simulated gateway has no address to install or drop.
        while self.vip.poll_event().is_some() {}
        if let SessionEvent::Delivery(d) = event {
            if let Some(rep) = LoadReport::from_payload(&d.payload) {
                if rep.node != self.me {
                    self.engine.apply_report(&rep);
                }
            }
        }
    }

    fn on_tick(&mut self, ctl: &mut NodeCtl<'_>) {
        let now = ctl.now;
        self.vip.on_tick(ctl);
        if now >= self.next_report {
            self.next_report = now + self.cfg.report_interval;
            let report = self.engine.take_report(self.me);
            if let Some(session) = ctl.session.as_deref_mut() {
                let _ = session.multicast(DeliveryMode::Agreed, report.to_payload());
            }
        }
        if now >= self.next_gc {
            self.next_gc = now + Duration::from_secs(1);
            self.engine.gc(now, self.cfg.conn_idle);
        }
    }

    fn next_wakeup(&self) -> Option<Time> {
        let mine = self.next_report.min(self.next_gc);
        Some(self.vip.next_wakeup().map_or(mine, |t| t.min(mine)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LoadReport;
    use crate::packet::FlowKey;
    use bytes::Bytes;
    use raincore_session::{Delivery, SessionEvent};
    use raincore_types::OriginSeq;

    fn mk_gateway() -> GatewayApp {
        GatewayApp::new(
            NodeId(0),
            GatewayCfg {
                servers: vec![NodeId(100)],
                ..Default::default()
            },
            vec![VipId(0)],
            SubnetArp::shared(),
            Firewall::new(vec![]),
        )
    }

    fn chunk(flow: FlowKey, last: bool) -> Datagram {
        let pkt = AppPacket::Chunk {
            flow,
            seq: 0,
            last,
            fill: Bytes::from(vec![0u8; 64]),
        };
        Datagram::data(
            Addr::primary(NodeId(100)),
            Addr::primary(NodeId(0)),
            pkt.encode_to_bytes(),
        )
    }

    #[test]
    fn shared_connection_table_keeps_flows_alive_after_failover() {
        // §3.2: "The load and connection assignment information are
        // shared among the cluster using the Raincore Distributed Session
        // Service." A gateway that never opened a connection can still
        // relay its packets using the shared table learned from a peer's
        // load report — the fail-over path for established connections.
        let mut gw = mk_gateway();
        let flow = FlowKey {
            client: NodeId(200),
            id: 7,
        };
        let client_addr = Addr::primary(NodeId(200));

        // A peer gateway's load report arrives as a session delivery.
        let report = LoadReport {
            node: NodeId(1),
            active: 1,
            flows: vec![(flow, client_addr)],
        };
        let mut sends = Vec::new();
        {
            let mut ctl = raincore_sim::NodeCtl::detached(Time::ZERO, NodeId(0), None, &mut sends);
            gw.on_session_event(
                &mut ctl,
                &SessionEvent::Delivery(Delivery {
                    origin: NodeId(1),
                    seq: OriginSeq(0),
                    mode: raincore_types::DeliveryMode::Agreed,
                    payload: report.to_payload(),
                }),
            );
        }
        assert!(sends.is_empty());

        // A mid-flow chunk for that (foreign) connection arrives here.
        let mut sends = Vec::new();
        {
            let mut ctl = raincore_sim::NodeCtl::detached(Time::ZERO, NodeId(0), None, &mut sends);
            gw.on_data(&mut ctl, chunk(flow, false));
        }
        assert_eq!(sends.len(), 1, "relayed via the shared table");
        assert_eq!(sends[0].dst, client_addr);
        assert_eq!(gw.stats().relayed_shared, 1);
        assert_eq!(gw.stats().dropped_unknown, 0);
    }

    #[test]
    fn unknown_flows_are_dropped_statefully() {
        let mut gw = mk_gateway();
        let mut sends = Vec::new();
        {
            let mut ctl = raincore_sim::NodeCtl::detached(Time::ZERO, NodeId(0), None, &mut sends);
            gw.on_data(
                &mut ctl,
                chunk(
                    FlowKey {
                        client: NodeId(201),
                        id: 9,
                    },
                    false,
                ),
            );
        }
        assert!(
            sends.is_empty(),
            "no connection, no relay: stateful filtering"
        );
        assert_eq!(gw.stats().dropped_unknown, 1);
    }

    #[test]
    fn own_load_report_is_ignored() {
        let mut gw = mk_gateway();
        let flow = FlowKey {
            client: NodeId(200),
            id: 1,
        };
        let report = LoadReport {
            node: NodeId(0), // ourselves
            active: 1,
            flows: vec![(flow, Addr::primary(NodeId(200)))],
        };
        let mut sends = Vec::new();
        {
            let mut ctl = raincore_sim::NodeCtl::detached(Time::ZERO, NodeId(0), None, &mut sends);
            gw.on_session_event(
                &mut ctl,
                &SessionEvent::Delivery(Delivery {
                    origin: NodeId(0),
                    seq: OriginSeq(0),
                    mode: raincore_types::DeliveryMode::Agreed,
                    payload: report.to_payload(),
                }),
            );
            gw.on_data(&mut ctl, chunk(flow, false));
        }
        assert!(sends.is_empty());
        assert_eq!(gw.stats().dropped_unknown, 1, "no self-learning loop");
    }
}
