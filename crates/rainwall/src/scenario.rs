//! One-call construction of the full Rainwall benchmark topology.
//!
//! The paper's lab (§4.2): Rainwall gateways on switched Fast Ethernet,
//! HTTP clients on one side, Apache servers on the other. Here:
//! `gateways` session members run [`GatewayApp`], `clients` plain hosts
//! run [`ClientApp`], `servers` plain hosts run [`ServerApp`], all on one
//! [`SimNet`] (switch or hub, per the config).
//!
//! [`SimNet`]: raincore_net::SimNet

use crate::firewall::{Firewall, Rule};
use crate::gateway::{GatewayApp, GatewayCfg};
use crate::traffic::{ClientApp, ClientStats, ServerApp};
use raincore_session::StartMode;
use raincore_sim::{Cluster, ClusterBuilder, ClusterConfig};
use raincore_types::{Duration, NodeId, Ring, VipId};
use raincore_vip::SubnetArp;
use std::collections::BTreeMap;
use std::sync::Arc;

/// First server node id (gateways are `0..gateways`).
pub const SERVER_BASE: u32 = 100;
/// First client node id.
pub const CLIENT_BASE: u32 = 200;

/// Scenario parameters.
#[derive(Clone, Debug)]
pub struct ScenarioCfg {
    /// Number of Rainwall gateways (the paper sweeps 1, 2, 4).
    pub gateways: u32,
    /// Number of client hosts.
    pub clients: u32,
    /// Number of server hosts.
    pub servers: u32,
    /// Total virtual IPs in the pool.
    pub vips: u32,
    /// Downloaded object size in bytes.
    pub object_bytes: u32,
    /// Concurrent downloads per client.
    pub flows_per_client: u32,
    /// Payload bytes per response chunk (plus 42 header bytes on wire).
    pub chunk_payload: usize,
    /// Client request timeout before retrying with a fresh flow.
    pub request_timeout: Duration,
    /// Gateway load-report period.
    pub report_interval: Duration,
    /// Client goodput bucket width.
    pub bucket: Duration,
    /// Firewall policy installed on every gateway.
    pub rules: Vec<Rule>,
    /// Cluster (session/transport/network) configuration.
    pub cluster: ClusterConfig,
}

impl Default for ScenarioCfg {
    fn default() -> Self {
        let mut cluster = ClusterConfig {
            net: raincore_net::SimNetConfig::fast_ethernet_switch(),
            ..Default::default()
        };
        cluster.session.token_hold = Duration::from_millis(5);
        cluster.session.hungry_timeout = Duration::from_millis(500);
        cluster.session.starving_retry = Duration::from_millis(100);
        cluster.session.beacon_period = Duration::from_millis(500);
        cluster.transport.retry_timeout = Duration::from_millis(50);
        ScenarioCfg {
            gateways: 2,
            clients: 8,
            servers: 8,
            vips: 8,
            object_bytes: 100_000,
            flows_per_client: 2,
            chunk_payload: 1208, // 1250 wire bytes per chunk
            request_timeout: Duration::from_millis(500),
            report_interval: Duration::from_millis(100),
            bucket: Duration::from_millis(100),
            rules: Vec::new(),
            cluster,
        }
    }
}

/// A built scenario. What its hosts have counted is read off the
/// applications themselves: [`Scenario::gateway`], [`Scenario::client`],
/// [`Scenario::served`].
pub struct Scenario {
    /// The running cluster.
    pub cluster: Cluster,
    /// The shared subnet ARP cache.
    pub arp: Arc<SubnetArp>,
    /// Gateway node ids.
    pub gateway_ids: Vec<NodeId>,
    /// Client node ids.
    pub client_ids: Vec<NodeId>,
    /// Server node ids.
    pub server_ids: Vec<NodeId>,
    /// The configuration the scenario was built from.
    pub cfg: ScenarioCfg,
}

impl Scenario {
    /// Builds the topology at t = 0.
    pub fn build(cfg: ScenarioCfg) -> raincore_types::Result<Scenario> {
        let gateway_ids: Vec<NodeId> = (0..cfg.gateways).map(NodeId).collect();
        let server_ids: Vec<NodeId> = (0..cfg.servers).map(|i| NodeId(SERVER_BASE + i)).collect();
        let client_ids: Vec<NodeId> = (0..cfg.clients).map(|i| NodeId(CLIENT_BASE + i)).collect();
        let pool: Vec<VipId> = (0..cfg.vips).map(VipId).collect();
        let ring = Ring::from_iter(gateway_ids.iter().copied());
        let arp = SubnetArp::shared();

        let mut builder = ClusterBuilder::new(cfg.cluster.clone());
        for &g in &gateway_ids {
            builder = builder.member(g, StartMode::Founding(ring.clone()));
            let gcfg = GatewayCfg {
                servers: server_ids.clone(),
                report_interval: cfg.report_interval,
                conn_idle: Duration::from_secs(5),
            };
            let app = GatewayApp::new(
                g,
                gcfg,
                pool.clone(),
                arp.clone(),
                Firewall::new(cfg.rules.clone()),
            );
            builder = builder.app(g, Box::new(app));
        }

        for &s in &server_ids {
            let app = ServerApp::new(s, cfg.chunk_payload);
            builder = builder.plain_host(s).app(s, Box::new(app));
        }

        for &c in &client_ids {
            builder = builder.plain_host(c);
            let app = ClientApp::new(
                c,
                arp.clone(),
                pool.clone(),
                cfg.flows_per_client,
                cfg.object_bytes,
                cfg.request_timeout,
                cfg.bucket,
            );
            builder = builder.app(c, Box::new(app));
        }

        Ok(Scenario {
            cluster: builder.build()?,
            arp,
            gateway_ids,
            client_ids,
            server_ids,
            cfg,
        })
    }

    /// A gateway: its counters and its replica of the VIP table.
    pub fn gateway(&self, gw: NodeId) -> Option<&GatewayApp> {
        self.cluster.app(gw)
    }

    /// What one client has downloaded.
    pub fn client(&self, client: NodeId) -> Option<&ClientStats> {
        self.cluster.app(client).map(ClientApp::stats)
    }

    fn clients(&self) -> impl Iterator<Item = &ClientStats> {
        self.client_ids.iter().filter_map(|&c| self.client(c))
    }

    /// Objects the server farm has served.
    pub fn served(&self) -> u64 {
        let servers = self.server_ids.iter();
        servers
            .filter_map(|&s| self.cluster.app::<ServerApp>(s))
            .map(|s| s.served)
            .sum()
    }

    /// Aggregate client goodput in Mbit/s over a window.
    pub fn goodput_mbps(&self, from: raincore_types::Time, to: raincore_types::Time) -> f64 {
        self.clients()
            .map(|s| s.goodput_mbps(from, to, self.cfg.bucket))
            .sum()
    }

    /// Total completed downloads across clients.
    pub fn completed(&self) -> u64 {
        self.clients().map(|s| s.completed).sum()
    }

    /// Total client retries (stalled flows abandoned).
    pub fn retries(&self) -> u64 {
        self.clients().map(|s| s.retries).sum()
    }

    /// Aggregate received payload bytes per bucket across clients
    /// (bucket index → bytes) — the fail-over gap is visible here.
    pub fn bucket_series(&self) -> BTreeMap<u64, u64> {
        let mut out: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.clients() {
            for (&b, &v) in &s.buckets {
                *out.entry(b).or_default() += v;
            }
        }
        out
    }

    /// The group-communication CPU share of a gateway, assuming
    /// `per_event_cost` CPU time per task switch — the paper's "Rainwall
    /// CPU usage is below 1 %" figure (§4.2).
    pub fn group_comm_cpu_share(
        &self,
        gw: NodeId,
        per_event_cost: Duration,
        elapsed: Duration,
    ) -> f64 {
        let switches = self
            .cluster
            .session(gw)
            .map(|s| s.metrics().task_switches)
            .unwrap_or(0);
        (switches as f64 * per_event_cost.as_secs_f64()) / elapsed.as_secs_f64().max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raincore_types::Time;

    fn small(gateways: u32) -> ScenarioCfg {
        ScenarioCfg {
            gateways,
            clients: 4,
            servers: 4,
            vips: 4,
            object_bytes: 50_000,
            flows_per_client: 2,
            ..Default::default()
        }
    }

    #[test]
    fn traffic_flows_end_to_end() {
        let mut s = Scenario::build(small(2)).unwrap();
        s.cluster.run_until(Time::ZERO + Duration::from_secs(3));
        assert!(s.completed() > 10, "downloads complete: {}", s.completed());
        assert!(s.served() > 0, "servers answered fetches");
        // Both gateways carried traffic (VIPs are spread).
        for &g in &s.gateway_ids {
            let st = s.gateway(g).unwrap().stats();
            assert!(st.requests > 0, "gateway {g} idle: {st:?}");
        }
        assert_eq!(s.retries(), 0, "no stalls on a healthy cluster");
    }

    #[test]
    fn single_gateway_throughput_is_nic_limited() {
        let mut s = Scenario::build(small(1)).unwrap();
        s.cluster.run_until(Time::ZERO + Duration::from_secs(4));
        let t0 = Time::ZERO + Duration::from_secs(2);
        let t1 = Time::ZERO + Duration::from_secs(4);
        let mbps = s.goodput_mbps(t0, t1);
        assert!(
            (60.0..100.0).contains(&mbps),
            "one Fast-Ethernet gateway ≈ 95 Mbit/s, got {mbps:.1}"
        );
    }

    #[test]
    fn two_gateways_nearly_double_throughput() {
        let run = |g: u32| {
            let mut s = Scenario::build(small(g)).unwrap();
            s.cluster.run_until(Time::ZERO + Duration::from_secs(4));
            s.goodput_mbps(
                Time::ZERO + Duration::from_secs(2),
                Time::ZERO + Duration::from_secs(4),
            )
        };
        let one = run(1);
        let two = run(2);
        let scaling = two / one;
        assert!(scaling > 1.6, "2-node scaling {scaling:.2} (paper: 1.97)");
    }

    #[test]
    fn gateway_failure_causes_bounded_hiccup_then_recovery() {
        let mut s = Scenario::build(small(2)).unwrap();
        s.cluster.run_until(Time::ZERO + Duration::from_secs(3));
        let victim = NodeId(1);
        s.cluster.crash(victim);
        let t_crash = s.cluster.now();
        s.cluster.run_until(t_crash + Duration::from_secs(5));
        // Traffic recovered: goodput in the last second is healthy.
        let t1 = s.cluster.now();
        let mbps = s.goodput_mbps(t1 - Duration::from_secs(1), t1);
        assert!(
            mbps > 30.0,
            "traffic resumed after fail-over, got {mbps:.1} Mbit/s"
        );
        assert!(s.retries() > 0, "the hiccup abandoned some flows");
        // All VIPs ended up on the survivor.
        let mgr = s.gateway(NodeId(0)).unwrap().vip();
        for &vip in mgr.pool() {
            assert_eq!(mgr.owner_of(vip), Some(NodeId(0)));
        }
    }

    #[test]
    fn firewall_policy_blocks_denied_clients() {
        let mut cfg = small(1);
        // Deny the first client host.
        cfg.rules = vec![Rule::deny_clients(NodeId(CLIENT_BASE), NodeId(CLIENT_BASE))];
        let mut s = Scenario::build(cfg).unwrap();
        s.cluster.run_until(Time::ZERO + Duration::from_secs(2));
        let denied_client = s.client(NodeId(CLIENT_BASE)).unwrap();
        let ok_client = s.client(NodeId(CLIENT_BASE + 1)).unwrap();
        assert_eq!(denied_client.completed, 0, "denied client got nothing");
        assert!(denied_client.retries > 0, "its requests time out");
        assert!(ok_client.completed > 0, "allowed clients unaffected");
        assert!(s.gateway(NodeId(0)).unwrap().stats().denied > 0);
    }

    #[test]
    fn per_connection_engine_spreads_work() {
        let mut cfg = small(2);
        cfg.vips = 1; // all traffic lands on ONE vip owner…
        let mut s = Scenario::build(cfg).unwrap();
        s.cluster.run_until(Time::ZERO + Duration::from_secs(3));
        // …yet both gateways proxy connections thanks to the engine.
        let gateways = || {
            s.gateway_ids
                .iter()
                .map(|&g| *s.gateway(g).unwrap().stats())
        };
        let proxied: Vec<u64> = gateways().map(|g| g.proxied).collect();
        assert!(
            proxied.iter().all(|&p| p > 0),
            "hand-off balanced: {proxied:?}"
        );
        let handed: u64 = gateways().map(|g| g.handed_off).sum();
        assert!(handed > 0, "connections were handed off");
    }
}
