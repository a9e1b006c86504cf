//! Flow-level web traffic: clients and servers.
//!
//! The paper's benchmark lab places "HTTP clients at one side to request
//! data from Apache web servers on the other side of the Rainwall
//! cluster" (§4.2). [`ClientApp`] keeps a configurable number of flows in
//! flight, addressing virtual IPs resolved through the shared ARP cache;
//! [`ServerApp`] answers each proxied fetch with a burst of MTU-sized
//! chunks. Clients time out stalled flows and retry with a fresh flow —
//! which is exactly what produces the "2-second hick-up" (not a broken
//! connection) when a gateway's cable is pulled mid-download (§3.2).

use crate::packet::{AppPacket, FlowKey};
use bytes::Bytes;
use raincore_net::{Addr, Datagram};
use raincore_sim::{NodeApp, NodeCtl};
use raincore_types::{Duration, NodeId, Time, VipId};
use raincore_vip::SubnetArp;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Client counters and goodput time series.
#[derive(Clone, Debug, Default)]
pub struct ClientStats {
    /// Completed downloads.
    pub completed: u64,
    /// Application payload bytes received.
    pub bytes_received: u64,
    /// Flows abandoned after the request timeout.
    pub retries: u64,
    /// Received payload bytes per time bucket (index = time / bucket).
    pub buckets: BTreeMap<u64, u64>,
}

impl ClientStats {
    /// Goodput in Mbit/s over `[from, to)` given the bucket width.
    pub fn goodput_mbps(&self, from: Time, to: Time, bucket: Duration) -> f64 {
        if to <= from || bucket.is_zero() {
            return 0.0;
        }
        let b0 = from.as_nanos() / bucket.as_nanos();
        let b1 = to.as_nanos() / bucket.as_nanos();
        let bytes: u64 = self.buckets.range(b0..b1).map(|(_, &v)| v).sum();
        bytes as f64 * 8.0 / to.since(from).as_secs_f64() / 1e6
    }
}

struct FlowState {
    last_activity: Time,
}

/// A web client host: keeps `flows_target` downloads in flight.
pub struct ClientApp {
    me: NodeId,
    arp: Arc<SubnetArp>,
    vips: Vec<VipId>,
    flows_target: u32,
    object_bytes: u32,
    request_timeout: Duration,
    bucket: Duration,
    next_flow_id: u64,
    vip_rr: usize,
    active: HashMap<FlowKey, FlowState>,
    stats: ClientStats,
    next_check: Time,
}

impl ClientApp {
    /// Creates a client host app.
    pub fn new(
        me: NodeId,
        arp: Arc<SubnetArp>,
        vips: Vec<VipId>,
        flows_target: u32,
        object_bytes: u32,
        request_timeout: Duration,
        bucket: Duration,
    ) -> Self {
        ClientApp {
            me,
            arp,
            vips,
            flows_target,
            object_bytes,
            request_timeout,
            bucket,
            next_flow_id: 0,
            vip_rr: 0,
            active: HashMap::new(),
            stats: ClientStats::default(),
            next_check: Time::ZERO,
        }
    }

    /// What this client has downloaded so far.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    fn start_flow(&mut self, ctl: &mut NodeCtl<'_>) -> bool {
        let vip = self.vips[self.vip_rr % self.vips.len()];
        self.vip_rr += 1;
        let Some(owner) = self.arp.resolve(vip) else {
            return false; // VIP not announced yet; retry on the next check
        };
        let flow = FlowKey {
            client: self.me,
            id: self.next_flow_id,
        };
        self.next_flow_id += 1;
        self.active.insert(
            flow,
            FlowState {
                last_activity: ctl.now,
            },
        );
        let pkt = AppPacket::Request {
            flow,
            vip,
            object_bytes: self.object_bytes,
        };
        ctl.send(Datagram::data(
            Addr::primary(self.me),
            Addr::primary(owner),
            raincore_types::wire::WireEncode::encode_to_bytes(&pkt),
        ));
        true
    }
}

impl NodeApp for ClientApp {
    fn on_data(&mut self, ctl: &mut NodeCtl<'_>, dgram: Datagram) {
        let Ok(AppPacket::Chunk {
            flow, last, fill, ..
        }) = raincore_types::wire::WireDecode::decode_from_bytes(&dgram.payload)
        else {
            return;
        };
        let Some(st) = self.active.get_mut(&flow) else {
            return; // stale chunk from an abandoned flow
        };
        st.last_activity = ctl.now;
        self.stats.bytes_received += fill.len() as u64;
        let bucket = ctl.now.as_nanos() / self.bucket.as_nanos().max(1);
        *self.stats.buckets.entry(bucket).or_default() += fill.len() as u64;
        if last {
            self.active.remove(&flow);
            self.stats.completed += 1;
            // Immediately fetch the next object (closed-loop workload).
            self.start_flow(ctl);
        }
    }

    fn on_tick(&mut self, ctl: &mut NodeCtl<'_>) {
        if ctl.now < self.next_check {
            return;
        }
        self.next_check = ctl.now + Duration::from_millis(50);
        // Abandon stalled flows; each retry is a fresh flow (the client's
        // "hiccup" during fail-over).
        let now = ctl.now;
        let stalled: Vec<FlowKey> = self
            .active
            .iter()
            .filter(|(_, st)| now.since(st.last_activity) >= self.request_timeout)
            .map(|(&f, _)| f)
            .collect();
        for f in stalled {
            self.active.remove(&f);
            self.stats.retries += 1;
        }
        // Keep the pipeline full.
        while (self.active.len() as u32) < self.flows_target {
            if !self.start_flow(ctl) {
                break; // ARP not ready yet
            }
        }
    }

    fn next_wakeup(&self) -> Option<Time> {
        Some(self.next_check)
    }
}

/// A web server host: answers proxied fetches with chunk bursts.
pub struct ServerApp {
    me: NodeId,
    chunk_payload: usize,
    fill: Bytes,
    /// Objects served.
    pub served: u64,
}

impl ServerApp {
    /// Creates a server host app.
    pub fn new(me: NodeId, chunk_payload: usize) -> Self {
        ServerApp {
            me,
            chunk_payload,
            fill: Bytes::from(vec![0u8; chunk_payload]),
            served: 0,
        }
    }
}

impl NodeApp for ServerApp {
    fn on_data(&mut self, ctl: &mut NodeCtl<'_>, dgram: Datagram) {
        let Ok(AppPacket::FetchReq { flow, object_bytes }) =
            raincore_types::wire::WireDecode::decode_from_bytes(&dgram.payload)
        else {
            return;
        };
        self.served += 1;
        let chunk = self.chunk_payload.max(1);
        let n = (object_bytes as usize).div_ceil(chunk).max(1);
        let mut remaining = object_bytes as usize;
        for seq in 0..n {
            let take = remaining.min(chunk);
            remaining -= take;
            let pkt = AppPacket::Chunk {
                flow,
                seq: seq as u32,
                last: seq == n - 1,
                fill: self.fill.slice(0..take),
            };
            ctl.send(Datagram::data(
                Addr::primary(self.me),
                dgram.src,
                raincore_types::wire::WireEncode::encode_to_bytes(&pkt),
            ));
        }
    }
}
