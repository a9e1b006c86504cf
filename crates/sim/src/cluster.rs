//! The cluster harness: nodes + network + virtual clock.

use crate::app::{NodeApp, NodeCtl};
use crate::audit::{AuditView, Delivered};
use bytes::Bytes;
use raincore_net::{Addr, Datagram, NetStats, PacketClass, SimNet, SimNetConfig};
use raincore_session::{Delivery, SessionEvent, SessionMetrics, SessionNode, StartMode};
use raincore_transport::{PeerTable, TransportStats};
use raincore_types::{
    DeliveryMode, Duration, Error, GroupId, Incarnation, NodeId, OriginSeq, Result, Ring,
    SessionConfig, Time, TransportConfig,
};
use std::any::Any;
use std::collections::BTreeMap;

/// Static configuration of a simulated cluster.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Session-layer configuration applied to every member.
    pub session: SessionConfig,
    /// Transport configuration applied to every member.
    pub transport: TransportConfig,
    /// Network model.
    pub net: SimNetConfig,
    /// NICs (physical addresses) per node.
    pub nics: u8,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            session: SessionConfig::default(),
            transport: TransportConfig::default(),
            net: SimNetConfig::default(),
            nics: 1,
        }
    }
}

struct Slot {
    session: Option<SessionNode>,
    app: Option<Box<dyn NodeApp>>,
    alive: bool,
    /// Off the CPU until then ([`Cluster::stall`]), and what arrived
    /// meanwhile, in order.
    stalled: Option<(Time, Vec<Datagram>)>,
    incarnation: Incarnation,
    addrs: Vec<Addr>,
    /// The session config this member was built with (used by restart).
    session_cfg: Option<SessionConfig>,
    events: Vec<SessionEvent>,
    /// Every delivery of every incarnation, in delivery order: the one
    /// log the tests read and the auditors borrow.
    deliveries: Vec<Delivery>,
}

impl Slot {
    fn new(session: Option<SessionNode>, addrs: Vec<Addr>, cfg: Option<SessionConfig>) -> Self {
        Slot {
            session,
            app: None,
            alive: true,
            stalled: None,
            incarnation: Incarnation::FIRST,
            addrs,
            session_cfg: cfg,
            events: Vec::new(),
            deliveries: Vec::new(),
        }
    }

    /// Lets the node's app, if it has one, react through a [`NodeCtl`],
    /// then puts what it sent on the wire. Returns true if it sent any.
    fn with_app(
        &mut self,
        net: &mut SimNet,
        now: Time,
        id: NodeId,
        react: impl FnOnce(&mut dyn NodeApp, &mut NodeCtl<'_>),
    ) -> bool {
        let Some(app) = &mut self.app else {
            return false;
        };
        let mut sends = Vec::new();
        let mut ctl = NodeCtl {
            now,
            id,
            session: self.session.as_mut(),
            sends: &mut sends,
        };
        react(app.as_mut(), &mut ctl);
        let moved = !sends.is_empty();
        for s in sends {
            net.send(now, s);
        }
        moved
    }
}

/// Builder for heterogeneous clusters (mixed start modes, plain hosts,
/// per-node apps).
pub struct ClusterBuilder {
    cfg: ClusterConfig,
    members: Vec<(NodeId, StartMode, Option<SessionConfig>)>,
    plain_hosts: Vec<NodeId>,
    apps: Vec<(NodeId, Box<dyn NodeApp>)>,
}

impl ClusterBuilder {
    /// Starts a builder with the given base configuration.
    pub fn new(cfg: ClusterConfig) -> Self {
        ClusterBuilder {
            cfg,
            members: Vec::new(),
            plain_hosts: Vec::new(),
            apps: Vec::new(),
        }
    }

    /// Adds a session-running member with the given start mode.
    pub fn member(mut self, id: NodeId, start: StartMode) -> Self {
        self.members.push((id, start, None));
        self
    }

    /// Adds a member with its own session configuration (overriding the
    /// cluster-wide one) — e.g. a restricted eligible membership so that
    /// hierarchical leaf groups never merge with each other.
    pub fn member_with(mut self, id: NodeId, start: StartMode, session: SessionConfig) -> Self {
        self.members.push((id, start, Some(session)));
        self
    }

    /// Adds a plain host (no session stack) — e.g. a traffic client.
    pub fn plain_host(mut self, id: NodeId) -> Self {
        self.plain_hosts.push(id);
        self
    }

    /// Attaches an application to a node (member or plain host).
    pub fn app(mut self, id: NodeId, app: Box<dyn NodeApp>) -> Self {
        self.apps.push((id, app));
        self
    }

    /// Builds the cluster at t = 0.
    ///
    /// If the session config's eligible membership is empty it defaults to
    /// the full member list, which is what §2.4 expects for a configured
    /// cluster.
    pub fn build(mut self) -> Result<Cluster> {
        if self.cfg.session.eligible.is_empty() {
            self.cfg.session.eligible = self.members.iter().map(|(id, _, _)| *id).collect();
        }
        let mut cluster = Cluster {
            now: Time::ZERO,
            net: SimNet::new(self.cfg.net.clone()),
            slots: BTreeMap::new(),
            members: self.members.iter().map(|(id, _, _)| *id).collect(),
            cfg: self.cfg,
            peer_table: PeerTable::new(),
            steps: 0,
            registry: raincore_obs::Registry::new(),
            flight: raincore_obs::FlightRecorder::default(),
            expected_payloads: BTreeMap::new(),
            wire_tap: None,
        };
        cluster.members.sort_unstable();
        // The peer table covers every session member with all its NICs.
        let mut table = PeerTable::new();
        for (id, _, _) in &self.members {
            table.set(
                *id,
                (0..cluster.cfg.nics.max(1))
                    .map(|k| Addr::new(*id, k))
                    .collect(),
            );
        }
        cluster.peer_table = table;
        for (id, start, session) in self.members {
            cluster.add_member(id, start, session)?;
        }
        for id in self.plain_hosts {
            let slot = Slot::new(None, vec![Addr::primary(id)], None);
            cluster.slots.insert(id, slot);
        }
        for (id, app) in self.apps {
            cluster
                .slots
                .get_mut(&id)
                .ok_or(Error::UnknownNode(id))?
                .app = Some(app);
        }
        Ok(cluster)
    }
}

type WireTap = Box<dyn FnMut(&Datagram)>;

/// A simulated Raincore cluster. See the crate docs.
pub struct Cluster {
    now: Time,
    net: SimNet,
    slots: BTreeMap<NodeId, Slot>,
    /// Ids of the slots that run a session, ascending. Fixed at build.
    members: Vec<NodeId>,
    cfg: ClusterConfig,
    peer_table: PeerTable,
    steps: u64,
    registry: raincore_obs::Registry,
    /// One flight recorder shared by every node (including restarts), so
    /// a violation dump shows the whole cluster's last moments in one
    /// globally ordered ring.
    flight: raincore_obs::FlightRecorder,
    /// Payload length every [`Cluster::multicast`] promised per bulk id,
    /// for the delivery-completeness auditor. `None` marks an id whose
    /// expected length became ambiguous: after a restart an origin's
    /// `(origin, seq)` space restarts from zero, so a reused id that was
    /// multicast with a *different* length can no longer be checked.
    expected_payloads: BTreeMap<(NodeId, OriginSeq), Option<usize>>,
    /// See [`Cluster::set_wire_tap`].
    wire_tap: Option<WireTap>,
}

impl Cluster {
    /// The standard setup: `n` members with ids `0..n`, all starting with
    /// the full founding ring (node 0 founds the token).
    pub fn founding(n: u32, cfg: ClusterConfig) -> Result<Cluster> {
        let ring = Ring::from_iter((0..n).map(NodeId));
        let mut b = ClusterBuilder::new(cfg);
        for i in 0..n {
            b = b.member(NodeId(i), StartMode::Founding(ring.clone()));
        }
        b.build()
    }

    /// `n` members all starting [`StartMode::Isolated`] — they form
    /// singleton groups and must coalesce via discovery/merge.
    pub fn isolated(n: u32, cfg: ClusterConfig) -> Result<Cluster> {
        let mut b = ClusterBuilder::new(cfg);
        for i in 0..n {
            b = b.member(NodeId(i), StartMode::Isolated);
        }
        b.build()
    }

    fn add_member(
        &mut self,
        id: NodeId,
        start: StartMode,
        session: Option<SessionConfig>,
    ) -> Result<()> {
        let addrs: Vec<Addr> = (0..self.cfg.nics.max(1))
            .map(|k| Addr::new(id, k))
            .collect();
        let session_cfg = session.unwrap_or_else(|| self.cfg.session.clone());
        let inc = Incarnation::FIRST;
        let node = self.spawn_node(id, inc, session_cfg.clone(), addrs.clone(), start)?;
        let slot = Slot::new(Some(node), addrs, Some(session_cfg));
        self.slots.insert(id, slot);
        Ok(())
    }

    /// One life of a member's session stack, writing into the shared
    /// flight recorder.
    fn spawn_node(
        &self,
        id: NodeId,
        inc: Incarnation,
        session_cfg: SessionConfig,
        addrs: Vec<Addr>,
        start: StartMode,
    ) -> Result<SessionNode> {
        let (transport, peers) = (self.cfg.transport.clone(), self.peer_table.clone());
        let mut node = SessionNode::new(
            id,
            inc,
            session_cfg,
            transport,
            addrs,
            peers,
            start,
            self.now,
        )?;
        node.obs_mut().set_recorder(self.flight.clone());
        Ok(node)
    }

    // ------------------------------------------------------------------
    // Time control
    // ------------------------------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total quanta processed (diagnostics).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Runs the cluster until virtual time `t_end`.
    pub fn run_until(&mut self, t_end: Time) {
        self.run_until_with(t_end, |_| {});
    }

    /// Runs for `d` more virtual time.
    pub fn run_for(&mut self, d: Duration) {
        let t = self.now + d;
        self.run_until(t);
    }

    /// Runs until `t_end`, calling `observer` after every quantum — used
    /// by tests to sample invariants (e.g. "at most one EATING node per
    /// group") at every reachable state.
    pub fn run_until_with(&mut self, t_end: Time, mut observer: impl FnMut(&Cluster)) {
        loop {
            self.steps += 1;
            let moved = self.flush_outgoing();
            let arrivals = self.net.pop_arrivals(self.now);
            let had_arrivals = !arrivals.is_empty();
            for d in arrivals {
                self.route(d);
            }
            if moved || had_arrivals {
                observer(self);
                continue;
            }
            // Quiescent at `now`: advance the clock.
            let mut next: Option<Time> = self.net.next_arrival();
            for slot in self.slots.values() {
                if !slot.alive {
                    continue;
                }
                if let Some((until, _)) = &slot.stalled {
                    next = min_opt(next, Some(*until));
                    continue;
                }
                let w = match (&slot.session, &slot.app) {
                    (Some(s), Some(a)) => min_opt(s.next_wakeup(), a.next_wakeup()),
                    (Some(s), None) => s.next_wakeup(),
                    (None, Some(a)) => a.next_wakeup(),
                    (None, None) => None,
                };
                next = min_opt(next, w);
            }
            match next {
                Some(t) if t <= t_end => {
                    self.now = t.max(self.now);
                    self.tick_all();
                    observer(self);
                }
                _ => {
                    self.now = t_end;
                    return;
                }
            }
        }
    }

    fn flush_outgoing(&mut self) -> bool {
        let mut moved = false;
        let now = self.now;
        let ids: Vec<NodeId> = self.slots.keys().copied().collect();
        for id in ids {
            let slot = self.slots.get_mut(&id).expect("slot");
            if !slot.alive {
                // Discard anything a dead node queued.
                if let Some(s) = &mut slot.session {
                    while s.poll_outgoing().is_some() {}
                }
                continue;
            }
            if let Some(s) = &mut slot.session {
                while let Some(d) = s.poll_outgoing() {
                    self.net.send(now, d);
                    moved = true;
                }
            }
            moved |= self.collect_node_outputs(id);
        }
        moved
    }

    fn route(&mut self, d: Datagram) {
        if let Some(tap) = &mut self.wire_tap {
            tap(&d);
        }
        let id = d.dst.node;
        let now = self.now;
        let Some(slot) = self.slots.get_mut(&id) else {
            return;
        };
        if !slot.alive {
            return;
        }
        if let Some((_, held)) = &mut slot.stalled {
            held.push(d);
            return;
        }
        match (d.class, &mut slot.session) {
            (PacketClass::Control, Some(s)) => s.on_datagram(now, d),
            // A plain host speaking a control protocol directly (e.g. an
            // external open-group client).
            (PacketClass::Control, None) => {
                slot.with_app(&mut self.net, now, id, |app, ctl| app.on_control(ctl, d));
            }
            (PacketClass::Data, _) => {
                slot.with_app(&mut self.net, now, id, |app, ctl| app.on_data(ctl, d));
            }
        }
        self.collect_node_outputs(id);
    }

    fn tick_all(&mut self) {
        let now = self.now;
        let ids: Vec<NodeId> = self.slots.keys().copied().collect();
        for id in ids {
            let slot = self.slots.get_mut(&id).expect("slot");
            if !slot.alive {
                continue;
            }
            if let Some((_, held)) = slot.stalled.take_if(|(until, _)| *until <= now) {
                // Back on the CPU: the socket buffer first, then the timers.
                for d in held {
                    self.route(d);
                }
            }
            let slot = self.slots.get_mut(&id).expect("slot");
            if slot.stalled.is_some() {
                continue;
            }
            if let Some(s) = &mut slot.session {
                s.on_tick(now);
            }
            slot.with_app(&mut self.net, now, id, |app, ctl| app.on_tick(ctl));
            self.collect_node_outputs(id);
        }
    }

    /// Drains a node's session events into its log and lets the app react
    /// to them. Returns true if any wire traffic was produced.
    fn collect_node_outputs(&mut self, id: NodeId) -> bool {
        let now = self.now;
        let mut moved = false;
        loop {
            let slot = self.slots.get_mut(&id).expect("slot");
            let Some(s) = &mut slot.session else { break };
            let Some(ev) = s.poll_event() else { break };
            if let SessionEvent::Delivery(d) = &ev {
                slot.deliveries.push(d.clone());
            }
            moved |= slot.with_app(&mut self.net, now, id, |app, ctl| {
                app.on_session_event(ctl, &ev)
            });
            slot.events.push(ev);
        }
        // The app may also have produced outgoing session traffic.
        let slot = self.slots.get_mut(&id).expect("slot");
        if let Some(s) = &mut slot.session {
            while let Some(d) = s.poll_outgoing() {
                self.net.send(now, d);
                moved = true;
            }
        }
        moved
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Crashes a node: it stops processing and the network drops its
    /// packets.
    pub fn crash(&mut self, id: NodeId) {
        if let Some(slot) = self.slots.get_mut(&id) {
            slot.alive = false;
            slot.stalled = None;
        }
        self.net.set_node(id, false);
    }

    /// Takes a live node off the CPU for `d`: it handles no datagram and
    /// no timer until then, what arrives for it waits in order (its
    /// socket buffer), and it picks up where it was — a member whose
    /// thread the host does not run, as distinct from a crashed one.
    pub fn stall(&mut self, id: NodeId, d: Duration) {
        if let Some(slot) = self.slots.get_mut(&id).filter(|s| s.alive) {
            slot.stalled = Some((self.now + d, Vec::new()));
        }
    }

    /// Restarts a crashed node with a fresh incarnation in the given
    /// start mode (typically [`StartMode::Joining`]).
    pub fn restart(&mut self, id: NodeId, start: StartMode) -> Result<()> {
        self.net.set_node(id, true);
        let (inc, addrs, session_cfg) = {
            let slot = self.slots.get_mut(&id).ok_or(Error::UnknownNode(id))?;
            slot.incarnation = slot.incarnation.next();
            (
                slot.incarnation,
                slot.addrs.clone(),
                slot.session_cfg
                    .clone()
                    .unwrap_or_else(|| self.cfg.session.clone()),
            )
        };
        let node = self.spawn_node(id, inc, session_cfg, addrs, start)?;
        let slot = self.slots.get_mut(&id).expect("slot");
        slot.session = Some(node);
        slot.alive = true;
        Ok(())
    }

    /// Replaces (or installs) the application on a node — e.g. after
    /// [`Cluster::restart`], where a real process restart would have
    /// rebuilt its application state from scratch.
    pub fn set_app(&mut self, id: NodeId, app: Box<dyn NodeApp>) -> Result<()> {
        self.slots.get_mut(&id).ok_or(Error::UnknownNode(id))?.app = Some(app);
        Ok(())
    }

    /// Unplugs (or re-plugs) one NIC's cable.
    pub fn set_nic(&mut self, addr: Addr, up: bool) {
        self.net.set_nic(addr, up);
    }

    /// Brings a bidirectional link up or down.
    pub fn set_link(&mut self, a: NodeId, b: NodeId, up: bool) {
        self.net.set_link(a, b, up);
    }

    /// Partitions the cluster into the given groups.
    pub fn partition(&mut self, groups: &[&[NodeId]]) {
        self.net.partition(groups);
    }

    /// Heals all link-level failures and partitions.
    pub fn heal(&mut self) {
        self.net.heal_all_links();
    }

    // ------------------------------------------------------------------
    // Application API
    // ------------------------------------------------------------------

    /// Multicasts from `id` (see [`SessionNode::multicast`]).
    pub fn multicast(
        &mut self,
        id: NodeId,
        mode: DeliveryMode,
        payload: Bytes,
    ) -> Result<OriginSeq> {
        let len = payload.len();
        let seq = self.session_mut(id)?.multicast(mode, payload)?;
        self.expected_payloads
            .entry((id, seq))
            .and_modify(|e| {
                // (origin, seq) reused after a restart with a different
                // length: the id's expected length is now ambiguous.
                if *e != Some(len) {
                    *e = None;
                }
            })
            .or_insert(Some(len));
        Ok(seq)
    }

    /// Mutable access to a member's session stack.
    pub fn session_mut(&mut self, id: NodeId) -> Result<&mut SessionNode> {
        self.slots
            .get_mut(&id)
            .and_then(|s| s.session.as_mut())
            .ok_or(Error::UnknownNode(id))
    }

    /// Read access to a member's session stack.
    pub fn session(&self, id: NodeId) -> Option<&SessionNode> {
        self.slots.get(&id).and_then(|s| s.session.as_ref())
    }

    /// The application on a node, as its concrete type — how a test reads
    /// a hosted [`SessionApp`](raincore_session::SessionApp)'s tables.
    pub fn app<T: NodeApp>(&self, id: NodeId) -> Option<&T> {
        let app: &dyn Any = self.slots.get(&id)?.app.as_deref()?;
        app.downcast_ref()
    }

    /// Lends the application on a member and the member's session stack
    /// to `call` — what a method of the application that multicasts needs.
    pub fn with_app<T: NodeApp, R>(
        &mut self,
        id: NodeId,
        call: impl FnOnce(&mut T, &mut SessionNode) -> R,
    ) -> Option<R> {
        let slot = self.slots.get_mut(&id)?;
        let app: &mut dyn Any = slot.app.as_deref_mut()?;
        Some(call(app.downcast_mut()?, slot.session.as_mut()?))
    }

    /// True if the node is alive (not crashed / not shut down).
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.slots
            .get(&id)
            .is_some_and(|s| s.alive && s.session.as_ref().is_none_or(|n| !n.is_down()))
    }

    /// Takes (drains) the accumulated session events of a node.
    pub fn take_events(&mut self, id: NodeId) -> Vec<SessionEvent> {
        self.slots
            .get_mut(&id)
            .map(|s| std::mem::take(&mut s.events))
            .unwrap_or_default()
    }

    /// All multicast deliveries observed at a node, in delivery order.
    pub fn deliveries(&self, id: NodeId) -> &[Delivery] {
        self.slots
            .get(&id)
            .map(|s| s.deliveries.as_slice())
            .unwrap_or(&[])
    }

    /// The payload length [`Cluster::multicast`] promised for a bulk id,
    /// or `None` if the id was never multicast through the cluster API or
    /// became ambiguous through post-restart reuse.
    pub fn expected_payload_len(&self, origin: NodeId, seq: OriginSeq) -> Option<usize> {
        self.expected_payloads
            .get(&(origin, seq))
            .copied()
            .flatten()
    }

    /// Session metrics of a node.
    pub fn metrics(&self, id: NodeId) -> SessionMetrics {
        self.session(id).map(|s| s.metrics()).unwrap_or_default()
    }

    /// Transport metrics of a node.
    pub fn transport_stats(&self, id: NodeId) -> TransportStats {
        self.session(id)
            .map(|s| s.transport_stats())
            .unwrap_or_default()
    }

    /// Network accounting.
    pub fn net_stats(&self) -> &NetStats {
        self.net.stats()
    }

    /// Resets network accounting (e.g. after warm-up).
    pub fn reset_net_stats(&mut self) {
        self.net.reset_stats();
    }

    /// Read access to the network model (auditing, reality checks).
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// Direct access to the network model (advanced fault scripting).
    pub fn net_mut(&mut self) -> &mut SimNet {
        &mut self.net
    }

    /// Installs a wire tap: `tap` sees every datagram the network
    /// delivers, in delivery order, before it is routed to its
    /// destination. Lets a test fingerprint the cluster's whole wire
    /// behaviour, not only what the oracles look at.
    pub fn set_wire_tap(&mut self, tap: impl FnMut(&Datagram) + 'static) {
        self.wire_tap = Some(Box::new(tap));
    }

    /// True while some pair of live members cannot exchange packets at
    /// all: a standing link block or partition edge, or complementary
    /// NIC downs that leave the pair no usable address pair (redundant
    /// links pair a peer's k-th address with the local k-th NIC, §2.1).
    /// The fault model's transitive-connectivity assumption does not
    /// hold while this is true.
    pub fn connectivity_severed(&self) -> bool {
        let nic_down = |a| self.net.nic_is_down(a);
        self.net.has_blocked_links()
            || crate::engine::pair_stranded(&self.live_members(), self.cfg.nics, nic_down)
    }

    /// The cluster-wide metric registry (see the `obs` module). Refreshed
    /// by [`Cluster::collect_metrics`]; rendered by [`Cluster::prometheus`]
    /// and [`Cluster::json_snapshot`].
    pub fn registry(&self) -> &raincore_obs::Registry {
        &self.registry
    }

    /// The cluster-wide flight recorder every node writes into.
    pub fn flight(&self) -> &raincore_obs::FlightRecorder {
        &self.flight
    }

    // ------------------------------------------------------------------
    // Cluster-level observations
    // ------------------------------------------------------------------

    /// Ids of all member nodes (alive or not).
    pub fn member_ids(&self) -> Vec<NodeId> {
        self.members.clone()
    }

    /// Ids of members that are alive and not shut down.
    pub fn live_members(&self) -> Vec<NodeId> {
        self.member_ids()
            .into_iter()
            .filter(|&id| self.is_alive(id))
            .collect()
    }

    /// Members currently in the EATING state.
    pub fn eating_nodes(&self) -> Vec<NodeId> {
        self.live_members()
            .into_iter()
            .filter(|&id| self.session(id).is_some_and(|s| s.is_eating()))
            .collect()
    }

    /// Live members grouped by their current group id.
    pub fn groups(&self) -> BTreeMap<GroupId, Vec<NodeId>> {
        let mut out: BTreeMap<GroupId, Vec<NodeId>> = BTreeMap::new();
        for id in self.live_members() {
            let g = self.session(id).expect("member").group_id();
            out.entry(g).or_default().push(id);
        }
        out
    }

    /// True when every live member agrees on one group whose membership
    /// is exactly the live members ([`AuditView::membership_agreed`]).
    pub fn membership_converged(&self) -> bool {
        self.membership_agreed()
    }
}

impl AuditView for Cluster {
    fn now(&self) -> Time {
        Cluster::now(self)
    }

    fn member_ids(&self) -> &[NodeId] {
        &self.members
    }

    fn is_live(&self, id: NodeId) -> bool {
        self.is_alive(id)
    }

    fn is_eating(&self, id: NodeId) -> bool {
        self.session(id).is_some_and(|s| s.is_eating())
    }

    fn group_of(&self, id: NodeId) -> Option<GroupId> {
        self.session(id).map(|s| s.group_id())
    }

    fn ring_of(&self, id: NodeId) -> Option<&Ring> {
        self.session(id).map(|s| s.ring())
    }

    fn last_copy_seq(&self, id: NodeId) -> u64 {
        self.session(id).map_or(0, |s| s.last_copy_seq())
    }

    fn regenerations(&self, id: NodeId) -> u64 {
        self.metrics(id).regenerations
    }

    fn delivery_log(&self, id: NodeId, from: usize) -> impl Iterator<Item = Delivered> + '_ {
        let handed_up = |d: &Delivery| (d.origin, d.seq, Some(d.payload.len()));
        let log = self.deliveries(id).get(from..).unwrap_or_default();
        log.iter().map(handed_up)
    }

    fn expected_payload_len(&self, origin: NodeId, seq: OriginSeq) -> Option<usize> {
        Cluster::expected_payload_len(self, origin, seq)
    }
}

fn min_opt(a: Option<Time>, b: Option<Time>) -> Option<Time> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> ClusterConfig {
        let mut c = ClusterConfig::default();
        c.session.token_hold = Duration::from_millis(2);
        c.session.hungry_timeout = Duration::from_millis(100);
        c.session.starving_retry = Duration::from_millis(40);
        c.session.beacon_period = Duration::from_millis(50);
        c.transport.retry_timeout = Duration::from_millis(10);
        c.transport.max_retries = 3;
        c
    }

    fn secs(s: u64) -> Time {
        Time::ZERO + Duration::from_secs(s)
    }

    #[test]
    fn token_circulates_and_membership_converges() {
        let mut c = Cluster::founding(4, fast_cfg()).unwrap();
        c.run_until(secs(1));
        assert!(c.membership_converged());
        for id in c.member_ids() {
            let m = c.metrics(id);
            assert!(m.tokens_received > 50, "{id}: {m:?}");
            assert_eq!(m.regenerations, 0, "no token loss in a quiet run");
            assert_eq!(m.stale_tokens_dropped, 0);
        }
    }

    #[test]
    fn at_most_one_eating_node_throughout_quiet_run() {
        let mut c = Cluster::founding(5, fast_cfg()).unwrap();
        let mut max_eating = 0;
        c.run_until_with(secs(1), |c| {
            max_eating = max_eating.max(c.eating_nodes().len());
            assert_eq!(c.eating_violation_group(), None);
        });
        assert_eq!(
            max_eating, 1,
            "the token was held by exactly one node at a time"
        );
    }

    #[test]
    fn agreed_multicast_is_atomic_and_totally_ordered() {
        let mut c = Cluster::founding(4, fast_cfg()).unwrap();
        c.run_until(secs(1));
        for i in 0..10u8 {
            let from = NodeId(u32::from(i) % 4);
            c.multicast(from, DeliveryMode::Agreed, Bytes::from(vec![i]))
                .unwrap();
        }
        c.run_until(secs(2));
        let reference: Vec<(NodeId, OriginSeq)> = c
            .deliveries(NodeId(0))
            .iter()
            .map(|d| (d.origin, d.seq))
            .collect();
        assert_eq!(reference.len(), 10, "all messages delivered at node 0");
        for id in c.member_ids() {
            let got: Vec<(NodeId, OriginSeq)> =
                c.deliveries(id).iter().map(|d| (d.origin, d.seq)).collect();
            assert_eq!(got, reference, "node {id} disagrees on the total order");
        }
        // Atomicity confirmations reached every originator.
        for id in c.member_ids() {
            let evs = c.take_events(id);
            let n_own = reference.iter().filter(|(o, _)| *o == id).count();
            let n_atomic = evs
                .iter()
                .filter(|e| matches!(e, SessionEvent::MulticastAtomic { .. }))
                .count();
            assert_eq!(n_atomic, n_own, "{id}");
        }
    }

    #[test]
    fn safe_multicast_delivered_everywhere_in_same_order() {
        let mut c = Cluster::founding(3, fast_cfg()).unwrap();
        c.run_until(secs(1));
        c.multicast(NodeId(1), DeliveryMode::Safe, Bytes::from_static(b"s1"))
            .unwrap();
        c.multicast(NodeId(2), DeliveryMode::Agreed, Bytes::from_static(b"a1"))
            .unwrap();
        c.multicast(NodeId(1), DeliveryMode::Safe, Bytes::from_static(b"s2"))
            .unwrap();
        c.run_until(secs(2));
        let reference: Vec<Bytes> = c
            .deliveries(NodeId(0))
            .iter()
            .map(|d| d.payload.clone())
            .collect();
        assert_eq!(reference.len(), 3);
        for id in c.member_ids() {
            let got: Vec<Bytes> = c.deliveries(id).iter().map(|d| d.payload.clone()).collect();
            assert_eq!(got, reference, "node {id}");
        }
    }

    #[test]
    fn total_order_holds_across_delivery_modes() {
        // A not-yet-safe message must block later agreed messages, so
        // every node (including the originators) delivers the identical
        // interleaving of safe and agreed messages.
        let mut c = Cluster::founding(4, fast_cfg()).unwrap();
        c.run_until(secs(1));
        for i in 0..12u8 {
            let from = NodeId(u32::from(i) % 4);
            let mode = if i % 3 == 0 {
                DeliveryMode::Safe
            } else {
                DeliveryMode::Agreed
            };
            c.multicast(from, mode, Bytes::from(vec![i])).unwrap();
        }
        c.run_until(secs(3));
        let reference: Vec<u8> = c
            .deliveries(NodeId(0))
            .iter()
            .map(|d| d.payload[0])
            .collect();
        assert_eq!(reference.len(), 12);
        for id in c.member_ids() {
            let got: Vec<u8> = c.deliveries(id).iter().map(|d| d.payload[0]).collect();
            assert_eq!(got, reference, "node {id} broke cross-mode total order");
        }
    }

    #[test]
    fn safe_costs_one_extra_round_vs_agreed() {
        // Measure delivery lag at a non-originator for both modes.
        let mut c = Cluster::founding(4, fast_cfg()).unwrap();
        c.run_until(secs(1));
        c.multicast(NodeId(0), DeliveryMode::Agreed, Bytes::from_static(b"fast"))
            .unwrap();
        c.multicast(NodeId(0), DeliveryMode::Safe, Bytes::from_static(b"slow"))
            .unwrap();
        let mut agreed_at = None;
        let mut safe_at = None;
        c.run_until_with(secs(3), |c| {
            for d in c.deliveries(NodeId(2)) {
                if d.payload == Bytes::from_static(b"fast") && agreed_at.is_none() {
                    agreed_at = Some(c.now());
                }
                if d.payload == Bytes::from_static(b"slow") && safe_at.is_none() {
                    safe_at = Some(c.now());
                }
            }
        });
        let (a, s) = (
            agreed_at.expect("agreed delivered"),
            safe_at.expect("safe delivered"),
        );
        assert!(
            s > a,
            "safe ({s:?}) must lag agreed ({a:?}) by about one round"
        );
    }

    #[test]
    fn crash_of_non_holder_heals_membership_quickly() {
        let mut c = Cluster::founding(4, fast_cfg()).unwrap();
        c.run_until(secs(1));
        // Pick a node that is NOT currently eating.
        let victim = c
            .member_ids()
            .into_iter()
            .find(|&id| !c.session(id).unwrap().is_eating())
            .unwrap();
        c.crash(victim);
        let t_crash = c.now();
        c.run_until(t_crash + Duration::from_secs(1));
        assert!(c.membership_converged(), "membership healed");
        assert_eq!(c.live_members().len(), 3);
        for id in c.live_members() {
            assert!(!c.session(id).unwrap().ring().contains(victim));
        }
    }

    #[test]
    fn crash_of_token_holder_triggers_911_regeneration() {
        let mut c = Cluster::founding(4, fast_cfg()).unwrap();
        c.run_until(secs(1));
        let holder = c.eating_nodes().pop().expect("someone is eating");
        c.crash(holder);
        let t_crash = c.now();
        c.run_until(t_crash + Duration::from_secs(2));
        assert!(
            c.membership_converged(),
            "membership healed after holder crash"
        );
        assert_eq!(c.live_members().len(), 3);
        let regens: u64 = c
            .live_members()
            .iter()
            .map(|&id| c.metrics(id).regenerations)
            .sum();
        assert_eq!(regens, 1, "exactly one node regenerated the token");
        // The ring keeps circulating afterwards.
        let before = c.metrics(c.live_members()[0]).tokens_received;
        c.run_for(Duration::from_millis(500));
        assert!(c.metrics(c.live_members()[0]).tokens_received > before);
    }

    #[test]
    fn multicast_survives_holder_crash_mid_flight() {
        // A message attached by node 1 must reach everyone even though the
        // token holder dies while carrying it.
        let mut c = Cluster::founding(4, fast_cfg()).unwrap();
        c.run_until(secs(1));
        c.multicast(
            NodeId(1),
            DeliveryMode::Agreed,
            Bytes::from_static(b"survivor"),
        )
        .unwrap();
        // Let it get attached and travel a hop or two, then kill the holder.
        c.run_for(Duration::from_millis(5));
        let holder = c.eating_nodes().pop();
        if let Some(h) = holder {
            if h != NodeId(1) {
                c.crash(h);
            } else {
                c.crash(NodeId(2));
            }
        }
        let t = c.now();
        c.run_until(t + Duration::from_secs(2));
        for id in c.live_members() {
            assert!(
                c.deliveries(id)
                    .iter()
                    .any(|d| d.payload == Bytes::from_static(b"survivor")),
                "node {id} missed the message"
            );
        }
    }

    #[test]
    fn crashed_node_rejoins_with_new_incarnation() {
        let mut c = Cluster::founding(3, fast_cfg()).unwrap();
        c.run_until(secs(1));
        c.crash(NodeId(2));
        c.run_for(Duration::from_secs(1));
        assert_eq!(c.live_members().len(), 2);
        c.restart(NodeId(2), StartMode::Joining).unwrap();
        c.run_for(Duration::from_secs(2));
        assert!(c.membership_converged(), "rejoined");
        assert_eq!(c.live_members().len(), 3);
    }

    #[test]
    fn link_failure_false_alarm_heals_via_911_join() {
        // §2.3's walk-through: ring ABCD, the A→B link fails. B is removed,
        // then B's 911 is treated as a join request and the broken link is
        // naturally bypassed in the new ring.
        let mut c = Cluster::founding(4, fast_cfg()).unwrap();
        c.run_until(secs(1));
        c.set_link(NodeId(0), NodeId(1), false);
        c.run_for(Duration::from_secs(3));
        assert!(c.membership_converged(), "B rejoined despite the dead link");
        assert_eq!(c.live_members().len(), 4);
        // The ring no longer requires the 0↔1 hop.
        let ring = c.session(NodeId(0)).unwrap().ring().clone();
        assert!(
            ring.next_after(NodeId(0)) != Some(NodeId(1))
                || ring.next_after(NodeId(1)) != Some(NodeId(0))
        );
    }

    #[test]
    fn partition_forms_two_working_groups_then_merges() {
        let mut c = Cluster::founding(4, fast_cfg()).unwrap();
        c.run_until(secs(1));
        let a = [NodeId(0), NodeId(1)];
        let b = [NodeId(2), NodeId(3)];
        c.partition(&[&a, &b]);
        c.run_for(Duration::from_secs(3));
        let groups = c.groups();
        assert_eq!(groups.len(), 2, "two functioning sub-groups: {groups:?}");
        // Both sides still multicast internally.
        c.multicast(NodeId(0), DeliveryMode::Agreed, Bytes::from_static(b"west"))
            .unwrap();
        c.multicast(NodeId(2), DeliveryMode::Agreed, Bytes::from_static(b"east"))
            .unwrap();
        c.run_for(Duration::from_secs(1));
        assert!(c
            .deliveries(NodeId(1))
            .iter()
            .any(|d| d.payload == Bytes::from_static(b"west")));
        assert!(c
            .deliveries(NodeId(3))
            .iter()
            .any(|d| d.payload == Bytes::from_static(b"east")));
        // Heal: discovery beacons find the other side; groups merge.
        c.heal();
        c.run_for(Duration::from_secs(5));
        assert_eq!(c.groups().len(), 1, "merged back into one group");
        assert!(c.membership_converged());
    }

    #[test]
    fn three_way_partition_merges_without_deadlock() {
        let mut c = Cluster::founding(6, fast_cfg()).unwrap();
        c.run_until(secs(1));
        c.partition(&[
            &[NodeId(0), NodeId(1)],
            &[NodeId(2), NodeId(3)],
            &[NodeId(4), NodeId(5)],
        ]);
        c.run_for(Duration::from_secs(3));
        assert_eq!(c.groups().len(), 3);
        c.heal();
        c.run_for(Duration::from_secs(10));
        assert_eq!(c.groups().len(), 1, "all three sub-groups merged");
        assert!(c.membership_converged());
    }

    #[test]
    fn isolated_bootstrap_coalesces_into_one_group() {
        let mut c = Cluster::isolated(4, fast_cfg()).unwrap();
        c.run_for(Duration::from_secs(10));
        assert_eq!(c.groups().len(), 1, "{:?}", c.groups());
        assert!(c.membership_converged());
        assert_eq!(
            c.session(NodeId(3)).unwrap().group_id(),
            GroupId(NodeId(0)),
            "merged group takes the lowest id"
        );
    }

    #[test]
    fn joining_node_enters_founded_group() {
        let ring = Ring::from([0, 1, 2]);
        let mut b = ClusterBuilder::new(fast_cfg());
        for i in 0..3 {
            b = b.member(NodeId(i), StartMode::Founding(ring.clone()));
        }
        // Node 3 is eligible (for_cluster covers 0..n) but must ask to join.
        let mut cfg = fast_cfg();
        cfg.session.eligible = (0..4).map(NodeId).collect();
        let mut b = ClusterBuilder::new(cfg);
        for i in 0..3 {
            b = b.member(NodeId(i), StartMode::Founding(ring.clone()));
        }
        let mut c = b.member(NodeId(3), StartMode::Joining).build().unwrap();
        c.run_for(Duration::from_secs(3));
        assert!(c.membership_converged());
        assert_eq!(c.live_members().len(), 4);
    }

    #[test]
    fn master_lock_never_held_twice_and_pauses_ring() {
        let mut c = Cluster::founding(3, fast_cfg()).unwrap();
        c.run_until(secs(1));
        c.session_mut(NodeId(1)).unwrap().request_master().unwrap();
        c.session_mut(NodeId(2)).unwrap().request_master().unwrap();
        let mut both = false;
        let mut acquired_any = false;
        c.run_until_with(secs(2), |c| {
            let h1 = c.session(NodeId(1)).unwrap().holds_master();
            let h2 = c.session(NodeId(2)).unwrap().holds_master();
            both |= h1 && h2;
            acquired_any |= h1 || h2;
        });
        assert!(acquired_any, "someone acquired the master lock");
        assert!(!both, "mutual exclusion violated");
        // Whoever holds it pins the token; release resumes circulation.
        let holder = if c.session(NodeId(1)).unwrap().holds_master() {
            NodeId(1)
        } else {
            NodeId(2)
        };
        let now = c.now();
        let rounds_before = c.metrics(NodeId(0)).tokens_received;
        c.run_for(Duration::from_millis(200));
        assert_eq!(
            c.metrics(NodeId(0)).tokens_received,
            rounds_before,
            "ring paused"
        );
        c.session_mut(holder)
            .unwrap()
            .release_master(now + Duration::from_millis(200))
            .unwrap();
        c.run_for(Duration::from_millis(200));
        assert!(
            c.metrics(NodeId(0)).tokens_received > rounds_before,
            "ring resumed"
        );
    }

    #[test]
    fn exactly_once_in_order_delivery_under_heavy_loss() {
        let mut cfg = fast_cfg();
        cfg.net.loss = 0.15;
        cfg.net.seed = 42;
        cfg.transport.max_retries = 10;
        let mut c = Cluster::founding(3, cfg).unwrap();
        c.run_until(secs(1));
        for i in 0..20u8 {
            c.multicast(
                NodeId(u32::from(i) % 3),
                DeliveryMode::Agreed,
                Bytes::from(vec![i]),
            )
            .unwrap();
        }
        c.run_for(Duration::from_secs(8));
        let reference: Vec<u8> = c
            .deliveries(NodeId(0))
            .iter()
            .map(|d| d.payload[0])
            .collect();
        assert_eq!(reference.len(), 20, "all delivered exactly once at node 0");
        for id in c.member_ids() {
            let got: Vec<u8> = c.deliveries(id).iter().map(|d| d.payload[0]).collect();
            assert_eq!(got, reference, "node {id}");
        }
    }

    #[test]
    fn critical_resource_shutdown_removes_node_from_group() {
        let mut c = Cluster::founding(3, fast_cfg()).unwrap();
        c.run_until(secs(1));
        let now = c.now();
        {
            let s = c.session_mut(NodeId(1)).unwrap();
            s.add_critical_resource("internet-uplink");
            s.set_resource(now, "internet-uplink", false);
        }
        c.run_for(Duration::from_secs(1));
        assert!(!c.is_alive(NodeId(1)), "node shut itself down");
        assert!(c.membership_converged());
        assert_eq!(c.live_members(), vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut cfg = fast_cfg();
            cfg.net.loss = 0.1;
            cfg.net.seed = 7;
            let mut c = Cluster::founding(4, cfg).unwrap();
            c.run_until(secs(1));
            c.multicast(NodeId(2), DeliveryMode::Agreed, Bytes::from_static(b"d"))
                .unwrap();
            c.crash(NodeId(3));
            c.run_until(secs(3));
            let m: Vec<_> = c.member_ids().iter().map(|&id| c.metrics(id)).collect();
            let d: Vec<_> = c.deliveries(NodeId(0)).to_vec();
            (m, d, c.steps())
        };
        let (m1, d1, s1) = run();
        let (m2, d2, s2) = run();
        assert_eq!(m1, m2);
        assert_eq!(d1, d2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn token_rate_matches_configured_l() {
        // 4 nodes, token_hold 2.5 ms → ~100 rounds/s (ignoring latency).
        let mut cfg = fast_cfg();
        cfg.session.token_hold = Duration::from_micros(2500);
        let mut c = Cluster::founding(4, cfg).unwrap();
        c.run_until(secs(1));
        c.reset_net_stats();
        let before = c.metrics(NodeId(0)).tokens_received;
        c.run_for(Duration::from_secs(1));
        let rounds = c.metrics(NodeId(0)).tokens_received - before;
        assert!(
            (80..=100).contains(&rounds),
            "≈100 rounds/s expected, got {rounds}"
        );
    }
}

#[cfg(test)]
mod backpressure_tests {
    use super::*;
    use crate::cluster::tests_shared::fast;

    #[test]
    fn token_capacity_bounds_burst_but_everything_delivers() {
        let mut c = Cluster::founding(3, fast()).unwrap();
        c.run_for(Duration::from_secs(1));
        // Burst far beyond the token capacity.
        let burst = 3 * raincore_session::MAX_ATTACHED as u16;
        for i in 0..burst {
            let payload = Bytes::copy_from_slice(&i.to_le_bytes());
            c.multicast(NodeId(0), DeliveryMode::Agreed, payload)
                .unwrap();
        }
        c.run_for(Duration::from_secs(5));
        for id in c.member_ids() {
            let got: Vec<u16> = c
                .deliveries(id)
                .iter()
                .map(|d| u16::from_le_bytes([d.payload[0], d.payload[1]]))
                .collect();
            assert_eq!(
                got.len(),
                burst as usize,
                "node {id} received the whole burst"
            );
            let want: Vec<u16> = (0..burst).collect();
            assert_eq!(
                got, want,
                "node {id}: FIFO order preserved under backpressure"
            );
        }
    }
}

#[cfg(test)]
pub(crate) mod tests_shared {
    use super::*;

    pub(crate) fn fast() -> ClusterConfig {
        let mut c = ClusterConfig::default();
        c.session.token_hold = Duration::from_millis(2);
        c.session.hungry_timeout = Duration::from_millis(100);
        c.session.starving_retry = Duration::from_millis(40);
        c.session.beacon_period = Duration::from_millis(50);
        c.transport.retry_timeout = Duration::from_millis(10);
        c
    }
}

impl Cluster {
    /// Renders a one-screen diagnostic snapshot of every node: state,
    /// membership view, group, token seq and headline counters. Intended
    /// for debugging failed scenarios (`eprintln!("{}", c.dump_state())`).
    pub fn dump_state(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "t = {} ({} steps)", self.now, self.steps);
        for (id, slot) in &self.slots {
            match &slot.session {
                Some(s) => {
                    let _ = writeln!(
                        out,
                        "  {id}: {}{} {:?} group={} copy_seq={} tokens_rx={} deliveries={}",
                        if slot.alive { "" } else { "DEAD " },
                        s.state_name(),
                        s.ring(),
                        s.group_id(),
                        s.last_copy_seq(),
                        s.metrics().tokens_received,
                        s.metrics().deliveries,
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "  {id}: plain host{}",
                        if slot.alive { "" } else { " (DEAD)" }
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod dump_tests {
    use super::*;
    use crate::cluster::tests_shared::fast;

    #[test]
    fn dump_state_mentions_every_node() {
        let mut c = Cluster::founding(3, fast()).unwrap();
        c.run_for(Duration::from_millis(500));
        c.crash(NodeId(2));
        c.run_for(Duration::from_millis(500));
        let dump = c.dump_state();
        for i in 0..3 {
            assert!(dump.contains(&format!("n{i}:")), "{dump}");
        }
        assert!(dump.contains("DEAD"), "{dump}");
        assert!(dump.contains("EATING") || dump.contains("HUNGRY"), "{dump}");
    }
}
