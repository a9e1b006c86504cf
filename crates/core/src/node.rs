//! The Raincore session node: one instance per cluster member.
//!
//! [`SessionNode`] implements §2.2–2.7 of the paper as a sans-io state
//! machine over the Raincore Transport Service. A driver (the
//! deterministic simulator, or the threaded UDP runtime) feeds it
//! datagrams and time and drains datagrams and [`SessionEvent`]s.
//!
//! ## State machine
//!
//! A node is HUNGRY (no token), EATING (holds the token) or STARVING
//! (HUNGRY past the timeout — token suspected lost, 911 in progress).
//! Normal operation alternates HUNGRY ↔ EATING as the token circulates.
//!
//! ## Layout
//!
//! The paper specifies the service as separable protocols, and so does
//! the code. `SessionNode` keeps identity, configuration, the transport
//! endpoint, the [`Role`], the ring view, the master lock (§2.7), the
//! critical resources and the event queue, and dispatches datagrams,
//! ticks and delivery failures into four components that own everything
//! else (DESIGN.md §5.1):
//!
//! * [`crate::ring_pass`] — token accept / merge / pass / resend (§2.2);
//! * [`crate::recovery`] — 911 recovery and join (§2.3);
//! * [`crate::discovery`] — beacons and the merge tie-break (§2.4);
//! * [`crate::multicast`] — attach, hold-back, delivery, retirement and
//!   out-of-band bulk dissemination (§2.6).
//!
//! Components never call each other through the node: a path that ends
//! with the token in this node's hands returns it ([`Eat`]), and the one
//! place a token is eaten is `SessionNode::become_eating`.

use crate::ctx::{full_line, Ctx, SendKind};
use crate::discovery::Discovery;
use crate::events::SessionEvent;
use crate::metrics::SessionMetrics;
use crate::multicast::Multicast;
use crate::obs::NodeObs;
use crate::recovery::{self, Recovery};
use crate::ring_pass::{Eat, RingPass};
use crate::typestate::{Role, TimerFired};
use bytes::Bytes;
use raincore_net::Addr;
use raincore_net::Datagram;
use raincore_obs::TraceKind;
use raincore_transport::{Endpoint, PeerTable, TransportEvent};
use raincore_types::wire::WireDecode;
use raincore_types::{
    DeliveryMode, DigestInto, Duration, Error, GroupId, Incarnation, MsgId, NodeId, OriginSeq,
    Result, Ring, SessionConfig, SessionMsg, StateDigest, Time, TransportConfig,
};
use std::collections::{HashMap, VecDeque};

/// How a node enters the world.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StartMode {
    /// Start with a configured initial membership; the lowest id in the
    /// ring founds the token. This is how a cluster is normally booted.
    Founding(Ring),
    /// Start alone with no token and ask to join via the 911 protocol
    /// (§2.3): "When a new node wishes to participate in the membership,
    /// it sends a 911 message to any node in the group."
    Joining,
    /// Start as a singleton group holding its own token; rely on the
    /// discovery/merge protocol (§2.4) to coalesce with others.
    Isolated,
}

/// Evicting sends a late acknowledgement is still matched against.
const EVICTIONS_REMEMBERED: usize = 8;

/// The Raincore Distributed Session Service endpoint for one node.
///
/// See the crate documentation for the protocol description and the
/// module documentation for the state machine and the layout.
#[derive(Debug)]
pub struct SessionNode {
    id: NodeId,
    cfg: SessionConfig,
    transport: Endpoint,
    /// Kind of every in-flight transport send.
    inflight: HashMap<MsgId, SendKind>,
    /// The last few sends whose failure-on-delivery evicted a member, so
    /// that an acknowledgement that still arrives for one counts a false
    /// suspicion (observability only; not part of the state digest).
    evicted_by: VecDeque<MsgId>,
    /// The typestate protocol core: HUNGRY/EATING/STARVING/DOWN. All
    /// state transitions go through [`crate::typestate`]'s typed edges.
    role: Role,
    /// When this node's last pass was due. The ring's first member paces
    /// full tokens from it (DESIGN.md §16.2); `None` until it has passed
    /// one.
    pass_slot: Option<Time>,
    /// Local view of the membership, refreshed from each token.
    ring: Ring,
    /// Started with a group of its own, not asking to join one.
    founded: bool,
    pass: RingPass,
    recovery: Recovery,
    discovery: Discovery,
    mcast: Multicast,
    master_requested: bool,
    master_held: bool,
    /// Critical resources (§2.4): name → up. Any `false` shuts the node
    /// down.
    resources: HashMap<String, bool>,
    events: VecDeque<SessionEvent>,
    metrics: SessionMetrics,
    obs: NodeObs,
}

/// Lends the composer's own state to a component for one call. A macro,
/// not a method: the borrow checker must see the individual fields, so
/// the component fields stay borrowable beside the [`Ctx`].
macro_rules! cx {
    ($node:ident, $now:expr) => {
        Ctx {
            id: $node.id,
            now: $now,
            cfg: &$node.cfg,
            transport: &mut $node.transport,
            inflight: &mut $node.inflight,
            role: &mut $node.role,
            ring: &mut $node.ring,
            events: &mut $node.events,
            metrics: &mut $node.metrics,
            obs: &mut $node.obs,
        }
    };
}

/// Construction and read access.
impl SessionNode {
    /// Creates a session node.
    ///
    /// * `local_addrs` — this node's physical addresses (one per NIC).
    /// * `peers` — physical addresses of every node we may talk to
    ///   (normally the whole eligible membership).
    /// * `start` — see [`StartMode`].
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: NodeId,
        inc: Incarnation,
        cfg: SessionConfig,
        tcfg: TransportConfig,
        local_addrs: Vec<Addr>,
        peers: PeerTable,
        start: StartMode,
        now: Time,
    ) -> Result<Self> {
        cfg.validate().map_err(Error::Config)?;
        let transport = Endpoint::new(id, inc, local_addrs, peers, tcfg)?;
        let mut node = SessionNode {
            id,
            transport,
            inflight: HashMap::new(),
            evicted_by: VecDeque::new(),
            role: Role::hungry(now),
            pass_slot: None,
            ring: match &start {
                StartMode::Founding(ring) => ring.clone(),
                StartMode::Joining | StartMode::Isolated => Ring::from_iter([id]),
            },
            founded: !matches!(start, StartMode::Joining),
            pass: RingPass::default(),
            recovery: Recovery::default(),
            discovery: Discovery::new(now, &cfg),
            mcast: Multicast::new(),
            master_requested: false,
            master_held: false,
            resources: HashMap::new(),
            events: VecDeque::new(),
            metrics: SessionMetrics::default(),
            obs: NodeObs::new(id.0, now),
            cfg,
        };
        match start {
            StartMode::Founding(ring) => {
                if !ring.contains(id) {
                    return Err(Error::Config("initial ring must contain the local node"));
                }
                if ring.group_id() == Some(GroupId(id)) {
                    // Lowest id founds the token.
                    let founded = node.pass.found(ring);
                    node.become_eating(now, founded);
                }
            }
            StartMode::Joining => {
                node.recovery.probe(&mut cx!(node, now), &node.pass);
            }
            StartMode::Isolated => {
                let founded = node.pass.found(Ring::from_iter([id]));
                node.become_eating(now, founded);
            }
        }
        Ok(node)
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The active configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// Local view of the group membership.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// True if this node started with a group of its own
    /// ([`StartMode::Founding`], [`StartMode::Isolated`]) rather than by
    /// asking to join one: what it has seen is then all there was to see.
    pub fn founded(&self) -> bool {
        self.founded
    }

    /// This node's current group id (lowest member of its view).
    pub fn group_id(&self) -> GroupId {
        self.ring.group_id().unwrap_or(GroupId(self.id))
    }

    /// True while the node holds the token (EATING, §2.2).
    pub fn is_eating(&self) -> bool {
        self.role.is_eating()
    }

    /// True once the node has shut itself down.
    pub fn is_down(&self) -> bool {
        self.role.is_down()
    }

    /// Current state name, for traces and tests.
    pub fn state_name(&self) -> &'static str {
        self.role.name()
    }

    /// The typestate protocol core (read-only: state fingerprinting and
    /// assertions; all mutation goes through the session logic).
    pub fn role(&self) -> &Role {
        &self.role
    }

    /// Feeds every behavior-relevant piece of session state (and the
    /// embedded transport endpoint) into a model-checker state digest:
    /// the composer's own fields here, each component's slice in its own
    /// `digest_into`. Deliberately excluded: `cfg` (constant) and
    /// `metrics`/`obs`/`evicted_by` (observability only).
    pub fn digest_into(&self, now: Time, d: &mut StateDigest) {
        d.node(self.id);
        self.role.digest_into(d, now);
        // The slot acts through how far the next one lies from `now`, and
        // one a round or more behind is simply behind (`pass_token`).
        let round = self.loaded_round();
        d.opt(self.pass_slot, |d, slot| {
            d.deadline_rel(slot + round + round, now);
        });
        self.ring.digest_into(d);
        self.pass.digest_into(d);
        self.mcast.digest_into(now, d);
        let mut inflight: Vec<(MsgId, SendKind)> =
            self.inflight.iter().map(|(k, v)| (*k, *v)).collect();
        inflight.sort_unstable_by_key(|(k, _)| *k);
        d.write_len(inflight.len());
        for (msg_id, kind) in inflight {
            d.write_u64(msg_id.0);
            match kind {
                SendKind::Token => d.tag(0),
                SendKind::Call911 { req_id } => {
                    d.tag(1);
                    d.write_u64(req_id);
                }
                SendKind::Reply => d.tag(2),
                SendKind::Beacon => d.tag(3),
                SendKind::Probe => d.tag(4),
            }
        }
        self.recovery.digest_into(d);
        self.discovery.digest_into(now, d);
        d.write_bool(self.master_requested);
        d.write_bool(self.master_held);
        let mut resources: Vec<(&String, bool)> =
            self.resources.iter().map(|(k, v)| (k, *v)).collect();
        resources.sort_unstable_by_key(|(k, _)| *k);
        d.write_len(resources.len());
        for (name, up) in resources {
            d.write_bytes(name.as_bytes());
            d.write_bool(up);
        }
        // Undrained event queues must never let two different states
        // merge; drained (the normal case) this contributes a constant.
        d.write_len(self.events.len());
        self.transport.digest_into(now, d);
    }

    /// Sequence number of the last received token copy (0 = never).
    pub fn last_copy_seq(&self) -> u64 {
        self.pass.last_copy_seq()
    }

    /// Counter snapshot.
    pub fn metrics(&self) -> SessionMetrics {
        self.metrics
    }

    /// Observability side-car: trace journal and latency histograms.
    pub fn obs(&self) -> &NodeObs {
        &self.obs
    }

    /// Mutable observability access (e.g. to push harness-level events
    /// into this node's trace journal).
    pub fn obs_mut(&mut self) -> &mut NodeObs {
        &mut self.obs
    }

    /// Transport-layer counter snapshot.
    pub fn transport_stats(&self) -> raincore_transport::TransportStats {
        self.transport.stats()
    }

    /// Transport-layer latency histograms (RTT, failure-on-delivery).
    pub fn transport_obs(&self) -> &raincore_transport::TransportObs {
        self.transport.obs()
    }

    /// Mutable access to the transport peer table — e.g. to register the
    /// addresses of a late joiner or of an external open-group client so
    /// it can be acknowledged (§2.6).
    pub fn transport_peers_mut(&mut self) -> &mut PeerTable {
        self.transport.peers_mut()
    }

    /// True if the master lock is currently held by this node.
    pub fn holds_master(&self) -> bool {
        self.master_held
    }
}

/// The application and driver (sans-io) interface.
impl SessionNode {
    /// Queues `payload` for reliable atomic multicast to the whole group
    /// with the requested consistency `mode` (§2.6). The message is
    /// attached to the token at the next pass. Returns the origin
    /// sequence number; [`SessionEvent::MulticastAtomic`] fires with the
    /// same number once every member has received the message.
    pub fn multicast(&mut self, mode: DeliveryMode, payload: Bytes) -> Result<OriginSeq> {
        if self.is_down() {
            return Err(Error::ShutDown);
        }
        let full = full_line(&self.transport);
        let seq = self
            .mcast
            .submit(self.id, &self.cfg, &mut self.obs, full, mode, payload)?;
        self.release_full_hold();
        Ok(seq)
    }

    /// Requests the master lock (§2.7). The lock is granted the next time
    /// this node holds the token ([`SessionEvent::MasterAcquired`]); the
    /// token is then *retained* — pausing the ring — until
    /// [`SessionNode::release_master`].
    pub fn request_master(&mut self) -> Result<()> {
        if self.is_down() {
            return Err(Error::ShutDown);
        }
        self.master_requested = true;
        self.grant_master_if_eating();
        Ok(())
    }

    /// The master lock is the EATING state held on request (§2.7).
    fn grant_master_if_eating(&mut self) {
        if self.master_requested && !self.master_held && self.is_eating() {
            self.master_held = true;
            self.events.push_back(SessionEvent::MasterAcquired);
        }
    }

    /// Releases the master lock and immediately forwards the token.
    pub fn release_master(&mut self, now: Time) -> Result<()> {
        if !self.master_held {
            return Err(Error::InvalidLockOp("master lock not held"));
        }
        self.master_requested = false;
        self.master_held = false;
        self.events.push_back(SessionEvent::MasterReleased);
        if self.is_eating() {
            // The lock holder's pass, whatever the pacing rule thought.
            self.pass_token(now, false);
        }
        Ok(())
    }

    /// Declares a named critical resource (§2.4), initially up.
    pub fn add_critical_resource(&mut self, name: impl Into<String>) {
        self.resources.insert(name.into(), true);
    }

    /// Updates a critical resource's health. If any resource is down the
    /// node shuts itself down — the paper's split-brain prevention: only
    /// the partition that still reaches the shared resource survives.
    pub fn set_resource(&mut self, now: Time, name: &str, up: bool) {
        self.resources.insert(name.to_string(), up);
        if !up && !self.is_down() {
            self.shutdown(now, format!("critical resource '{name}' lost"));
        }
    }

    /// Voluntarily leaves the group and shuts down. If this node holds
    /// the token it removes itself from the membership and forwards the
    /// token so the ring continues without interruption.
    pub fn leave(&mut self, now: Time) {
        if !self.is_down() {
            self.shutdown(now, "voluntary leave".to_string());
        }
    }

    fn shutdown(&mut self, now: Time, reason: String) {
        if let Some(token) = self.role.shut_down() {
            self.pass.hand_off_on_leave(&mut cx!(self, now), token);
        }
        self.master_held = false;
        self.master_requested = false;
        self.obs.tick(now);
        self.obs.shut_down();
        self.events.push_back(SessionEvent::ShutDown { reason });
    }

    /// Feeds a received datagram into the node.
    pub fn on_datagram(&mut self, now: Time, dgram: Datagram) {
        if self.is_down() {
            return;
        }
        self.obs.tick(now);
        self.obs.hop_arrival(); // stage b0: datagram in hand
        self.transport.on_datagram(now, dgram);
        self.drain_transport(now);
    }

    /// Advances timers to `now`.
    pub fn on_tick(&mut self, now: Time) {
        if self.is_down() {
            return;
        }
        self.obs.tick(now);
        self.transport.on_tick(now);
        self.drain_transport(now);
        if self.is_down() {
            return;
        }

        match self
            .role
            .timer(now, self.cfg.hungry_timeout, self.master_held)
        {
            TimerFired::PassToken => {
                let early = self.role.hold().is_some_and(|h| h < self.cfg.token_hold);
                self.pass_token(now, early);
            }
            TimerFired::Probe => recovery::ask_successor(&mut cx!(self, now), &self.pass),
            TimerFired::Starve => {
                let eat = self.recovery.starve(&mut cx!(self, now), &mut self.pass);
                self.eat(now, eat);
            }
            TimerFired::Retry911 => {
                let eat = self.recovery.retry(&mut cx!(self, now), &mut self.pass);
                self.eat(now, eat);
            }
            TimerFired::Idle => {}
        }

        let in_group = self.pass.last_copy().is_some();
        let mut cx = cx!(self, now);
        self.mcast.fire_bulk_pulls(&mut cx);
        self.discovery.on_tick(&mut cx, in_group);
    }

    /// Earliest instant at which [`SessionNode::on_tick`] has work to do.
    pub fn next_wakeup(&self) -> Option<Time> {
        if self.is_down() {
            return None;
        }
        [
            self.transport.next_wakeup(),
            self.role
                .next_deadline(self.cfg.hungry_timeout, self.master_held),
            self.discovery.next_wakeup(&self.cfg, self.id, &self.ring),
            self.mcast.next_pull(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Drains one outgoing datagram, if any.
    pub fn poll_outgoing(&mut self) -> Option<Datagram> {
        self.transport.poll_outgoing()
    }

    /// Drains one application event, if any.
    pub fn poll_event(&mut self) -> Option<SessionEvent> {
        self.events.pop_front()
    }
}

/// Dispatch into the components, and the two composite moves — eating a
/// token and passing it — that touch more than one of them.
impl SessionNode {
    fn drain_transport(&mut self, now: Time) {
        while let Some(ev) = self.transport.poll_event() {
            if self.is_down() {
                return;
            }
            match ev {
                TransportEvent::Received { payload, .. } => {
                    self.obs.hop_payload(); // stage b1: about to decode
                    if let Ok(msg) = SessionMsg::decode_from_bytes(&payload) {
                        self.metrics.task_switches += 1;
                        self.on_session_msg(now, msg);
                    }
                }
                TransportEvent::Delivered { msg_id, to } => {
                    if self.inflight.remove(&msg_id) == Some(SendKind::Probe) {
                        // Alive: stalled and woke, or keeping the lock.
                        self.obs.trace(TraceKind::ProbeAcked { to: to.0 });
                    }
                    self.pass.on_delivered(msg_id);
                }
                TransportEvent::FailureRefuted { msg_id, .. } => {
                    if let Some(i) = self.evicted_by.iter().position(|&m| m == msg_id) {
                        self.evicted_by.remove(i);
                        self.metrics.false_suspicions += 1;
                    }
                }
                TransportEvent::DeliveryFailed { msg_id, to } => {
                    let was_member = self.ring.contains(to);
                    let mut cx = cx!(self, now);
                    let eat = match cx.inflight.remove(&msg_id) {
                        Some(SendKind::Token) => self.pass.on_pass_failed(&mut cx, msg_id, to),
                        Some(SendKind::Call911 { .. }) => {
                            recovery::on_call_failed(&mut cx, &mut self.pass, to)
                        }
                        Some(SendKind::Probe) => {
                            self.recovery.on_probe_failed(&mut cx, &mut self.pass, to)
                        }
                        // Verdicts and beacons are best-effort.
                        Some(SendKind::Reply) | Some(SendKind::Beacon) | None => None,
                    };
                    if was_member && !self.ring.contains(to) {
                        if self.evicted_by.len() == EVICTIONS_REMEMBERED {
                            self.evicted_by.pop_front();
                        }
                        self.evicted_by.push_back(msg_id);
                    }
                    self.eat(now, eat);
                }
            }
        }
    }

    pub(crate) fn on_session_msg(&mut self, now: Time, msg: SessionMsg) {
        let mut cx = cx!(self, now);
        let eat = match msg {
            SessionMsg::Token(t) => self.pass.on_token(&mut cx, t),
            SessionMsg::Call911(c) => {
                recovery::on_call911(&mut cx, &mut self.pass, c);
                None
            }
            SessionMsg::Reply911(r) => recovery::on_reply911(&mut cx, &mut self.pass, r),
            SessionMsg::BodyOdor(b) => {
                self.discovery.on_beacon(&mut cx, b);
                None
            }
            SessionMsg::Open(o) => {
                self.mcast.on_open(&mut cx, o);
                None
            }
            SessionMsg::Bulk(b) => {
                self.mcast.on_bulk(&mut cx, b);
                None
            }
            SessionMsg::BulkNack(n) => {
                self.mcast.on_bulk_nack(&mut cx, n);
                None
            }
            // The transport has acknowledged it; that was the answer.
            SessionMsg::Probe => None,
        };
        self.eat(now, eat);
        // An open relay queues a multicast like any local submit.
        self.release_full_hold();
    }

    fn eat(&mut self, now: Time, eat: Option<Eat>) {
        if let Some(eat) = eat {
            self.become_eating(now, eat);
        }
    }

    /// Accepts a token and enters EATING: merge a held TBM token, refresh
    /// the membership, process piggybacked messages, grant a pending
    /// master request. Every path that ends with the token in this node's
    /// hands comes through here.
    fn become_eating(&mut self, now: Time, Eat(token): Eat) {
        let mut cx = cx!(self, now);
        cx.obs.tick(now);
        self.recovery.token_in_hand();
        self.pass.note_accept(now);
        let mut token = self.pass.absorb_held_tbm(&mut cx, token);
        let hungry_since = cx.role.hungry_since();
        let hop = token.ring.iter().position(|n| n == cx.id).unwrap_or(0) as u64;
        cx.obs
            .token_accepted(token.seq, hop, token.ring.len() as u64, hungry_since);
        cx.obs.hop_accepted(token.trace); // stage b3: protocol accepted
        cx.sync_membership(&token.ring);
        self.mcast.process_attachments(&mut cx, &mut token);
        cx.metrics.tokens_received += 1;
        let full = cx.full_line();
        cx.role.accept_token(token, now, cx.cfg.token_hold, full);
        self.grant_master_if_eating();
        self.release_full_hold();
    }

    /// The pacing rule (DESIGN.md §16), and the one place it lives: never
    /// hold a full token for `token_hold`. The hold paces a token that
    /// still has room — waiting lets more multicasts board the datagrams
    /// the hop pays for anyway. Once the freight of the held token plus
    /// what is queued to attach fills two transport datagrams
    /// ([`full_line`]) — on the token or beside it: an out-of-band payload
    /// that is a full token's worth by itself counts as its bytes, not as
    /// its manifest entry, a smaller one as the entry it shares the token
    /// with — the wait buys nothing, and the token is due at once —
    /// except at the ring's first member, which keeps the loaded ring's
    /// pace: there it is due one [`SessionNode::loaded_round`] after that
    /// member's last pass was (a held master lock still pins the token
    /// anywhere). Evaluated wherever the sum grows: a token accepted, a
    /// multicast queued.
    fn release_full_hold(&mut self) {
        let line = full_line(&self.transport);
        if self.freight().is_some_and(|freight| freight >= line) {
            let paces = self.ring.group_id() == Some(GroupId(self.id));
            let due = match self.pass_slot {
                Some(slot) if paces => slot + self.loaded_round(),
                _ => Time::ZERO,
            };
            self.role.set_pass_due(due);
        }
    }

    /// What the pacing rule weighs, if EATING: the freight the held token
    /// orders plus the freight queued to board it at the pass.
    fn freight(&self) -> Option<usize> {
        let held = self.role.held_load()?;
        Some(held.saturating_add(self.mcast.outgoing_bytes()))
    }

    /// A round of the loaded ring: half an idle round, half the hold a
    /// hop. One clock bounds the rate of full tokens, not how fast the
    /// host turns a hop around, so a saturated ring runs as steadily as
    /// an idle one (DESIGN.md §16.2).
    fn loaded_round(&self) -> Duration {
        self.cfg
            .token_hold
            .saturating_mul(self.ring.len() as u64)
            .div(2)
    }

    /// Forwards the token to the next member: attach queued multicasts,
    /// admit pending joiners, hand off a TBM token if a merge is due.
    /// `early`: the timer fired on a hold the pacing rule cut short.
    fn pass_token(&mut self, now: Time, early: bool) {
        let round = self.loaded_round();
        // The freight that released the hold, for the journal.
        let released_by = self.freight().filter(|_| early);
        let mut cx = cx!(self, now);
        let Some(mut token) = cx.role.take_token(now) else {
            return;
        };
        cx.metrics.tokens_passed_early += u64::from(early);
        // This pass's slot on the pace: a round after the last one, and
        // within a round of the pass itself. A token that came late does
        // not move the grid — the next round runs short and makes it up,
        // so delays do not add up into the rate — and a pause leaves no
        // backlog of slots to burn through.
        self.pass_slot = Some(match self.pass_slot {
            Some(slot) => (slot + round).clamp(now - round, now),
            None => now,
        });
        // Stage b3': pass-side work begins. The EATING hold between b3
        // and here is deliberately not a stage — it is pacing, not
        // pipeline — and goes to its own `token_hold` histogram.
        cx.obs.hop_pass_begin(released_by);
        self.mcast.attach_outgoing(&mut cx, &mut token);
        let merge_target = self.discovery.take_merge_target();
        let eat = self.pass.forward(&mut cx, token, merge_target);
        self.eat(now, eat);
    }
}

#[cfg(test)]
pub(crate) mod testkit {
    //! Shared fixtures of the session crate's unit tests.

    use super::*;

    /// Node `id` of an `n`-node cluster, with a chance to adjust the
    /// session configuration first.
    pub(crate) fn mk_with(
        id: u32,
        n: u32,
        start: StartMode,
        mutate: impl FnOnce(&mut SessionConfig),
    ) -> SessionNode {
        let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        let mut cfg = SessionConfig::for_cluster(n);
        mutate(&mut cfg);
        SessionNode::new(
            NodeId(id),
            Incarnation::FIRST,
            cfg,
            TransportConfig::default(),
            vec![Addr::primary(NodeId(id))],
            PeerTable::full_mesh(nodes, 1),
            start,
            Time::ZERO,
        )
        .unwrap()
    }

    pub(crate) fn mk(id: u32, n: u32, start: StartMode) -> SessionNode {
        mk_with(id, n, start, |_| {})
    }

    /// Decoded session messages drained from the outgoing queue, with
    /// their destinations (single-fragment DATA frames only).
    pub(crate) fn outgoing_msgs(n: &mut SessionNode) -> Vec<(NodeId, SessionMsg)> {
        let mut out = vec![];
        while let Some(d) = n.poll_outgoing() {
            let f = raincore_transport::Frame::decode_from_bytes(&d.payload).unwrap();
            if let raincore_transport::Frame::Data {
                payload,
                frag_index: 0,
                frag_count: 1,
                ..
            } = f
            {
                if let Ok(m) = SessionMsg::decode_from_bytes(&payload) {
                    out.push((d.dst.node, m));
                }
            }
        }
        out
    }

    /// The first session message waiting in the outgoing queue.
    pub(crate) fn first_msg(n: &mut SessionNode) -> (NodeId, SessionMsg) {
        outgoing_msgs(n)
            .into_iter()
            .next()
            .expect("an outgoing message")
    }

    pub(crate) fn drain(n: &mut SessionNode) -> Vec<SessionEvent> {
        let mut out = vec![];
        while let Some(e) = n.poll_event() {
            out.push(e);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::{drain, mk};
    use super::*;
    use raincore_types::wire::WireEncode;
    use raincore_types::{Attached, Duration, Token};

    fn cfg(n: u32) -> SessionConfig {
        SessionConfig::for_cluster(n)
    }

    #[test]
    fn lowest_id_founds_token() {
        let ring = Ring::from([0, 1, 2]);
        let a = mk(0, 3, StartMode::Founding(ring.clone()));
        assert!(a.is_eating());
        assert_eq!(a.state_name(), "EATING");
        let b = mk(1, 3, StartMode::Founding(ring));
        assert!(!b.is_eating());
        assert_eq!(b.state_name(), "HUNGRY");
    }

    #[test]
    fn founding_requires_self_in_ring() {
        let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
        let err = SessionNode::new(
            NodeId(9),
            Incarnation::FIRST,
            cfg(3),
            TransportConfig::default(),
            vec![Addr::primary(NodeId(9))],
            PeerTable::full_mesh(nodes, 1),
            StartMode::Founding(Ring::from([0, 1, 2])),
            Time::ZERO,
        )
        .unwrap_err();
        assert!(matches!(err, Error::Config(_)));
    }

    #[test]
    fn isolated_node_is_singleton_group() {
        let a = mk(5, 8, StartMode::Isolated);
        assert!(a.is_eating());
        assert_eq!(a.ring().as_slice(), &[NodeId(5)]);
        assert_eq!(a.group_id(), GroupId(NodeId(5)));
    }

    #[test]
    fn singleton_multicast_delivers_on_self_pass() {
        let mut a = mk(0, 1, StartMode::Isolated);
        let seq = a
            .multicast(DeliveryMode::Agreed, Bytes::from_static(b"solo"))
            .unwrap();
        assert_eq!(seq, OriginSeq(0));
        // Self-pass happens at the token-hold deadline.
        a.on_tick(Time::ZERO + a.config().token_hold);
        let evs = drain(&mut a);
        assert!(
            evs.iter().any(|e| matches!(e, SessionEvent::Delivery(d) if d.payload == Bytes::from_static(b"solo"))),
            "got {evs:?}"
        );
        assert!(evs
            .iter()
            .any(|e| matches!(e, SessionEvent::MulticastAtomic { seq: OriginSeq(0) })));
        assert_eq!(a.metrics().self_passes, 1);
    }

    #[test]
    fn singleton_safe_multicast_also_completes() {
        let mut a = mk(0, 1, StartMode::Isolated);
        a.multicast(DeliveryMode::Safe, Bytes::from_static(b"safe"))
            .unwrap();
        a.on_tick(Time::ZERO + a.config().token_hold);
        // Safe needs a second look: one more self-pass.
        a.on_tick(Time::ZERO + a.config().token_hold.saturating_mul(2));
        let evs = drain(&mut a);
        assert!(
            evs.iter().any(|e| matches!(e, SessionEvent::Delivery(_))),
            "{evs:?}"
        );
        assert!(evs
            .iter()
            .any(|e| matches!(e, SessionEvent::MulticastAtomic { .. })));
    }

    #[test]
    fn payload_size_enforced() {
        let mut a = mk(0, 1, StartMode::Isolated);
        let huge = Bytes::from(vec![0u8; crate::multicast::MAX_PAYLOAD + 1]);
        assert!(matches!(
            a.multicast(DeliveryMode::Agreed, huge),
            Err(Error::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn master_lock_holds_the_ring() {
        let mut a = mk(0, 1, StartMode::Isolated);
        a.request_master().unwrap();
        let evs = drain(&mut a);
        assert!(
            evs.contains(&SessionEvent::MasterAcquired),
            "eating node acquires at once"
        );
        assert!(a.holds_master());
        // Deadline passes but the lock pins the token.
        a.on_tick(Time::ZERO + Duration::from_secs(10));
        assert!(a.is_eating());
        assert_eq!(a.metrics().self_passes, 0);
        a.release_master(Time::ZERO + Duration::from_secs(10))
            .unwrap();
        assert!(drain(&mut a).contains(&SessionEvent::MasterReleased));
        assert!(!a.holds_master());
        assert_eq!(a.metrics().self_passes, 1, "release forwards the token");
        assert!(a.release_master(Time::ZERO).is_err());
    }

    /// A 1 000-byte agreed multicast: three of them fill two default-MTU
    /// datagrams (the pacing line is 2 625 bytes).
    fn big() -> Bytes {
        Bytes::from(vec![7u8; 1000])
    }

    /// A token from node 0 carrying `n` [`big`] messages, for node 1.
    fn loaded_token(n: u64) -> SessionMsg {
        token_with(0, 10, 0..n)
    }

    /// The `k`th full token a member sees: three fresh [`big`] messages
    /// of `origin`'s.
    fn full_token(origin: u32, k: u64) -> SessionMsg {
        token_with(origin, 10 + 3 * k, 3 * k..3 * k + 3)
    }

    fn token_with(origin: u32, seq: u64, msgs: std::ops::Range<u64>) -> SessionMsg {
        token_of(
            seq,
            msgs.map(|i| Attached::new(NodeId(origin), OriginSeq(i), DeliveryMode::Agreed, big())),
        )
    }

    fn token_of(seq: u64, msgs: impl IntoIterator<Item = Attached>) -> SessionMsg {
        let mut t = Token::founding(Ring::from([0, 1, 2]));
        t.seq = seq;
        t.msgs = msgs.into_iter().collect();
        SessionMsg::Token(t)
    }

    #[test]
    fn token_with_room_is_held_for_token_hold() {
        let mut b = mk(1, 3, StartMode::Founding(Ring::from([0, 1, 2])));
        let t0 = Time::ZERO + Duration::from_millis(7);
        b.on_session_msg(t0, loaded_token(1));
        assert!(b.is_eating());
        let due = t0 + b.config().token_hold;
        assert_eq!(b.next_wakeup(), Some(due));
        b.on_tick(due - Duration(1));
        assert!(b.is_eating(), "the hold paces a token that has room");
        b.on_tick(due);
        assert!(!b.is_eating());
        assert_eq!(b.metrics().tokens_sent, 1);
        assert_eq!(b.metrics().tokens_passed_early, 0);
    }

    #[test]
    fn full_token_passes_on_the_next_tick() {
        let mut b = mk(1, 3, StartMode::Founding(Ring::from([0, 1, 2])));
        let t0 = Time::ZERO + Duration::from_millis(7);
        b.on_session_msg(t0, loaded_token(3));
        assert!(b.is_eating());
        assert_eq!(b.next_wakeup(), Some(t0), "nothing left to wait for");
        b.on_tick(t0);
        assert!(!b.is_eating());
        assert_eq!(b.metrics().tokens_sent, 1);
        assert_eq!(b.metrics().tokens_passed_early, 1);
    }

    #[test]
    fn first_member_paces_full_tokens_on_a_grid_of_half_idle_rounds() {
        let mut a = mk(0, 3, StartMode::Founding(Ring::from([0, 1, 2])));
        let hold = a.config().token_hold;
        let round = hold.saturating_mul(3).div(2);
        let ms = Duration::from_millis;
        let mut full = (0..).map(|k| full_token(2, k));
        // The founding token, filled by three submits: the first pass is
        // at once, and starts the grid.
        for _ in 0..3 {
            a.multicast(DeliveryMode::Agreed, big()).unwrap();
        }
        let t0 = Time::ZERO + ms(7);
        a.on_tick(t0);
        assert_eq!(a.metrics().tokens_sent, 1);
        // Back inside a round: due at the slot — which may be later than
        // `token_hold` would have made it, and is never the whole idle
        // hold on top of the round already spent.
        let back = t0 + ms(3);
        a.on_session_msg(back, full.next().unwrap());
        assert_eq!(a.next_wakeup(), Some(t0 + round));
        assert!(t0 + round > back + hold);
        a.on_tick(t0 + round - Duration(1));
        assert!(a.is_eating(), "a full token is paced too");
        // The timer fires late; the slot it fired for is what counts.
        a.on_tick(t0 + round + ms(1));
        assert_eq!(a.metrics().tokens_sent, 2);
        a.on_session_msg(t0 + round + ms(9), full.next().unwrap());
        assert_eq!(a.next_wakeup(), Some(t0 + round + round));
        a.on_tick(t0 + round + round);
        assert_eq!(a.metrics().tokens_sent, 3);
        // A token that comes in behind its slot goes at once, and the
        // round after it runs short: the grid has not moved.
        let late = t0 + round.saturating_mul(3) + ms(5);
        a.on_session_msg(late, full.next().unwrap());
        assert_eq!(a.next_wakeup(), Some(late));
        a.on_tick(late);
        assert_eq!(a.metrics().tokens_sent, 4);
        a.on_session_msg(late + ms(4), full.next().unwrap());
        assert_eq!(a.next_wakeup(), Some(t0 + round.saturating_mul(4)));
        a.on_tick(t0 + round.saturating_mul(4));
        assert_eq!(a.metrics().tokens_sent, 5);
        // After a pause there is no backlog of slots to burn through: the
        // grid restarts a round behind the pass.
        let pause = t0 + round.saturating_mul(40);
        a.on_session_msg(pause, full.next().unwrap());
        a.on_tick(pause);
        a.on_session_msg(pause + ms(1), full.next().unwrap());
        a.on_tick(pause + ms(1));
        assert_eq!(a.metrics().tokens_sent, 7, "one round of credit");
        a.on_session_msg(pause + ms(2), full.next().unwrap());
        assert_eq!(a.next_wakeup(), Some(pause + round), "and no more");
    }

    #[test]
    fn other_members_never_pace_a_full_token() {
        let mut b = mk(1, 3, StartMode::Founding(Ring::from([0, 1, 2])));
        let t0 = Time::ZERO + Duration::from_millis(7);
        for k in 0..4 {
            let now = t0 + Duration::from_millis(k);
            b.on_session_msg(now, full_token(0, k));
            assert_eq!(b.next_wakeup(), Some(now), "the ring has one pace-keeper");
            b.on_tick(now);
        }
        assert_eq!(b.metrics().tokens_sent, 4);
        assert_eq!(b.metrics().tokens_passed_early, 4);
    }

    #[test]
    fn pass_slot_digests_by_what_it_can_still_do() {
        let mut a = mk(0, 3, StartMode::Founding(Ring::from([0, 1, 2])));
        let round = a.config().token_hold.saturating_mul(3).div(2);
        let now = Time::ZERO + round.saturating_mul(300);
        let mut fp = |slot: Option<Time>| {
            a.pass_slot = slot;
            let mut d = StateDigest::identity();
            a.digest_into(now, &mut d);
            d.finish()
        };
        let never = fp(None);
        let fresh = fp(Some(now));
        assert_ne!(never, fresh);
        assert_ne!(fresh, fp(Some(now - round)), "the next slot is now");
        // Two rounds behind or two hundred, the slot is simply behind.
        assert_eq!(
            fp(Some(now - round - round)),
            fp(Some(now - round.saturating_mul(200)))
        );
        assert_ne!(never, fp(Some(now - round - round)));
    }

    #[test]
    fn submit_that_fills_the_token_releases_the_hold() {
        let mut a = mk(0, 3, StartMode::Founding(Ring::from([0, 1, 2])));
        let hold = a.config().token_hold;
        for _ in 0..2 {
            a.multicast(DeliveryMode::Agreed, big()).unwrap();
        }
        assert_eq!(a.next_wakeup(), Some(Time::ZERO + hold), "still has room");
        a.multicast(DeliveryMode::Agreed, big()).unwrap();
        assert_eq!(a.next_wakeup(), Some(Time::ZERO));
        a.on_tick(Time::ZERO + Duration(1));
        assert!(!a.is_eating());
        assert_eq!(a.metrics().multicasts_sent, 3, "all three rode the pass");
        assert_eq!(a.metrics().tokens_passed_early, 1);
    }

    #[test]
    fn open_relay_that_fills_the_token_releases_the_hold() {
        let mut a = mk(0, 3, StartMode::Founding(Ring::from([0, 1, 2])));
        for seq in 0..3 {
            let open = raincore_types::messages::OpenSubmit {
                from: NodeId(9),
                seq: OriginSeq(seq),
                payload: big(),
            };
            a.on_session_msg(Time::ZERO, SessionMsg::Open(open));
        }
        assert_eq!(a.metrics().open_relayed, 3);
        assert_eq!(a.next_wakeup(), Some(Time::ZERO));
    }

    #[test]
    fn master_lock_outranks_a_released_hold() {
        // Three inline kilobytes, or one payload that travels out of band.
        for (bulk_threshold, count, len) in [(0, 3, 1000), (512, 1, 8192)] {
            let mut a = mk_bulk(0, bulk_threshold);
            a.request_master().unwrap();
            assert!(a.holds_master());
            for _ in 0..count {
                a.multicast(DeliveryMode::Agreed, Bytes::from(vec![7u8; len]))
                    .unwrap();
            }
            let later = Time::ZERO + Duration::from_secs(1);
            a.on_tick(later);
            assert!(a.is_eating(), "the lock pins a full token too");
            assert_eq!(a.metrics().tokens_sent, 0);
            a.release_master(later).unwrap();
            assert!(!a.is_eating());
            assert_eq!(a.metrics().tokens_sent, 1);
            assert_eq!(
                a.metrics().tokens_passed_early,
                0,
                "released by the lock holder, not by the rule"
            );
        }
    }

    /// Node `id` of the three, sending payloads of `bulk_threshold` bytes
    /// and more out of band.
    fn mk_bulk(id: u32, bulk_threshold: usize) -> SessionNode {
        testkit::mk_with(id, 3, StartMode::Founding(Ring::from([0, 1, 2])), |c| {
            c.bulk_threshold = bulk_threshold
        })
    }

    /// A manifest entry of `origin`'s ordering `len` out-of-band bytes.
    fn manifest(origin: u32, seq: u64, len: u64) -> Attached {
        Attached::new_oob(NodeId(origin), OriginSeq(seq), DeliveryMode::Agreed, len)
    }

    /// When the held token is due to be passed (the node's other timers —
    /// retransmissions, NACK pulls — left out).
    fn pass_due(n: &SessionNode) -> Option<Time> {
        n.role()
            .next_deadline(n.config().hungry_timeout, n.holds_master())
    }

    fn the_pass(n: &mut SessionNode) -> Token {
        testkit::outgoing_msgs(n)
            .into_iter()
            .find_map(|(_, m)| match m {
                SessionMsg::Token(t) => Some(t),
                _ => None,
            })
            .expect("the pass")
    }

    #[test]
    fn queued_byte_count_is_exact() {
        let mut a = mk_bulk(0, 512);
        let line = full_line(&a.transport);
        let empty = Token::founding(Ring::from([0, 1, 2])).wire_len();
        assert_eq!(a.role().held_load(), Some(empty));
        for (mode, len) in [
            (DeliveryMode::Agreed, 0),
            (DeliveryMode::Safe, 200),
            (DeliveryMode::Agreed, 600), // out of band: a manifest entry
            (DeliveryMode::Agreed, 130),
            (DeliveryMode::Safe, 4000), // out of band, and past the line
        ] {
            a.multicast(mode, Bytes::from(vec![1u8; len])).unwrap();
        }
        let queued = a.mcast.outgoing_bytes();
        a.on_tick(Time::ZERO + a.config().token_hold);
        assert_eq!(a.mcast.outgoing_bytes(), 0, "everything boarded");
        let sent = the_pass(&mut a);
        assert_eq!(sent.msgs.len(), 5);
        assert!(sent.msgs[2].is_oob() && sent.msgs[4].is_oob());
        let on_the_wire: usize = sent.msgs.iter().map(Attached::wire_len).sum();
        assert_eq!(sent.wire_len(), empty + on_the_wire);
        assert_eq!(
            queued,
            on_the_wire + 4000,
            "the running count is the bytes the entries put on the wire, and \
             the bytes the one that is a full token's worth sent round it"
        );
        assert_eq!(sent.load_len(line), empty + queued);
    }

    #[test]
    fn out_of_band_submit_releases_the_hold_by_its_payload() {
        let ms = Duration::from_millis;
        let bulk = || Bytes::from(vec![3u8; 8192]);
        // Any member but the first: due at once.
        let mut b = mk_bulk(1, 512);
        let hold = b.config().token_hold;
        let t0 = Time::ZERO + ms(7);
        b.on_session_msg(t0, token_of(10, []));
        assert_eq!(pass_due(&b), Some(t0 + hold), "an empty token has room");
        b.multicast(DeliveryMode::Agreed, bulk()).unwrap();
        assert_eq!(pass_due(&b), Some(t0), "8 KiB has left by another road");
        b.on_tick(t0 + Duration(1));
        assert!(!b.is_eating());
        assert_eq!(b.metrics().tokens_passed_early, 1);
        let sent = the_pass(&mut b);
        assert!(sent.wire_len() < 64, "the envelope stays a few bytes");
        assert!(sent.load_len(full_line(&b.transport)) > 8192);

        // The first member: the founding pass at once (it starts the
        // grid), every later one a loaded round after the last.
        let mut a = mk_bulk(0, 512);
        let round = hold.saturating_mul(3).div(2);
        a.multicast(DeliveryMode::Agreed, bulk()).unwrap();
        assert_eq!(pass_due(&a), Some(Time::ZERO));
        a.on_tick(t0);
        assert_eq!(a.metrics().tokens_sent, 1);
        let back = t0 + ms(8);
        a.on_session_msg(back, token_of(10, []));
        assert_eq!(pass_due(&a), Some(back + hold));
        a.multicast(DeliveryMode::Agreed, bulk()).unwrap();
        assert_eq!(pass_due(&a), Some(t0 + round), "pass_slot + loaded_round");
        a.on_tick(t0 + round - Duration(1));
        assert!(a.is_eating(), "the pace-keeper paces freight too");
        a.on_tick(t0 + round);
        assert_eq!(a.metrics().tokens_sent, 2);
        assert_eq!(a.metrics().tokens_passed_early, 2);
    }

    #[test]
    fn accepted_manifests_weigh_what_they_order_once_that_is_a_full_token() {
        let mut b = mk_bulk(1, 512);
        let hold = b.config().token_hold;
        let line = full_line(&b.transport) as u64;
        assert_eq!(line, 2625);
        let ms = Duration::from_millis;
        // Payloads that could share a token weigh their manifest entries,
        // however many of them there are ...
        let t0 = Time::ZERO + ms(7);
        let small = (0..8).map(|i| manifest(0, i, 2048));
        b.on_session_msg(t0, token_of(10, small));
        assert_eq!(pass_due(&b), Some(t0 + hold));
        b.on_tick(t0 + hold);
        // ... and so does one a byte short of the line.
        let t1 = t0 + ms(30);
        b.on_session_msg(t1, token_of(13, [manifest(0, 8, line - 1)]));
        assert_eq!(pass_due(&b), Some(t1 + hold));
        b.on_tick(t1 + hold);
        assert_eq!(b.metrics().tokens_passed_early, 0);
        // One that is a full token by itself: due as accepted.
        let t2 = t1 + ms(30);
        b.on_session_msg(t2, token_of(16, [manifest(0, 9, line)]));
        assert_eq!(pass_due(&b), Some(t2));
        b.on_tick(t2);
        assert_eq!(b.metrics().tokens_passed_early, 1);
    }

    #[test]
    fn retired_freight_gives_the_hold_back() {
        let mut b = mk_bulk(1, 512);
        let hold = b.config().token_hold;
        let t0 = Time::ZERO + Duration::from_millis(7);
        b.on_session_msg(t0, token_of(10, []));
        b.multicast(DeliveryMode::Agreed, Bytes::from(vec![3u8; 8192]))
            .unwrap();
        b.on_tick(t0);
        let mut entry = the_pass(&mut b).msgs[0].clone();
        assert_eq!(entry.key(), (NodeId(1), OriginSeq(0)));
        // Round the ring and back with everybody's mark: the origin
        // retires it before the token is weighed.
        entry.mark_seen(NodeId(2));
        entry.mark_seen(NodeId(0));
        let t1 = t0 + Duration::from_millis(3);
        b.on_session_msg(t1, token_of(13, [entry]));
        assert!(drain(&mut b).contains(&SessionEvent::MulticastAtomic { seq: OriginSeq(0) }));
        assert_eq!(
            pass_due(&b),
            Some(t1 + hold),
            "an idle token is paced again"
        );
        assert_eq!(b.metrics().tokens_passed_early, 1);
    }

    #[test]
    fn forged_manifest_length_can_only_fill_the_token() {
        // The length is a peer's varint: take it off the wire as the
        // transport hands it up.
        let wire =
            token_of(10, [manifest(0, 0, u64::MAX), manifest(0, 1, u64::MAX)]).encode_to_bytes();
        let msg = SessionMsg::decode_from_bytes(&wire).unwrap();
        let mut b = mk_bulk(1, 512);
        let t0 = Time::ZERO + Duration::from_millis(7);
        b.on_session_msg(t0, msg);
        assert_eq!(b.role().held_load(), Some(usize::MAX));
        assert_eq!(pass_due(&b), Some(t0), "full, and no fuller than full");
        // More freight on top of a saturated sum neither wraps nor panics.
        b.multicast(DeliveryMode::Agreed, Bytes::from(vec![3u8; 8192]))
            .unwrap();
        assert_eq!(pass_due(&b), Some(t0));
        b.on_tick(t0);
        assert!(!b.is_eating());
        assert_eq!(b.mcast.outgoing_bytes(), 0);
        // At the pace-keeper the grid still bounds it to a loaded round.
        let mut a = mk_bulk(0, 512);
        let round = a.config().token_hold.saturating_mul(3).div(2);
        a.on_tick(Time::ZERO + a.config().token_hold);
        let msg = SessionMsg::decode_from_bytes(&wire).unwrap();
        a.on_session_msg(t0 + Duration::from_millis(4), msg);
        assert_eq!(
            pass_due(&a),
            Some(Time::ZERO + a.config().token_hold + round)
        );
    }

    #[test]
    fn critical_resource_loss_shuts_down() {
        let mut a = mk(0, 2, StartMode::Isolated);
        a.add_critical_resource("uplink");
        a.set_resource(Time::ZERO, "uplink", false);
        assert!(a.is_down());
        let evs = drain(&mut a);
        assert!(evs
            .iter()
            .any(|e| matches!(e, SessionEvent::ShutDown { reason } if reason.contains("uplink"))));
        // Down node refuses everything.
        assert!(matches!(
            a.multicast(DeliveryMode::Agreed, Bytes::new()),
            Err(Error::ShutDown)
        ));
        assert_eq!(a.next_wakeup(), None);
    }

    #[test]
    fn next_wakeup_covers_state_deadlines() {
        let a = mk(1, 2, StartMode::Founding(Ring::from([0, 1])));
        // HUNGRY → wakeup at hungry timeout (beacons not needed: full ring).
        assert_eq!(
            a.next_wakeup(),
            Some(Time::ZERO + a.config().hungry_timeout)
        );
        let b = mk(0, 1, StartMode::Isolated);
        assert_eq!(b.next_wakeup(), Some(Time::ZERO + b.config().token_hold));
    }
}
