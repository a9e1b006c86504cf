//! Bounded model checker: exhaustive exploration of message-delivery
//! orderings and fault-injection points for small clusters.
//!
//! The random-schedule [`Cluster`](crate::Cluster) harness samples one
//! interleaving per seed; the properties Raincore claims (§2.2 token
//! uniqueness, §2.3 unique 911 winner, §2.6 agreed order) are exactly the
//! kind that only break under *specific* interleavings of deliveries and
//! failures. This module explores **all** of them, bounded:
//!
//! * A [`ModelWorld`] drives 3–4 [`SessionNode`]s directly — no simulated
//!   network in between — so the checker controls the delivery order of
//!   every in-flight datagram individually.
//! * Each state offers a set of [`Action`]s: deliver one pending message,
//!   drop one (bounded by a loss budget), crash a node (bounded by a
//!   crash budget), or advance virtual time to the next protocol timer.
//! * Time is **bounded-delay**: every in-flight message carries a
//!   deadline (`sent_at + max_delay`), and the clock cannot advance past
//!   a deadline while the message is still pending. This encodes the
//!   paper's LAN assumption — messages arrive or are lost "soon" — and
//!   excludes purely-asynchronous interleavings the protocol explicitly
//!   does not defend against (e.g. a token frame delivered after the
//!   group has long since regenerated and moved on).
//! * Depth-first search over schedules with **sleep-set pruning**
//!   (Godefroid-style DPOR): deliveries to different destination nodes
//!   commute, so only one representative per Mazurkiewicz trace is
//!   explored.
//! * Every explored state is fed to the five [`Auditors`]; the first
//!   violation stops the search and is **minimized** through
//!   [`crate::dump`], the failing-schedule artifact chaos shares: greedy
//!   1-minimal delta debugging, then one [`replay`] of the result, whose
//!   verdict heads the dump ([`DUMP`]: a `# scenario:` line, then one
//!   [`Action`] per line).
//!
//! The `model_check` binary wraps this for `scripts/check.sh` and CI.
//!
//! [`SessionNode`]: raincore_session::SessionNode

use crate::audit::{AuditView, Auditors, Delivered, MembershipAuditor};
use crate::dump::{self, Format, Found, Verdict};
use crate::text::{text_enum, text_fields, Codec, Exact, Multicasts, Node, Plain, TextFields};
use bytes::Bytes;
use raincore_net::{Addr, Datagram, PacketClass};
use raincore_session::{Delivery, SessionEvent, SessionNode, StartMode};
use raincore_transport::{Frame, PeerTable};
use raincore_types::wire::{WireDecode, WireEncode};
use raincore_types::{
    DeliveryMode, DigestInto, Duration, Error, Fingerprint, GroupId, Incarnation, MsgId, NodeId,
    OriginSeq, Result, Ring, SessionConfig, SessionMsg, StateDigest, Time, TransportConfig,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::marker::PhantomData;

/// Stable identity of an in-flight message: `(sender, per-sender send
/// counter)`. A node's send counter depends only on its own delivery
/// history, so the same key names the same message in every reordering of
/// a schedule prefix — which is what lets schedules be replayed, compared
/// and minimized.
pub type MsgKey = (NodeId, u64);

/// One transition of the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Action {
    /// Deliver pending message `key` to its destination `dst`.
    Deliver {
        /// Message identity.
        key: MsgKey,
        /// Destination node (redundant with the state, carried for the
        /// independence relation and for readable dumps).
        dst: NodeId,
    },
    /// Drop pending message `key` (network loss; consumes loss budget).
    Drop {
        /// Message identity.
        key: MsgKey,
    },
    /// Drop a pending out-of-band bulk payload frame (consumes the
    /// separate bulk-loss budget). Only enabled for messages that decode
    /// as [`SessionMsg::Bulk`], so the adversary can target exactly the
    /// dissemination path while the ordering path stays reliable.
    DropBulk {
        /// Message identity.
        key: MsgKey,
    },
    /// Crash a node (consumes crash budget).
    Crash(NodeId),
    /// Advance virtual time to the earliest protocol timer and tick
    /// every node that is due.
    Tick,
}

impl std::fmt::Display for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Action::Deliver { key: (src, n), dst } => write!(f, "deliver {src}#{n}->{dst}"),
            Action::Drop { key: (src, n) } => write!(f, "drop {src}#{n}"),
            Action::DropBulk { key: (src, n) } => write!(f, "drop-bulk {src}#{n}"),
            Action::Crash(id) => write!(f, "crash {id}"),
            Action::Tick => write!(f, "tick"),
        }
    }
}

fn parse_key(s: &str) -> Option<MsgKey> {
    let (src, n) = s.split_once('#')?;
    Some((Node::read(src)?, n.parse().ok()?))
}

impl std::str::FromStr for Action {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        let s = s.trim();
        let (verb, rest) = s.split_once(' ').unwrap_or((s, ""));
        let rest = rest.trim();
        let action = match verb {
            "tick" if rest.is_empty() => Some(Action::Tick),
            "crash" => Node::read(rest).map(Action::Crash),
            "drop" => parse_key(rest).map(|key| Action::Drop { key }),
            "drop-bulk" => parse_key(rest).map(|key| Action::DropBulk { key }),
            "deliver" => rest.split_once("->").and_then(|(key, dst)| {
                let (key, dst) = (parse_key(key)?, Node::read(dst)?);
                Some(Action::Deliver { key, dst })
            }),
            _ => None,
        };
        action.ok_or_else(|| format!("not an action: {s:?}"))
    }
}

/// True if the two actions commute *and* neither can disable the other —
/// the independence relation driving sleep-set pruning. Deliberately
/// conservative: anything not provably independent is dependent.
fn independent(a: &Action, b: &Action) -> bool {
    match (a, b) {
        // Deliveries to different nodes touch disjoint state.
        (Action::Deliver { key: k1, dst: d1 }, Action::Deliver { key: k2, dst: d2 }) => {
            k1 != k2 && d1 != d2
        }
        // A drop only removes one message and debits the loss budget; it
        // cannot disable a delivery of a different message, nor vice
        // versa. (Two drops from the *same* budget compete: dependent.
        // Drop and DropBulk debit separate budgets, so across different
        // keys they commute too.)
        (Action::Drop { key: k1 }, Action::Deliver { key: k2, .. })
        | (Action::Deliver { key: k1, .. }, Action::Drop { key: k2 })
        | (Action::DropBulk { key: k1 }, Action::Deliver { key: k2, .. })
        | (Action::Deliver { key: k1, .. }, Action::DropBulk { key: k2 })
        | (Action::DropBulk { key: k1 }, Action::Drop { key: k2 })
        | (Action::Drop { key: k1 }, Action::DropBulk { key: k2 }) => k1 != k2,
        _ => false,
    }
}

/// True if an on-wire payload is the transport frame that carries — or,
/// for a payload of more than one datagram, begins — an out-of-band bulk
/// payload ([`SessionMsg::Bulk`]). Bulk frames are fire-and-forget, so
/// losing the first fragment loses the payload. This is the targeting
/// predicate for [`Action::DropBulk`] and for the chaos harness's
/// bulk-loss fault class.
pub fn is_bulk_frame(bytes: &[u8]) -> bool {
    match Frame::decode_from_bytes(bytes) {
        Ok(Frame::Data {
            frag_index: 0,
            frag_count: 1,
            payload,
            ..
        }) => matches!(
            SessionMsg::decode_from_bytes(&payload),
            Ok(SessionMsg::Bulk(_))
        ),
        Ok(Frame::Data {
            frag_index: 0,
            payload,
            ..
        }) => payload.first() == Some(&SessionMsg::TAG_BULK),
        _ => false,
    }
}

text_enum! {
    /// State-space reduction applied on top of sleep-set DPOR.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub enum Reduction {
        /// No state caching: pure sleep-set DFS (the pre-reduction
        /// behavior; useful as a differential baseline).
        None = "None",
        /// Cache visited states under their fingerprint and prune
        /// revisits. Unconditionally sound: only byte-identical canonical
        /// snapshots merge.
        #[default]
        Hash = "Hash",
    }
}

/// Bounds and scenario of one exploration.
#[derive(Clone, Debug)]
pub struct ModelCheckConfig {
    /// Cluster size (all nodes found one group).
    pub nodes: u32,
    /// Maximum schedule length (actions per schedule).
    pub max_depth: usize,
    /// How many node crashes the adversary may inject per schedule.
    pub crash_budget: u32,
    /// How many message losses the adversary may inject per schedule.
    pub drop_budget: u32,
    /// How many out-of-band bulk payload frames the adversary may drop
    /// per schedule ([`Action::DropBulk`]) — a budget separate from
    /// `drop_budget` so the dissemination path can be attacked without
    /// spending the general loss budget on it.
    pub bulk_drop_budget: u32,
    /// Multicasts submitted at world creation: `(origin, payload_len)`
    /// pairs. With `session.bulk_threshold` set below a payload's
    /// length, the origin disseminates it out-of-band and the token
    /// carries only the id manifest — the workload the bulk-loss
    /// adversary and the completeness auditor exercise. Payload bytes
    /// are deterministic (a function of origin and length), so replays
    /// and digests are stable.
    pub seed_bulk: Vec<(NodeId, usize)>,
    /// Bounded-delay window: a pending message blocks time from
    /// advancing past `sent_at + max_delay`.
    pub max_delay: Duration,
    /// Stop after this many complete schedules (safety cap).
    pub max_schedules: u64,
    /// Inject the seeded two-token fault: the first in-flight TOKEN
    /// frame is cloned with a far-future sequence number and re-aimed at
    /// a different member. Exists to prove the checker can find real
    /// violations (`Explorer` must report one).
    pub forge_token: bool,
    /// State-space reduction mode (the visited-state cache) layered
    /// over sleep-set pruning.
    pub reduction: Reduction,
    /// Accept-to-accept intervals every member sees, undisturbed, before
    /// the adversary's first move (0: it moves from the founding). Four
    /// arm the successor probe (DESIGN.md §17.3), which no bounded depth
    /// reaches from a cold ring.
    pub warm_rotations: u32,
    /// Session-layer timers.
    pub session: SessionConfig,
    /// Transport-layer timers.
    pub transport: TransportConfig,
}

impl Default for ModelCheckConfig {
    fn default() -> Self {
        let session = SessionConfig {
            token_hold: Duration::from_millis(2),
            hungry_timeout: Duration::from_millis(100),
            starving_retry: Duration::from_millis(40),
            beacon_period: Duration::from_millis(50),
            ..SessionConfig::default()
        };
        let transport = TransportConfig {
            retry_timeout: Duration::from_millis(10),
            max_retries: 3,
            ..TransportConfig::default()
        };
        ModelCheckConfig {
            nodes: 3,
            max_depth: 14,
            crash_budget: 1,
            drop_budget: 1,
            bulk_drop_budget: 0,
            seed_bulk: Vec::new(),
            max_delay: Duration::from_millis(5),
            max_schedules: 12_000,
            forge_token: false,
            reduction: Reduction::default(),
            warm_rotations: 0,
            session,
            transport,
        }
    }
}

// The `# scenario:` header of a dump ([`DUMP`]), one row per
// field: every field the `model_check` CLI sets and the delay bound. A
// key is never renamed or reordered, and a new one goes last, so every
// dump an older build wrote still replays (DESIGN.md §6b).
text_fields! {
    impl ModelCheckConfig {
        "nodes" => nodes: Plain, "--nodes N";
        "depth" => max_depth: Plain, "--depth N";
        "crash_budget" => crash_budget: Plain, "--crashes N";
        "drop_budget" => drop_budget: Plain, "--drops N";
        "bulk_drop_budget" => bulk_drop_budget: Plain, "--bulk-drops N";
        "max_delay" => max_delay: Exact;
        "max_schedules" => max_schedules: Plain, "--max-schedules N";
        "forge_token" => forge_token: Plain;
        "reduction" => reduction: Plain;
        "mtu" => transport.mtu: Plain, "--mtu BYTES";
        "multicasts" => seed_bulk: Multicasts, "--multicast ORIGIN:LEN";
        "bulk_threshold" => session.bulk_threshold: Plain, "--bulk-threshold BYTES";
        "warm_rotations" => warm_rotations: Plain;
        "retry_timeout" => transport.retry_timeout: Exact;
        "hungry_timeout" => session.hungry_timeout: Exact;
        "bulk_blind_delivery" => session.bulk_blind_delivery: Plain;
    }
}

impl ModelCheckConfig {
    /// The words of a dump's `# scenario:` header, one per row of the
    /// table above. [`ModelCheckConfig::read_scenario`] is its inverse,
    /// so a dump replays in the world it was found in.
    pub fn scenario(&self) -> String {
        self.words()
    }

    /// Sets every field the `# scenario:` header of `dump` names, as
    /// [`DUMP`]'s reader does.
    pub fn read_scenario(&mut self, dump: &str) -> std::result::Result<(), String> {
        *self = DUMP.read(dump, self.clone())?.0;
        Ok(())
    }

    /// Rejects a world whose search would pass without checking anything:
    /// one with no member, or a seeded multicast whose origin is not a
    /// member (it would seed nothing). [`ModelWorld::new`] calls it, so
    /// the CLI, `--replay` and every test do.
    pub fn validate(&self) -> Result<()> {
        if self.nodes == 0 {
            return Err(Error::Config("the model world needs at least one member"));
        }
        if self
            .seed_bulk
            .iter()
            .any(|(origin, _)| origin.0 >= self.nodes)
        {
            return Err(Error::Config("a seeded multicast's origin is not a member"));
        }
        Ok(())
    }
}

struct ModelSlot {
    session: SessionNode,
    alive: bool,
    send_seq: u64,
    /// The delivery log. The completeness auditor checks each payload's
    /// length against the submitted one — a node must never deliver an
    /// id whose payload it lacks.
    deliveries: Vec<Delivery>,
}

struct PendingWire {
    dgram: Datagram,
    deadline: Time,
}

/// The model checker's world: a small cluster whose network is the
/// explorer itself. Implements [`AuditView`], so the same auditors run
/// here and over [`Cluster`](crate::Cluster) runs.
pub struct ModelWorld {
    now: Time,
    /// All member ids, in id order. Fixed at founding (the model world
    /// never admits new nodes), so the auditors can borrow it instead of
    /// re-collecting the slot keys on every observation.
    ids: Vec<NodeId>,
    slots: BTreeMap<NodeId, ModelSlot>,
    pending: BTreeMap<MsgKey, PendingWire>,
    max_delay: Duration,
    crashes_left: u32,
    drops_left: u32,
    bulk_drops_left: u32,
    forge_token: bool,
    forged: bool,
    /// Submitted payload length per multicast id (from
    /// [`ModelCheckConfig::seed_bulk`]): what every member must
    /// eventually deliver, byte-for-byte in length.
    expected: BTreeMap<(NodeId, OriginSeq), usize>,
}

/// Deterministic payload for a seeded bulk multicast: a function of the
/// origin and length only, so schedules replay byte-identically.
fn seed_payload(origin: NodeId, len: usize) -> Bytes {
    Bytes::from(vec![0xB0u8 | (origin.0 as u8 & 0x0F); len])
}

impl ModelWorld {
    /// Builds the initial state: `cfg.nodes` members founding one group
    /// at t = 0, with any bootstrap traffic already on the wire.
    pub fn new(cfg: &ModelCheckConfig) -> Result<Self> {
        cfg.validate()?;
        let ids: Vec<NodeId> = (0..cfg.nodes).map(NodeId).collect();
        let ring = Ring::from_iter(ids.iter().copied());
        let peers = PeerTable::full_mesh(ids.iter().copied(), 1);
        let mut session_cfg = cfg.session.clone();
        if session_cfg.eligible.is_empty() {
            session_cfg.eligible = ids.clone();
        }
        let mut world = ModelWorld {
            now: Time::ZERO,
            ids: ids.clone(),
            slots: BTreeMap::new(),
            pending: BTreeMap::new(),
            max_delay: cfg.max_delay,
            crashes_left: cfg.crash_budget,
            drops_left: cfg.drop_budget,
            bulk_drops_left: cfg.bulk_drop_budget,
            forge_token: cfg.forge_token,
            forged: false,
            expected: BTreeMap::new(),
        };
        for &id in &ids {
            let session = SessionNode::new(
                id,
                Incarnation::FIRST,
                session_cfg.clone(),
                cfg.transport.clone(),
                vec![Addr::primary(id)],
                peers.clone(),
                StartMode::Founding(ring.clone()),
                Time::ZERO,
            )?;
            world.slots.insert(
                id,
                ModelSlot {
                    session,
                    alive: true,
                    send_seq: 0,
                    deliveries: Vec::new(),
                },
            );
        }
        for &(origin, len) in &cfg.seed_bulk {
            let Some(slot) = world.slots.get_mut(&origin) else {
                continue;
            };
            let seq = slot
                .session
                .multicast(DeliveryMode::Agreed, seed_payload(origin, len))?;
            world.expected.insert((origin, seq), len);
        }
        for &id in &ids {
            world.drain(id);
        }
        world.maybe_forge();
        world.warm_up(cfg.warm_rotations);
        Ok(world)
    }

    /// Turns the ring undisturbed — the oldest pending message first, the
    /// clock when none is — until every member has seen `rotations`
    /// accept-to-accept intervals.
    fn warm_up(&mut self, rotations: u32) {
        let accepted = |w: &ModelWorld| {
            let accepts = w
                .slots
                .values()
                .map(|s| s.session.metrics().tokens_received);
            accepts.min().unwrap_or(u64::MAX)
        };
        while rotations > 0 && accepted(self) <= u64::from(rotations) {
            let next = self.pending.iter().next();
            let action = next.map_or(Action::Tick, |(&key, p)| Action::Deliver {
                key,
                dst: p.dgram.dst.node,
            });
            if !self.apply(&action) {
                return;
            }
        }
    }

    /// Drains a node's outgoing datagrams onto the model wire and its
    /// session events into the delivery log.
    fn drain(&mut self, id: NodeId) {
        let mut keyed: Vec<(MsgKey, Datagram)> = Vec::new();
        let Some(slot) = self.slots.get_mut(&id) else {
            return;
        };
        while let Some(ev) = slot.session.poll_event() {
            if let SessionEvent::Delivery(d) = ev {
                slot.deliveries.push(d);
            }
        }
        let alive = slot.alive;
        while let Some(d) = slot.session.poll_outgoing() {
            if !alive {
                continue; // a dead node's queued output never hits the wire
            }
            let key = (id, slot.send_seq);
            slot.send_seq += 1;
            keyed.push((key, d));
        }
        let deadline = self.now + self.max_delay;
        for (key, dgram) in keyed {
            // Messages to already-crashed nodes can never be delivered;
            // modeling them would only block the clock.
            if self.slots.get(&dgram.dst.node).is_some_and(|s| s.alive) {
                self.pending.insert(key, PendingWire { dgram, deadline });
            }
        }
    }

    /// Injects the seeded two-token fault once a TOKEN frame is on the
    /// wire (see [`ModelCheckConfig::forge_token`]).
    fn maybe_forge(&mut self) {
        if !self.forge_token || self.forged {
            return;
        }
        let mut forged: Option<(NodeId, Datagram)> = None;
        for p in self.pending.values() {
            let Ok(Frame::Data {
                from,
                inc,
                msg_id,
                frag_index: 0,
                frag_count: 1,
                reliable,
                payload,
            }) = Frame::decode_from_bytes(&p.dgram.payload)
            else {
                continue;
            };
            let Ok(SessionMsg::Token(mut t)) = SessionMsg::decode_from_bytes(&payload) else {
                continue;
            };
            // A forged copy claiming a far-future hop count: any member
            // will accept it as "strictly newer" and start eating.
            t.seq += 1000;
            let target = self
                .slots
                .iter()
                .filter(|(id, s)| s.alive && **id != p.dgram.dst.node)
                .map(|(id, _)| *id)
                .next();
            let Some(target) = target else { continue };
            let frame = Frame::Data {
                from,
                inc,
                msg_id: MsgId(msg_id.0 + (1 << 32)),
                frag_index: 0,
                frag_count: 1,
                reliable,
                payload: SessionMsg::Token(t).encode_to_bytes(),
            };
            forged = Some((
                from,
                Datagram {
                    src: p.dgram.src,
                    dst: Addr::primary(target),
                    class: PacketClass::Control,
                    payload: frame.encode_to_bytes(),
                },
            ));
            break;
        }
        if let Some((from, dgram)) = forged {
            let key = {
                let Some(slot) = self.slots.get_mut(&from) else {
                    return;
                };
                let key = (from, slot.send_seq);
                slot.send_seq += 1;
                key
            };
            let deadline = self.now + self.max_delay;
            self.pending.insert(key, PendingWire { dgram, deadline });
            self.forged = true;
        }
    }

    /// The earliest instant any live node's protocol timer fires — if
    /// the clock may go there. Bounded delay: it may not advance past a
    /// pending message's deadline; that message must be delivered or
    /// dropped first.
    fn tick_target(&self) -> Option<Time> {
        let live = self.slots.values().filter(|s| s.alive);
        let target = live.filter_map(|s| s.session.next_wakeup()).min()?;
        let target = target.max(self.now);
        let blocked = self.pending.values().any(|p| p.deadline < target);
        (!blocked).then_some(target)
    }

    /// All actions enabled in this state, in deterministic order.
    pub fn enabled_actions(&self) -> Vec<Action> {
        let mut out = Vec::new();
        for (&key, p) in &self.pending {
            out.push(Action::Deliver {
                key,
                dst: p.dgram.dst.node,
            });
        }
        if self.drops_left > 0 {
            for &key in self.pending.keys() {
                out.push(Action::Drop { key });
            }
        }
        if self.bulk_drops_left > 0 {
            for (&key, p) in &self.pending {
                if is_bulk_frame(&p.dgram.payload) {
                    out.push(Action::DropBulk { key });
                }
            }
        }
        if self.tick_target().is_some() {
            out.push(Action::Tick);
        }
        // Crashes come last: DFS explores actions in this order, and the
        // crash subtrees are by far the largest. Listing protocol
        // progress (deliveries, time) first means planted faults are
        // found within a small schedule budget even at 5–6 nodes,
        // instead of after exhausting every crash interleaving.
        if self.crashes_left > 0 {
            for (&id, slot) in &self.slots {
                if slot.alive {
                    out.push(Action::Crash(id));
                }
            }
        }
        out
    }

    /// Applies one action. Returns false (and changes nothing) if the
    /// action is not enabled — replay of minimized schedules relies on
    /// skipped actions being harmless.
    pub fn apply(&mut self, action: &Action) -> bool {
        match *action {
            Action::Deliver { key, dst } => {
                let Some(p) = self.pending.remove(&key) else {
                    return false;
                };
                let real_dst = p.dgram.dst.node;
                let now = self.now;
                let Some(slot) = self.slots.get_mut(&real_dst) else {
                    return false;
                };
                if !slot.alive || real_dst != dst {
                    return false;
                }
                slot.session.on_datagram(now, p.dgram);
                self.drain(real_dst);
            }
            Action::Drop { key } => {
                if self.drops_left == 0 || self.pending.remove(&key).is_none() {
                    return false;
                }
                self.drops_left -= 1;
            }
            Action::DropBulk { key } => {
                if self.bulk_drops_left == 0 {
                    return false;
                }
                // Only an actual bulk payload frame may be targeted; a
                // stale schedule entry naming something else is skipped.
                if !self
                    .pending
                    .get(&key)
                    .is_some_and(|p| is_bulk_frame(&p.dgram.payload))
                {
                    return false;
                }
                self.pending.remove(&key);
                self.bulk_drops_left -= 1;
            }
            Action::Crash(id) => {
                if self.crashes_left == 0 {
                    return false;
                }
                let Some(slot) = self.slots.get_mut(&id) else {
                    return false;
                };
                if !slot.alive {
                    return false;
                }
                slot.alive = false;
                self.crashes_left -= 1;
                self.pending.retain(|_, p| p.dgram.dst.node != id);
            }
            Action::Tick => {
                let Some(target) = self.tick_target() else {
                    return false;
                };
                self.now = target;
                let ids: Vec<NodeId> = self.slots.keys().copied().collect();
                for id in ids {
                    let Some(slot) = self.slots.get_mut(&id) else {
                        continue;
                    };
                    // The simulator's stepping rule: only the members due.
                    let due = slot.session.next_wakeup().is_some_and(|t| t <= target);
                    if !slot.alive || !due {
                        continue;
                    }
                    slot.session.on_tick(target);
                    self.drain(id);
                }
            }
        }
        self.maybe_forge();
        true
    }

    /// Number of messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Token passes so far that the pacing rule released early
    /// (DESIGN.md §16), over all nodes.
    pub fn early_passes(&self) -> u64 {
        self.slots
            .values()
            .map(|s| s.session.metrics().tokens_passed_early)
            .sum()
    }

    /// Successor probes sent so far (DESIGN.md §17.3), over all nodes.
    pub fn probes(&self) -> u64 {
        let sent = self.slots.values().map(|s| s.session.metrics().probes_sent);
        sent.sum()
    }

    /// Digests the complete world state — every node (session + embedded
    /// transport), the in-flight wire, and the fault budgets. Absolute
    /// time is deliberately excluded: every deadline is digested relative
    /// to `now`, so time-shifted copies of the same state merge.
    pub fn digest_state(&self, d: &mut StateDigest) {
        d.write_u32(self.crashes_left);
        d.write_u32(self.drops_left);
        d.write_u32(self.bulk_drops_left);
        d.write_bool(self.forged);
        let mut ids: Vec<NodeId> = self.slots.keys().copied().collect();
        ids.sort_unstable();
        d.write_len(ids.len());
        for id in ids {
            let slot = &self.slots[&id];
            d.node(id);
            d.write_bool(slot.alive);
            d.write_len(slot.deliveries.len());
            for delivery in &slot.deliveries {
                d.node(delivery.origin);
                delivery.seq.digest_into(d);
                d.write_u64(delivery.payload.len() as u64);
            }
            // A crashed slot can never act again — it is not ticked, its
            // queued output is discarded and pending traffic to it is
            // dropped — and the auditors read nothing from it beyond the
            // delivery log digested above. Its frozen internals (send
            // counter, session history) are unreachable state, so
            // excluding them is sound and is what lets two worlds that
            // differ only in *which* id crashed actually merge.
            if slot.alive {
                d.write_u64(slot.send_seq);
                slot.session.digest_into(self.now, d);
            }
        }
        let mut keys: Vec<MsgKey> = self.pending.keys().copied().collect();
        keys.sort_unstable();
        d.write_len(keys.len());
        for key in keys {
            let p = &self.pending[&key];
            d.node(key.0);
            d.write_u64(key.1);
            d.time_rel(p.deadline, self.now);
            d.node(p.dgram.src.node);
            d.write_u8(p.dgram.src.nic);
            d.node(p.dgram.dst.node);
            d.write_u8(p.dgram.dst.nic);
            d.write_u8(matches!(p.dgram.class, PacketClass::Data) as u8);
            d.wire_payload(&p.dgram.payload);
        }
    }

    /// Canonical 128-bit fingerprint of the world plus the
    /// path-dependent membership-auditor continuity state (see
    /// [`MembershipAuditor::digest_into`]).
    pub fn fingerprint(&self, membership: &MembershipAuditor) -> Fingerprint {
        let mut d = StateDigest::identity();
        self.digest_state(&mut d);
        membership.digest_into(&mut d);
        d.finish()
    }

    /// One-screen diagnostic snapshot (same format as `Cluster::dump_state`).
    pub fn dump_state(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "t = {} ({} in flight)", self.now, self.pending.len());
        for (id, slot) in &self.slots {
            let s = &slot.session;
            let _ = writeln!(
                out,
                "  {id}: {}{} {:?} group={} copy_seq={} regens={}",
                if slot.alive { "" } else { "DEAD " },
                s.state_name(),
                s.ring(),
                s.group_id(),
                s.last_copy_seq(),
                s.metrics().regenerations,
            );
        }
        out
    }
}

impl AuditView for ModelWorld {
    fn now(&self) -> Time {
        self.now
    }

    fn member_ids(&self) -> &[NodeId] {
        &self.ids
    }

    fn is_live(&self, id: NodeId) -> bool {
        self.slots
            .get(&id)
            .is_some_and(|s| s.alive && !s.session.is_down())
    }

    fn is_eating(&self, id: NodeId) -> bool {
        self.slots
            .get(&id)
            .is_some_and(|s| s.alive && s.session.is_eating())
    }

    fn group_of(&self, id: NodeId) -> Option<GroupId> {
        self.slots.get(&id).map(|s| s.session.group_id())
    }

    fn ring_of(&self, id: NodeId) -> Option<&Ring> {
        self.slots.get(&id).map(|s| s.session.ring())
    }

    fn last_copy_seq(&self, id: NodeId) -> u64 {
        self.slots.get(&id).map_or(0, |s| s.session.last_copy_seq())
    }

    fn regenerations(&self, id: NodeId) -> u64 {
        self.slots
            .get(&id)
            .map_or(0, |s| s.session.metrics().regenerations)
    }

    fn delivery_log(&self, id: NodeId, from: usize) -> impl Iterator<Item = Delivered> + '_ {
        let log = self.slots.get(&id).and_then(|s| s.deliveries.get(from..));
        let log = log.unwrap_or_default();
        log.iter().map(|d| (d.origin, d.seq, Some(d.payload.len())))
    }

    fn expected_payload_len(&self, origin: NodeId, seq: OriginSeq) -> Option<usize> {
        self.expected.get(&(origin, seq)).copied()
    }
}

/// The model checker's dump ([`crate::dump`]): its world is the
/// `# scenario:` line, the rows above.
pub const DUMP: Format<ModelCheckConfig, Action> = Format {
    name: "model-check",
    key: "scenario",
    bin: "model_check",
    types: PhantomData,
};

/// Outcome of replaying one schedule from the initial state.
pub struct Replay {
    /// The final world (state after the last applied action).
    pub world: ModelWorld,
    /// The auditors as of the final state.
    pub auditors: Auditors,
    /// `Some((actions_applied, reason))` if a violation was observed;
    /// replay stops at the first violation.
    pub violation: Option<(usize, String)>,
    /// How many schedule entries actually applied (disabled ones skip).
    pub applied: usize,
}

/// Replays `schedule` from the initial state of `cfg`, auditing after
/// every applied action. Disabled actions are skipped, which keeps
/// replay meaningful for minimized (sub-)schedules.
pub fn replay(cfg: &ModelCheckConfig, schedule: &[Action]) -> Result<Replay> {
    let mut world = ModelWorld::new(cfg)?;
    let mut auditors = Auditors::new();
    let mut applied = 0usize;
    auditors.observe(&world);
    let mut violation = auditors.first_violation().map(|r| (0, r));
    if violation.is_none() {
        for a in schedule {
            if !world.apply(a) {
                continue;
            }
            applied += 1;
            auditors.observe(&world);
            if let Some(r) = auditors.first_violation() {
                violation = Some((applied, r));
                break;
            }
        }
    }
    Ok(Replay {
        world,
        auditors,
        violation,
        applied,
    })
}

impl Replay {
    /// The verdict a dump of this replay states; `None` if it ran clean.
    pub fn verdict(&self) -> Option<Verdict> {
        let (_, reason) = self.violation.as_ref()?;
        Some(Verdict {
            reason: reason.clone(),
            tick: None,
        })
    }
}

/// Counters describing one exploration run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExploreStats {
    /// Complete schedules explored (leaves of the search tree).
    pub schedules: u64,
    /// States visited (internal nodes + leaves).
    pub states: u64,
    /// Branches skipped by sleep-set pruning.
    pub pruned: u64,
    /// Subtrees skipped because a dominating visit of the same canonical
    /// state was already in the cache ([`Reduction::Hash`]).
    pub states_pruned: u64,
    /// Total actions applied across all replays.
    pub actions: u64,
    /// Deepest schedule reached.
    pub deepest: usize,
    /// Most early token passes ([`ModelWorld::early_passes`]) along any
    /// explored schedule: zero means the search never left the paced
    /// regime, so it says nothing about the pacing rule.
    pub early_passes: u64,
    /// Most successor probes ([`ModelWorld::probes`]) along any explored
    /// schedule: zero means no member was ever hungry past its probe
    /// limit, so the search says nothing about the probe.
    pub probes: u64,
}

/// Result of [`Explorer::run`].
#[derive(Debug)]
pub struct ExploreReport {
    /// Search counters.
    pub stats: ExploreStats,
    /// The first violation found, if any, shrunk ([`dump::shrink`]).
    pub violation: Option<Found<Action>>,
    /// True if the search stopped at [`ModelCheckConfig::max_schedules`]
    /// rather than exhausting the bounded space.
    pub capped: bool,
}

/// Subset test over two sorted action lists (linear merge walk).
fn sorted_subset(sub: &[Action], sup: &[Action]) -> bool {
    let mut it = sup.iter();
    sub.iter().all(|a| it.any(|b| b == a))
}

/// One remembered visit of a canonical state: how much search the visit
/// already performed. A new arrival at the same fingerprint may be
/// pruned only by a *dominating* entry — one that had at least as much
/// depth left **and** at most as large a sleep set (a bigger sleep set
/// explores fewer successors, so it covers less).
struct VisitedEntry {
    remaining: usize,
    sleep: Vec<Action>,
}

/// Depth-first schedule explorer with sleep-set pruning and (optional)
/// canonical-state caching.
pub struct Explorer {
    cfg: ModelCheckConfig,
    stats: ExploreStats,
    violation: Option<Found<Action>>,
    capped: bool,
    registry: raincore_obs::Registry,
    visited: HashMap<Fingerprint, Vec<VisitedEntry>>,
}

impl Explorer {
    /// Creates an explorer for the given scenario.
    pub fn new(cfg: ModelCheckConfig) -> Self {
        Explorer {
            cfg,
            stats: ExploreStats::default(),
            violation: None,
            capped: false,
            registry: raincore_obs::Registry::new(),
            visited: HashMap::new(),
        }
    }

    /// The metric registry holding `raincore_mc_*` counters.
    pub fn registry(&self) -> &raincore_obs::Registry {
        &self.registry
    }

    /// Runs the bounded exhaustive search. Stops at the first violation
    /// (minimizing it) or when the schedule cap is reached.
    pub fn run(&mut self) -> Result<ExploreReport> {
        let mut prefix = Vec::new();
        self.dfs(&mut prefix, &BTreeSet::new())?;
        self.registry
            .counter("raincore_mc_schedules_total", &[])
            .add(self.stats.schedules);
        self.registry
            .counter("raincore_mc_states_total", &[])
            .add(self.stats.states);
        self.registry
            .counter("raincore_mc_pruned_total", &[])
            .add(self.stats.pruned);
        self.registry
            .counter("raincore_mc_states_pruned_total", &[])
            .add(self.stats.states_pruned);
        self.registry
            .counter("raincore_mc_actions_total", &[])
            .add(self.stats.actions);
        self.registry
            .counter("raincore_mc_violations_total", &[])
            .add(u64::from(self.violation.is_some()));
        Ok(ExploreReport {
            stats: self.stats,
            violation: self.violation.clone(),
            capped: self.capped,
        })
    }

    /// Explores all schedules extending `prefix`. Returns true to stop
    /// the whole search (violation found or cap reached).
    fn dfs(&mut self, prefix: &mut Vec<Action>, sleep: &BTreeSet<Action>) -> Result<bool> {
        if self.stats.schedules >= self.cfg.max_schedules {
            self.capped = true;
            return Ok(true);
        }
        // Stateless search: rebuild the state by replaying the prefix
        // (SessionNode is deliberately not Clone).
        let r = replay(&self.cfg, prefix)?;
        self.stats.states += 1;
        self.stats.actions += r.applied as u64;
        self.stats.deepest = self.stats.deepest.max(prefix.len());
        self.stats.early_passes = self.stats.early_passes.max(r.world.early_passes());
        self.stats.probes = self.stats.probes.max(r.world.probes());
        if let Some((upto, _)) = r.violation {
            self.stats.schedules += 1;
            // The replays the shrink takes are counted into the stats.
            let (cfg, stats) = (&self.cfg, &mut self.stats);
            let found = dump::shrink(&prefix[..upto], true, |s| {
                let r = replay(cfg, s)?;
                stats.actions += r.applied as u64;
                Ok((r.verdict(), ()))
            })?;
            self.violation = Some(found);
            return Ok(true);
        }
        if prefix.len() >= self.cfg.max_depth {
            self.stats.schedules += 1;
            return Ok(false);
        }
        // Canonical-state cache (after the violation check, so this
        // state itself has been audited). Prune only under a dominating
        // prior visit: one with at least as much remaining depth and a
        // sleep set no larger than ours — it explored a superset of the
        // traces this call would.
        if self.cfg.reduction != Reduction::None {
            // A `BTreeSet` iterates in order, which `sorted_subset` needs.
            let sleep_sorted: Vec<Action> = sleep.iter().copied().collect();
            let fp = r.world.fingerprint(&r.auditors.membership);
            let remaining = self.cfg.max_depth - prefix.len();
            let entries = self.visited.entry(fp).or_default();
            if entries
                .iter()
                .any(|e| e.remaining >= remaining && sorted_subset(&e.sleep, &sleep_sorted))
            {
                self.stats.states_pruned += 1;
                // The skipped subtree collapses into one counted
                // schedule so `max_schedules` keeps bounding the search.
                self.stats.schedules += 1;
                return Ok(false);
            }
            // This visit is about to explore; drop entries it dominates.
            entries
                .retain(|e| !(e.remaining <= remaining && sorted_subset(&sleep_sorted, &e.sleep)));
            entries.push(VisitedEntry {
                remaining,
                sleep: sleep_sorted,
            });
        }
        let enabled = r.world.enabled_actions();
        drop(r);
        if enabled.is_empty() {
            self.stats.schedules += 1;
            return Ok(false);
        }
        let mut sleep_here: BTreeSet<Action> = sleep.clone();
        let mut explored_any = false;
        for a in enabled {
            if sleep_here.contains(&a) {
                self.stats.pruned += 1;
                continue;
            }
            explored_any = true;
            let child_sleep: BTreeSet<Action> = sleep_here
                .iter()
                .filter(|b| independent(&a, b))
                .cloned()
                .collect();
            prefix.push(a);
            let stop = self.dfs(prefix, &child_sleep)?;
            prefix.pop();
            if stop {
                return Ok(true);
            }
            sleep_here.insert(a);
        }
        if !explored_any {
            // Every enabled action was asleep: this trace was already
            // covered through a commuting permutation.
            self.stats.schedules += 1;
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_round_trips_through_text() {
        let actions = vec![
            Action::Tick,
            Action::Crash(NodeId(2)),
            Action::Drop {
                key: (NodeId(0), 7),
            },
            Action::DropBulk {
                key: (NodeId(1), 4),
            },
            Action::Deliver {
                key: (NodeId(1), 3),
                dst: NodeId(2),
            },
        ];
        for a in actions {
            let s = a.to_string();
            assert_eq!(s.parse::<Action>().unwrap(), a, "{s}");
        }
        for bad in [
            "explode n1",
            "tick n1",
            "crash",
            "drop n0",
            "deliver n0#1",
            "deliver n0#1->",
        ] {
            assert!(bad.parse::<Action>().is_err(), "{bad} was accepted");
        }
    }

    #[test]
    fn schedule_dump_round_trips() {
        let verdict = Verdict {
            reason: "test".into(),
            tick: None,
        };
        let steps = vec![
            Action::Tick,
            Action::Deliver {
                key: (NodeId(0), 0),
                dst: NodeId(1),
            },
        ];
        let cfg = ModelCheckConfig::default();
        let (_, reason, read) = DUMP
            .read(&DUMP.render(&cfg, &verdict, &steps), cfg)
            .unwrap();
        assert_eq!((reason.as_deref(), read), (Some("test"), steps));
    }

    #[test]
    fn initial_world_is_quiet_and_auditable() {
        let cfg = ModelCheckConfig::default();
        let world = ModelWorld::new(&cfg).unwrap();
        let mut auditors = Auditors::new();
        auditors.observe(&world);
        assert!(auditors.first_violation().is_none());
        assert_eq!(world.member_ids().len(), 3);
        // The founding node eats immediately; nobody else does.
        assert_eq!(
            world
                .member_ids()
                .iter()
                .filter(|&&id| world.is_eating(id))
                .count(),
            1
        );
    }

    #[test]
    fn tick_respects_pending_deadlines() {
        let cfg = ModelCheckConfig::default();
        let mut world = ModelWorld::new(&cfg).unwrap();
        // Advance until something is in flight (the first token pass).
        let mut guard = 0;
        while world.in_flight() == 0 {
            assert!(world.apply(&Action::Tick), "{}", world.dump_state());
            guard += 1;
            assert!(guard < 100, "no traffic after 100 ticks");
        }
        // With a message in flight whose deadline (now + 5 ms) precedes
        // every protocol timer ≥ 10 ms away, tick must be disabled.
        let enabled = world.enabled_actions();
        assert!(
            !enabled.contains(&Action::Tick),
            "tick offered past a pending deadline: {enabled:?}"
        );
        assert!(enabled.iter().any(|a| matches!(a, Action::Deliver { .. })));
    }

    #[test]
    fn exploration_without_faults_is_clean() {
        let cfg = ModelCheckConfig {
            crash_budget: 0,
            drop_budget: 0,
            max_depth: 10,
            max_schedules: 5_000,
            ..Default::default()
        };
        let report = Explorer::new(cfg).run().unwrap();
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.stats.schedules > 0);
        assert!(report.stats.states >= report.stats.schedules);
    }
}
