//! Per-node observability state: trace journal + latency histograms.
//!
//! [`NodeObs`] lives inside every [`crate::SessionNode`] and is written on
//! the protocol hot paths (token accept/forward, 911, merge, delivery). It
//! measures the quantities the paper's evaluation (§4) reports —
//! token-rotation period, HUNGRY→EATING wait, 911 recovery duration,
//! multicast submit→deliver / submit→atomic latency — as log₂-bucketed
//! histograms, and records the causal event trail in a bounded
//! [`TraceJournal`] for post-mortems.
//!
//! The histograms are shareable handles (`Histogram::clone` shares the
//! buckets), so a harness can attach them to a [`raincore_obs::Registry`]
//! once and thereafter read percentiles without touching the node.

use raincore_obs::{
    FlightRecorder, Histogram, OutageStage, OutageTracker, RecKind, Registry, Stage, StageClock,
    StageHists, TraceJournal, TraceKind,
};
use raincore_types::{DeliveryMode, IdMap, OriginSeq, Time, TraceCtx};

/// Stage timestamps of the hop currently moving through the node.
///
/// `b0..b3` are sampled on the receive side (datagram arrival, payload in
/// hand, decoded, protocol accepted), `pass`/`encoded` on the send side.
/// With no [`StageClock`] injected every sample reads 0 and the emitted
/// span carries zero durations — causality (circ/hop/parent) is intact.
#[derive(Debug, Default, Clone, Copy)]
struct PendingHop {
    ctx: TraceCtx,
    arrival_ns: u64,
    payload_ns: u64,
    decoded_ns: u64,
    accepted_ns: u64,
}

/// Observability side-car for one session node.
#[derive(Debug)]
pub struct NodeObs {
    node: u32,
    journal: TraceJournal,
    /// Interval between consecutive token accepts (the rotation period).
    pub token_rotation: Histogram,
    /// HUNGRY→EATING wait.
    pub hungry_wait: Histogram,
    /// STARVING→regenerated duration (911 recovery, §2.3).
    pub recovery_911: Histogram,
    /// Multicast submit→local delivery, agreed mode.
    pub submit_to_deliver_agreed: Histogram,
    /// Multicast submit→local delivery, safe mode.
    pub submit_to_deliver_safe: Histogram,
    /// Multicast submit→atomicity confirmation, agreed mode.
    pub submit_to_atomic_agreed: Histogram,
    /// Multicast submit→atomicity confirmation, safe mode.
    pub submit_to_atomic_safe: Histogram,
    /// Token accepted → pass begun: how long each token was held. The
    /// interval the hop stages leave out; `token_hold` when the token had
    /// room, next to nothing when the pacing rule released it.
    pub token_hold: Histogram,
    /// Size in bytes of each encoded outgoing token wire image.
    pub token_encode_bytes: Histogram,
    /// Per-stage hop-latency histograms (recv/decode/protocol/encode/send).
    pub hop_stages: StageHists,
    /// The fail-over budget: every outage this node repaired (a dead
    /// successor skipped, a lost token regenerated), one histogram per
    /// [`OutageStage`] in [`OutageStage::ALL`] order. The stages of one
    /// outage add up to the gap between deliveries it cost here.
    pub outage_stages: [Histogram; 6],
    /// Derives the stages from the events as they are journalled.
    outage: OutageTracker,
    /// Latest time observed by the node (updated on every tick/datagram),
    /// so paths without a `now` parameter (e.g. `multicast`) can stamp.
    clock: Time,
    last_eating: Option<Time>,
    starving_since: Option<Time>,
    /// Submission times of this node's own in-flight multicasts.
    submits: IdMap<OriginSeq, (DeliveryMode, Time)>,
    /// Injected monotonic stage clock (`None` in the deterministic sim:
    /// stage durations read 0, causal structure stays complete).
    stage_clock: Option<StageClock>,
    /// Shared flight recorder, when the harness attached one.
    recorder: Option<FlightRecorder>,
    /// Receive-side samples of the hop currently in flight.
    pending: Option<PendingHop>,
    /// Send-side samples: pass-begin and post-encode stamps.
    pass_begin_ns: u64,
    encoded_ns: u64,
    /// How long the token being passed was held, and — if the pacing
    /// rule cut that hold short — the freight that released it.
    held_ns: u64,
    released_by: Option<usize>,
    /// Trace context of the last hop this node accepted — the causal
    /// suspect quoted by STARVING/911/membership events.
    last_ctx: TraceCtx,
}

impl NodeObs {
    pub(crate) fn new(node: u32, now: Time) -> Self {
        NodeObs {
            node,
            journal: TraceJournal::default(),
            token_rotation: Histogram::new(),
            hungry_wait: Histogram::new(),
            recovery_911: Histogram::new(),
            submit_to_deliver_agreed: Histogram::new(),
            submit_to_deliver_safe: Histogram::new(),
            submit_to_atomic_agreed: Histogram::new(),
            submit_to_atomic_safe: Histogram::new(),
            token_hold: Histogram::new(),
            token_encode_bytes: Histogram::new(),
            hop_stages: StageHists::new(),
            outage_stages: Default::default(),
            outage: OutageTracker::default(),
            clock: now,
            last_eating: None,
            starving_since: None,
            submits: IdMap::default(),
            stage_clock: None,
            recorder: None,
            pending: None,
            pass_begin_ns: 0,
            encoded_ns: 0,
            held_ns: 0,
            released_by: None,
            last_ctx: TraceCtx::default(),
        }
    }

    /// The recorded protocol event trail.
    pub fn journal(&self) -> &TraceJournal {
        &self.journal
    }

    /// Latest time the node has observed.
    pub fn now(&self) -> Time {
        self.clock
    }

    /// Injects a monotonic nanosecond clock for stage sampling. Drivers
    /// that own real time (the UDP runtime, the bench harness) call this;
    /// the deterministic simulator does not, keeping runs reproducible.
    pub fn set_stage_clock(&mut self, clock: StageClock) {
        self.stage_clock = Some(clock);
    }

    /// Attaches a shared flight recorder; protocol moments are mirrored
    /// into it from then on.
    pub fn set_recorder(&mut self, recorder: FlightRecorder) {
        self.recorder = Some(recorder);
    }

    /// The attached flight recorder, if any.
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_ref()
    }

    /// Trace context of the last token hop this node accepted.
    pub fn last_trace(&self) -> TraceCtx {
        self.last_ctx
    }

    fn stage_ns(&self) -> u64 {
        self.stage_clock.as_ref().map_or(0, StageClock::now_ns)
    }

    fn flight(&self, kind: RecKind, circ: u64, hop: u64, a: u64, b: u64) {
        if let Some(rec) = &self.recorder {
            rec.record(self.clock.as_nanos(), self.node, kind, circ, hop, a, b);
        }
    }

    // ------------------------------------------------------------------
    // Hooks called from the protocol state machine
    // ------------------------------------------------------------------

    pub(crate) fn tick(&mut self, now: Time) {
        self.clock = self.clock.max(now);
    }

    // --- hop stage sampling (b0..b5 of one token pass) ----------------

    /// b0: a datagram arrived (may or may not turn out to be a token).
    pub(crate) fn hop_arrival(&mut self) {
        self.pending = Some(PendingHop {
            arrival_ns: self.stage_ns(),
            ..PendingHop::default()
        });
    }

    /// b1: payload in hand, about to decode the session message.
    pub(crate) fn hop_payload(&mut self) {
        let ns = self.stage_ns();
        if let Some(p) = &mut self.pending {
            p.payload_ns = ns;
        }
    }

    /// b2: the payload decoded to a token (non-token payloads never get
    /// here; their pending sample dies on the next arrival).
    pub(crate) fn hop_decoded(&mut self) {
        let ns = self.stage_ns();
        if let Some(p) = &mut self.pending {
            p.decoded_ns = ns;
        }
    }

    /// b3: the protocol accepted the hop (EATING). Pins the trace context
    /// the eventual span is emitted under.
    pub(crate) fn hop_accepted(&mut self, ctx: TraceCtx) {
        let ns = self.stage_ns();
        self.last_ctx = ctx;
        if let Some(p) = &mut self.pending {
            p.ctx = ctx;
            p.accepted_ns = ns;
        }
        self.flight(RecKind::HopRecv, ctx.circ, ctx.hop, ctx.parent, 0);
    }

    /// b3': pass-side work begins (the EATING→pass boundary). Hold time
    /// between b3 and here is deliberately *not* a stage — it is pacing,
    /// not pipeline — and is recorded on its own. `released_by`: the
    /// freight on which the pacing rule released this hold, if it did
    /// (marks the hop's span when it is sent).
    pub(crate) fn hop_pass_begin(&mut self, released_by: Option<usize>) {
        self.pass_begin_ns = self.stage_ns();
        self.released_by = released_by;
        self.held_ns = self
            .last_eating
            .map_or(0, |at| self.clock.since(at).as_nanos());
        self.token_hold.record(self.held_ns);
    }

    /// b4: the outgoing wire image is encoded.
    pub(crate) fn hop_encoded(&mut self) {
        self.encoded_ns = self.stage_ns();
    }

    /// b5: the transport took the datagram — the hop is complete. Emits
    /// the `HopSpan` under the *outgoing* trace context (`ctx` is the
    /// header as sent, i.e. after the hop bump), records per-stage
    /// histograms and mirrors a `HopSend` flight record.
    pub(crate) fn hop_sent(&mut self, ctx: TraceCtx) {
        let send_end = self.stage_ns();
        let p = self.pending.take().unwrap_or_default();
        let d = |a: u64, b: u64| b.saturating_sub(a);
        let stages = [
            d(p.arrival_ns, p.payload_ns),
            d(p.payload_ns, p.decoded_ns),
            d(p.decoded_ns, p.accepted_ns),
            d(self.pass_begin_ns, self.encoded_ns),
            d(self.encoded_ns, send_end),
        ];
        for (stage, ns) in Stage::ALL.iter().zip(stages) {
            self.hop_stages.record(*stage, ns);
        }
        self.trace(TraceKind::HopSpan {
            circ: ctx.circ,
            hop: ctx.hop,
            parent: ctx.parent,
            recv_ns: stages[0],
            decode_ns: stages[1],
            protocol_ns: stages[2],
            encode_ns: stages[3],
            send_ns: stages[4],
        });
        self.flight(
            RecKind::HopSend,
            ctx.circ,
            ctx.hop,
            ctx.parent,
            stages.iter().sum(),
        );
        if let Some(load) = self.released_by.take() {
            self.trace(TraceKind::EarlyPass {
                circ: ctx.circ,
                hop: ctx.hop,
                held_ns: self.held_ns,
                load: load as u64,
            });
        }
        self.last_ctx = ctx;
    }

    /// A regeneration or merge minted circulation `new_ctx` causally
    /// after `parent_ctx`'s last hop.
    pub(crate) fn hop_minted(&mut self, parent_ctx: TraceCtx, new_ctx: TraceCtx) {
        self.trace(TraceKind::CauseRegen {
            circ: parent_ctx.circ,
            hop: parent_ctx.hop,
            new_circ: new_ctx.circ,
        });
        self.flight(
            RecKind::Regen,
            parent_ctx.circ,
            parent_ctx.hop,
            new_ctx.circ,
            new_ctx.hop,
        );
        self.last_ctx = new_ctx;
    }

    /// Membership changed on the hop carried by `ctx`.
    pub(crate) fn member_changed(&mut self, ctx: TraceCtx, member: u32, added: bool) {
        self.trace(TraceKind::CauseMember {
            circ: ctx.circ,
            hop: ctx.hop,
            member,
            added,
        });
        self.flight(
            RecKind::Member,
            ctx.circ,
            ctx.hop,
            u64::from(member),
            u64::from(added),
        );
    }

    pub(crate) fn trace(&mut self, kind: TraceKind) {
        let t_ns = self.clock.as_nanos();
        if let Some(row) = self.outage.on_event(t_ns, self.node, &kind) {
            for (h, ns) in self.outage_stages.iter().zip(row.stages) {
                h.record(ns);
            }
        }
        self.journal.push(t_ns, self.node, kind);
    }

    /// Token accepted (EATING). Records rotation period and hungry wait.
    pub(crate) fn token_accepted(&mut self, seq: u64, hop: u64, members: u64, since: Option<Time>) {
        let now = self.clock;
        if let Some(prev) = self.last_eating {
            self.token_rotation.record(now.since(prev).as_nanos());
        }
        self.last_eating = Some(now);
        let waited_ns = since.map_or(0, |s| now.since(s).as_nanos());
        if since.is_some() {
            self.hungry_wait.record(waited_ns);
        }
        self.starving_since = None;
        self.trace(TraceKind::TokenRx {
            seq,
            hop,
            members,
            waited_ns,
        });
    }

    /// Entered STARVING (first time for this incident only). Links the
    /// incident to the last hop this node observed — the causal suspect
    /// for the missing token.
    pub(crate) fn starving(&mut self) {
        if self.starving_since.is_none() {
            self.starving_since = Some(self.clock);
            let ctx = self.last_ctx;
            self.trace(TraceKind::CauseStarving {
                circ: ctx.circ,
                hop: ctx.hop,
            });
            self.flight(RecKind::Starving, ctx.circ, ctx.hop, 0, 0);
        }
    }

    /// Node shut down (voluntary leave or kill).
    pub(crate) fn shut_down(&mut self) {
        self.trace(TraceKind::ShutDown);
        let ctx = self.last_ctx;
        self.flight(RecKind::Shutdown, ctx.circ, ctx.hop, 0, 0);
    }

    /// A 911 call went out under request id `req_id`; links it to the
    /// last observed hop.
    pub(crate) fn called_911(&mut self, req_id: u64, last_seq: u64) {
        let ctx = self.last_ctx;
        self.trace(TraceKind::Cause911 {
            circ: ctx.circ,
            hop: ctx.hop,
            req_id,
        });
        self.flight(RecKind::Call911, ctx.circ, ctx.hop, req_id, last_seq);
    }

    /// No longer starving without having regenerated (a Deny verdict sent
    /// us back to HUNGRY, or a token simply arrived).
    pub(crate) fn starving_resolved(&mut self) {
        self.starving_since = None;
    }

    /// Won the 911 vote and regenerated the token carrying `seq`.
    pub(crate) fn recovered(&mut self, seq: u64) {
        let duration_ns = self
            .starving_since
            .take()
            .map_or(0, |s| self.clock.since(s).as_nanos());
        self.recovery_911.record(duration_ns);
        self.trace(TraceKind::Recovered911 { duration_ns, seq });
    }

    /// Application submitted a multicast.
    pub(crate) fn submitted(&mut self, seq: OriginSeq, mode: DeliveryMode) {
        self.submits.insert(seq, (mode, self.clock));
    }

    /// One of our own multicasts was delivered locally.
    pub(crate) fn own_delivered(&mut self, seq: OriginSeq) {
        if let Some(&(mode, at)) = self.submits.get(&seq) {
            let lat = self.clock.since(at).as_nanos();
            match mode {
                DeliveryMode::Agreed => self.submit_to_deliver_agreed.record(lat),
                DeliveryMode::Safe => self.submit_to_deliver_safe.record(lat),
            }
        }
    }

    /// One of our own multicasts became atomic (retired from the token).
    pub(crate) fn own_atomic(&mut self, seq: OriginSeq) {
        if let Some((mode, at)) = self.submits.remove(&seq) {
            let lat = self.clock.since(at).as_nanos();
            match mode {
                DeliveryMode::Agreed => self.submit_to_atomic_agreed.record(lat),
                DeliveryMode::Safe => self.submit_to_atomic_safe.record(lat),
            }
        }
        self.trace(TraceKind::AtomicRetired { seq: seq.0 });
    }
}

impl crate::SessionNode {
    /// Exports this node into `r` under the label `node="<id>"`: session,
    /// transport and trace-health counters, the point-in-time protocol
    /// status as gauges (enough for an out-of-process auditor to rebuild
    /// its view of the node), and every latency histogram the layers
    /// record natively. This is the one export both drivers — the UDP
    /// runtime and the simulator — call.
    ///
    /// Counters are mirrored by delta, so the same call serves a fresh
    /// registry and a long-lived one, where they stay monotonic even
    /// across a node restart (which zeroes the node-local snapshot; the
    /// delta is then simply 0 for a while). Histograms are attached by
    /// handle: they share their buckets with the node and are always live.
    pub fn export_into(&self, r: &Registry) {
        let node = self.id().0.to_string();
        let labels: &[(&str, &str)] = &[("node", node.as_str())];
        let mirror = |name: &str, v: u64| {
            let c = r.counter(name, labels);
            c.add(v.saturating_sub(c.get()));
        };
        for (name, v) in self.metrics().fields() {
            mirror(&format!("raincore_session_{name}"), v);
        }
        for (name, v) in self.transport_stats().fields() {
            mirror(&format!("raincore_transport_{name}"), v);
        }
        let o = self.obs();
        // Journal overflow is surfaced, never silent.
        mirror("raincore_trace_dropped_events", o.journal().dropped());

        r.set_gauge(
            "raincore_status_group",
            labels,
            i64::from(self.group_id().0 .0),
        );
        r.set_gauge(
            "raincore_status_eating",
            labels,
            i64::from(self.is_eating()),
        );
        r.set_gauge("raincore_status_down", labels, i64::from(self.is_down()));
        r.set_gauge(
            "raincore_status_copy_seq",
            labels,
            self.last_copy_seq() as i64,
        );

        let t = self.transport_obs();
        for (name, h) in [
            ("raincore_token_rotation_ns", &o.token_rotation),
            ("raincore_hungry_wait_ns", &o.hungry_wait),
            ("raincore_token_hold_ns", &o.token_hold),
            ("raincore_911_recovery_ns", &o.recovery_911),
            ("raincore_token_encode_bytes", &o.token_encode_bytes),
            ("raincore_transport_rtt_ns", &t.rtt),
            ("raincore_transport_rto_ns", &t.rto),
            ("raincore_transport_failure_latency_ns", &t.failure_latency),
        ] {
            r.attach_histogram(name, labels, h.clone());
        }
        for stage in Stage::ALL {
            let sl: &[(&str, &str)] = &[("node", node.as_str()), ("stage", stage.label())];
            r.attach_histogram("raincore_hop_stage_ns", sl, o.hop_stages.get(stage).clone());
        }
        for (stage, h) in OutageStage::ALL.iter().zip(&o.outage_stages) {
            let sl: &[(&str, &str)] = &[("node", node.as_str()), ("stage", stage.label())];
            r.attach_histogram("raincore_outage_stage_ns", sl, h.clone());
        }
        for (mode, deliver, atomic) in [
            (
                "agreed",
                &o.submit_to_deliver_agreed,
                &o.submit_to_atomic_agreed,
            ),
            ("safe", &o.submit_to_deliver_safe, &o.submit_to_atomic_safe),
        ] {
            let ml: &[(&str, &str)] = &[("node", node.as_str()), ("mode", mode)];
            r.attach_histogram("raincore_submit_to_deliver_ns", ml, deliver.clone());
            r.attach_histogram("raincore_submit_to_atomic_ns", ml, atomic.clone());
        }
    }
}
