//! The traced driver: a mirror of the loop in the repository's
//! `src/runtime.rs`, statement for statement, over the same public
//! `SessionNode` + `IoShard` API, with a span around every public call.
//! It exists because a PR that defines the benchmark may not instrument
//! the program; spans inside the program are a later change.
//!
//! End-to-end metrics never come from here. `trace.drift_ratio` (traced
//! / untraced `delivered_per_s`) outside 0.9–1.1 means this copy no
//! longer matches `runtime.rs` and has to be re-synced.

use crate::clock;
use crate::trace::{Kind, NodeTrace, Span, NO_PARENT};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use raincore::runtime::process_flight_recorder;
use raincore::shard::{IoShard, DEFAULT_OUT_CAP};
use raincore_net::batch::{BatchConfig, IoWaker};
use raincore_net::udp::UdpNet;
use raincore_net::Datagram;
use raincore_obs::StageClock;
use raincore_session::{SessionEvent, SessionNode};
use raincore_transport::Frame;
use raincore_types::wire::WireDecode;
use raincore_types::{DeliveryMode, MsgId, NodeId, OriginSeq, SessionMsg, Time};
use std::collections::HashMap;
use std::thread::JoinHandle;

/// Same bound as `runtime.rs`.
const CMD_QUEUE_CAP: usize = 256;
/// Token frames kept for the codec timings.
const TOKEN_SAMPLE: usize = 4096;

enum Cmd {
    Multicast(
        DeliveryMode,
        bytes::Bytes,
        Sender<raincore_types::Result<OriginSeq>>,
    ),
    RequestMaster,
    ReleaseMaster,
    RingLen(Sender<usize>),
    Leave,
}

/// Handle to a traced node; the same surface as `RuntimeNode`.
pub struct MirrorNode {
    cmd_tx: Sender<Cmd>,
    event_rx: Receiver<(SessionEvent, u64)>,
    waker: IoWaker,
    handle: Option<JoinHandle<NodeTrace>>,
}

/// Span recorder of one driver thread.
struct Recorder {
    spans: Vec<Span>,
}

impl Recorder {
    /// Opens a span; returns its index for [`Recorder::close`].
    fn open(&mut self, kind: Kind, parent: u32) -> u32 {
        self.spans.push(Span {
            kind,
            start: clock::now_ns(),
            end: 0,
            parent,
            msg: None,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, i: u32) {
        self.spans[i as usize].end = clock::now_ns();
    }
}

/// What a transport frame carries, from its first fragment's tag.
/// A whole (single-fragment) token also yields its encoded `SessionMsg`.
fn classify(
    d: &Datagram,
    multi: &mut HashMap<(NodeId, MsgId), Kind>,
) -> (Kind, Option<bytes::Bytes>) {
    match Frame::decode_from_bytes(&d.payload) {
        Ok(Frame::Ack { .. }) => (Kind::DgAck, None),
        Ok(Frame::Data {
            from,
            msg_id,
            frag_index,
            frag_count,
            payload,
            ..
        }) => {
            let kind = if frag_index == 0 {
                match payload.first() {
                    Some(&SessionMsg::TAG_TOKEN) => Kind::DgToken,
                    Some(&SessionMsg::TAG_BULK) => Kind::DgBulk,
                    _ => Kind::DgOther,
                }
            } else {
                multi.get(&(from, msg_id)).copied().unwrap_or(Kind::DgOther)
            };
            if frag_count > 1 && frag_index == 0 {
                if multi.len() >= 1024 {
                    multi.clear();
                }
                multi.insert((from, msg_id), kind);
            }
            let whole_token = kind == Kind::DgToken && frag_count == 1;
            (kind, whole_token.then_some(payload))
        }
        Err(_) => (Kind::DgOther, None),
    }
}

impl MirrorNode {
    /// Mirrors `RuntimeNode::spawn`.
    pub fn spawn(mut node: SessionNode, net: UdpNet) -> std::io::Result<MirrorNode> {
        node.obs_mut().set_stage_clock(StageClock::monotonic());
        node.obs_mut()
            .set_recorder(process_flight_recorder().clone());
        let mut shard = IoShard::new(net.into_batch_io(BatchConfig::default())?, DEFAULT_OUT_CAP);
        let waker = shard.waker()?;
        let (cmd_tx, cmd_rx) = bounded::<Cmd>(CMD_QUEUE_CAP);
        let (event_tx, event_rx) = unbounded::<(SessionEvent, u64)>();
        let id = node.id().0;
        let name = format!("mirror-node-{id}");
        let handle = std::thread::Builder::new().name(name).spawn(move || {
            let started = clock::now_ns();
            let now = |started: u64| Time(clock::now_ns() - started);
            let mut rec = Recorder { spans: Vec::new() };
            let mut in_multi = HashMap::new();
            let mut out_multi = HashMap::new();
            let (mut out_data_frames, mut out_ack_frames) = (0u64, 0u64);
            let mut token_frames = Vec::new();
            loop {
                let lp = rec.open(Kind::Loop, NO_PARENT);
                let t = now(started);
                // Process commands.
                let span = rec.open(Kind::Cmds, lp);
                let mut leaving = false;
                while let Ok(cmd) = cmd_rx.try_recv() {
                    match cmd {
                        Cmd::Multicast(mode, payload, reply) => {
                            let _ = reply.send(node.multicast(mode, payload));
                        }
                        Cmd::RequestMaster => {
                            let _ = node.request_master();
                        }
                        Cmd::ReleaseMaster => {
                            let _ = node.release_master(t);
                        }
                        Cmd::RingLen(reply) => {
                            let _ = reply.send(node.ring().iter().count());
                        }
                        Cmd::Leave => {
                            node.leave(t);
                            leaving = true;
                        }
                    }
                }
                rec.close(span);
                let span = rec.open(Kind::Tick, lp);
                node.on_tick(t);
                rec.close(span);
                let span = rec.open(Kind::Drain, lp);
                while let Some(d) = node.poll_outgoing() {
                    // Classification is tracing work; it stays in this
                    // span's self time and is part of the drift.
                    match classify(&d, &mut out_multi) {
                        (Kind::DgAck, _) => out_ack_frames += 1,
                        (_, token) => {
                            out_data_frames += 1;
                            if token_frames.len() < TOKEN_SAMPLE {
                                token_frames.extend(token);
                            }
                        }
                    }
                    shard.enqueue(d);
                }
                rec.close(span);
                // A flush with nothing queued returns at once; only the
                // ones that reach the kernel get a span.
                if shard.queued() > 0 {
                    let span = rec.open(Kind::Flush, lp);
                    shard.flush();
                    rec.close(span);
                }
                let span = rec.open(Kind::Events, lp);
                while let Some(ev) = node.poll_event() {
                    let msg = match &ev {
                        SessionEvent::Delivery(d) => Some((d.origin.0, d.seq.0)),
                        _ => None,
                    };
                    let one = msg.map(|_| rec.open(Kind::Deliver, span));
                    let _ = event_tx.send((ev, clock::now_ns()));
                    if let Some(one) = one {
                        rec.close(one);
                        rec.spans[one as usize].msg = msg;
                    }
                }
                rec.close(span);
                if leaving || node.is_down() {
                    // Flush the handoff token, then stop.
                    while let Some(d) = node.poll_outgoing() {
                        shard.enqueue(d);
                    }
                    shard.flush();
                    rec.close(lp);
                    return NodeTrace {
                        node: id,
                        spans: rec.spans,
                        started,
                        ended: clock::now_ns(),
                        out_data_frames,
                        out_ack_frames,
                        token_frames,
                    };
                }
                let budget = node
                    .next_wakeup()
                    .map(|w| w.since(now(started)).to_std())
                    .unwrap_or(std::time::Duration::from_millis(50))
                    .min(std::time::Duration::from_millis(50));
                let span = rec.open(Kind::PumpIdle, lp);
                let burst = shard.pump_recv(budget);
                rec.close(span);
                if burst.len() > 0 {
                    rec.spans[span as usize].kind = Kind::PumpData;
                }
                for d in burst {
                    let (kind, _) = classify(&d, &mut in_multi);
                    let span = rec.open(kind, lp);
                    node.on_datagram(now(started), d);
                    rec.close(span);
                }
                rec.close(lp);
            }
        })?;
        Ok(MirrorNode {
            cmd_tx,
            event_rx,
            waker,
            handle: Some(handle),
        })
    }

    fn send_cmd(&self, cmd: Cmd) -> Result<(), ()> {
        self.cmd_tx.send(cmd).map_err(|_| ())?;
        self.waker.wake();
        Ok(())
    }

    pub fn multicast(
        &self,
        mode: DeliveryMode,
        payload: bytes::Bytes,
    ) -> raincore_types::Result<OriginSeq> {
        let (tx, rx) = bounded(1);
        self.send_cmd(Cmd::Multicast(mode, payload, tx))
            .map_err(|()| raincore_types::Error::ShutDown)?;
        rx.recv().map_err(|_| raincore_types::Error::ShutDown)?
    }

    pub fn request_master(&self) {
        let _ = self.send_cmd(Cmd::RequestMaster);
    }

    pub fn release_master(&self) {
        let _ = self.send_cmd(Cmd::ReleaseMaster);
    }

    pub fn leave(&self) {
        let _ = self.send_cmd(Cmd::Leave);
    }

    pub fn ring_len(&self) -> Option<usize> {
        let (tx, rx) = bounded(1);
        self.send_cmd(Cmd::RingLen(tx)).ok()?;
        rx.recv().ok()
    }

    /// The next event and the instant the driver thread handed it off.
    pub fn recv_event(&self, timeout: std::time::Duration) -> Option<(SessionEvent, u64)> {
        match self.event_rx.try_recv() {
            Ok(ev) => Some(ev),
            Err(_) if timeout.is_zero() => None,
            Err(_) => self.event_rx.recv_timeout(timeout).ok(),
        }
    }

    /// Asks the node to leave, joins its thread and returns its spans.
    pub fn finish(mut self) -> NodeTrace {
        self.leave();
        self.handle
            .take()
            .expect("finish runs once")
            .join()
            .expect("mirror driver thread panicked")
    }
}

impl Drop for MirrorNode {
    fn drop(&mut self) {
        self.leave();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}
