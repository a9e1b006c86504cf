//! Threaded real-time driver: runs a [`SessionNode`] over real UDP
//! sockets.
//!
//! The protocol stack is sans-io; this module supplies the production
//! driver the paper's deployment implies — one **I/O shard** per node
//! (see [`crate::shard`]): a single pump thread that owns the node's
//! sockets outright, drains `poll_outgoing()` into `sendmmsg` batches,
//! blocks in one `poll(2)` across sockets + a wake fd, and feeds
//! received bursts and wall-clock time straight into the state machine:
//! one thread per node, no per-datagram channel hop. The
//! deterministic simulator (`raincore-sim`) drives the *same* state
//! machine; nothing protocol-level lives here. The same thread hosts the
//! node's application ([`RuntimeNode::spawn_hosting`]), fed each event
//! with the node lent to it — no command hop between the two.
//!
//! Command flow is bounded end to end: the command queue is a bounded
//! channel (senders block when the driver falls behind — backpressure,
//! not unbounded buffering) and each request carries a bounded
//! one-shot reply. The event channel stays unbounded on purpose:
//! dropping a `Delivery` event would silently violate the atomic
//! multicast contract the conformance harness audits, so event memory
//! is bounded by the consumer, not by discarding.
//!
//! See the `udp_cluster` example for a three-node cluster exchanging
//! multicasts over localhost UDP.

// The real-time UDP runtime driver: mapping the wall clock onto protocol
// `Time` is its job.
#![allow(clippy::disallowed_types)]

use crate::shard::{IoShard, DEFAULT_OUT_CAP};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use raincore_net::batch::{BatchConfig, IoMetrics, IoWaker};
use raincore_net::udp::UdpNet;
use raincore_obs::{FlightRecorder, Histogram, StageClock};
use raincore_session::{SessionApp, SessionEvent, SessionNode};
use raincore_types::{DeliveryMode, OriginSeq, Time};
use std::any::Any;
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::Instant;

/// Commands queued ahead of a stalled driver before senders block.
const CMD_QUEUE_CAP: usize = 256;

/// The process-wide flight recorder: every [`RuntimeNode`] spawned in
/// this process records into the same always-on ring, so a post-mortem
/// dump interleaves the last moments of all local nodes.
pub fn process_flight_recorder() -> &'static FlightRecorder {
    static FLIGHT: OnceLock<FlightRecorder> = OnceLock::new();
    FLIGHT.get_or_init(FlightRecorder::default)
}

/// What [`RuntimeNode::with_app`] runs on the driver thread, against the
/// node and the application it hosts.
type AppCall = Box<dyn FnOnce(Time, &mut SessionNode, &mut dyn Any) + Send>;

enum Cmd {
    Multicast(
        DeliveryMode,
        bytes::Bytes,
        Sender<raincore_types::Result<OriginSeq>>,
    ),
    RequestMaster,
    ReleaseMaster,
    ObsDump(Sender<ObsSnapshot>),
    WithApp(AppCall),
    Leave,
}

/// Point-in-time observability snapshot of a running node: renderable
/// metric exports plus the structured trace journal. The driver thread
/// only copies the state out ([`ObsSnapshot`]); the caller's thread
/// renders it, so that a member being exported keeps acknowledging.
#[derive(Clone, Debug)]
pub struct ObsDump {
    /// Prometheus text exposition: session/transport counters and the
    /// latency histograms (token rotation, hungry wait, 911 recovery,
    /// RTT, failure-on-delivery), labeled with the node id.
    pub prometheus: String,
    /// The same registry as a JSON document.
    pub json: String,
    /// Pretty-text trace journal (oldest first).
    pub journal: String,
    /// The trace journal as a JSON array.
    pub journal_json: String,
    /// The process-wide flight recorder ring, rendered as text (newest
    /// records, with the last hop before the dump named up front).
    pub flight: String,
}

/// What the driver thread hands to [`RuntimeNode::obs_dump`]: the
/// metric values and the journal as they were, nothing rendered yet.
/// Rendering takes milliseconds, and a member that does not answer for
/// milliseconds is what its peers' retransmission timers are there to
/// notice (DESIGN.md §17.6).
struct ObsSnapshot {
    metrics: raincore_obs::Snapshot,
    journal: raincore_obs::TraceJournal,
    recorder: Option<FlightRecorder>,
}

impl ObsSnapshot {
    fn render(self) -> ObsDump {
        ObsDump {
            prometheus: self.metrics.to_prometheus(),
            json: self.metrics.to_json(),
            journal: self.journal.render_text(),
            journal_json: self.journal.render_json(),
            flight: self
                .recorder
                .as_ref()
                .map(FlightRecorder::render_text)
                .unwrap_or_default(),
        }
    }
}

/// Builds the node's metric registry and copies out what a dump renders.
/// `wake_late` is the driver's own lateness: how far past the wakeup it
/// asked the pump for it got the CPU back.
fn dump_node_obs(node: &SessionNode, io: &IoMetrics, wake_late: &Histogram) -> ObsSnapshot {
    let r = raincore_obs::Registry::new();
    let id = node.id().0.to_string();
    let labels: &[(&str, &str)] = &[("node", id.as_str())];
    // I/O engine instrumentation: syscalls and packets counted
    // separately per direction so syscalls-per-packet is a first-class
    // metric, plus the per-flush batch-size distributions and the pool
    // and drop counters. All of it rides into the procher export via the
    // same JSON document.
    for (op, c) in [
        ("send", &io.syscalls_send),
        ("recv", &io.syscalls_recv),
        ("poll", &io.syscalls_poll),
    ] {
        r.counter("raincore_io_syscalls", &[("node", id.as_str()), ("op", op)])
            .add(c.get());
    }
    for (op, c) in [("send", &io.packets_sent), ("recv", &io.packets_recv)] {
        r.counter("raincore_io_packets", &[("node", id.as_str()), ("op", op)])
            .add(c.get());
    }
    r.attach_histogram(
        "raincore_io_batch_size",
        &[("node", id.as_str()), ("dir", "send")],
        io.send_batch.clone(),
    );
    r.attach_histogram(
        "raincore_io_batch_size",
        &[("node", id.as_str()), ("dir", "recv")],
        io.recv_batch.clone(),
    );
    r.counter("raincore_io_send_dropped", labels)
        .add(io.send_dropped.get());
    r.counter("raincore_io_decode_dropped", labels)
        .add(io.decode_dropped.get());
    r.counter("raincore_io_pool_reused", labels)
        .add(io.pool_reused.get());
    r.counter("raincore_io_pool_grown", labels)
        .add(io.pool_grown.get());
    r.gauge("raincore_io_syscalls_per_packet_milli", labels)
        .set(io.syscalls_per_packet_milli() as i64);
    r.attach_histogram("raincore_runtime_wake_late_ns", labels, wake_late.clone());
    node.export_into(&r);
    // Ring membership as one gauge per member: an out-of-process auditor
    // (the real-socket conformance harness) reads *presence*, which is
    // exact here because the registry is built afresh for every dump.
    for m in node.ring().iter() {
        let member = m.0.to_string();
        r.gauge(
            "raincore_status_ring_member",
            &[("node", id.as_str()), ("member", member.as_str())],
        )
        .set(1);
    }
    let o = node.obs();
    ObsSnapshot {
        metrics: r.snapshot(),
        journal: o.journal().clone(),
        recorder: o.recorder().cloned(),
    }
}

/// Handle to a session node running on its own thread over UDP.
///
/// Dropping the handle asks the node to leave the group and joins the
/// thread.
pub struct RuntimeNode {
    cmd_tx: Sender<Cmd>,
    event_rx: Receiver<SessionEvent>,
    waker: IoWaker,
    handle: Option<JoinHandle<()>>,
}

impl RuntimeNode {
    /// Spawns the driver thread for `node` over the sockets `net` has
    /// bound, with the default batched I/O configuration.
    ///
    /// `node` should have been constructed with the same local addresses
    /// that `net` has bound. The sockets go to a single [`IoShard`] pump
    /// owned by the driver thread; datagrams that arrived since `bind`
    /// are read from the kernel socket buffers first.
    pub fn spawn(node: SessionNode, net: UdpNet) -> std::io::Result<RuntimeNode> {
        RuntimeNode::spawn_hosting(node, net, ())
    }

    /// [`RuntimeNode::spawn`], hosting `app` (a pair, for two) on the
    /// driver thread: it is fed every session event, in order, before
    /// the event goes to [`RuntimeNode::recv_event`], is ticked once per
    /// loop, and has its `next_wakeup` honoured.
    /// [`RuntimeNode::with_app`] reaches it.
    pub fn spawn_hosting<A: SessionApp + Send>(
        mut node: SessionNode,
        net: UdpNet,
        mut app: A,
    ) -> std::io::Result<RuntimeNode> {
        // Real deployments get real per-stage hop timings and share the
        // process-wide flight recorder ring; both are always on.
        node.obs_mut().set_stage_clock(StageClock::monotonic());
        node.obs_mut()
            .set_recorder(process_flight_recorder().clone());
        let mut shard = IoShard::new(net.into_batch_io(BatchConfig::default())?, DEFAULT_OUT_CAP);
        let waker = shard.waker()?;
        let (cmd_tx, cmd_rx) = bounded::<Cmd>(CMD_QUEUE_CAP);
        let (event_tx, event_rx) = unbounded::<SessionEvent>();
        let name = format!("raincore-node-{}", node.id());
        let handle = std::thread::Builder::new().name(name).spawn(move || {
            let start = Instant::now();
            let now = |start: Instant| Time(start.elapsed().as_nanos() as u64);
            let wake_late = Histogram::new();
            loop {
                let t = now(start);
                // Process commands.
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
                        Cmd::ObsDump(reply) => {
                            let _ = reply.send(dump_node_obs(&node, shard.metrics(), &wake_late));
                        }
                        Cmd::WithApp(call) => call(t, &mut node, &mut app),
                        Cmd::Leave => {
                            node.leave(t);
                            leaving = true;
                        }
                    }
                }
                // Drive timers and send what they produced, then the
                // applications, then the events they were fed.
                node.on_tick(t);
                flush_outgoing(&mut node, &mut shard);
                app.on_tick(t, &mut node);
                while let Some(ev) = node.poll_event() {
                    app.on_event(t, &ev, &mut node);
                    let _ = event_tx.send(ev);
                }
                // What the application queued (a master release passes
                // the token), and the handoff token of a leaver.
                flush_outgoing(&mut node, &mut shard);
                if leaving || node.is_down() {
                    return;
                }
                // Block until the next protocol or application wakeup, a
                // received burst, or a command poke on the wake socket —
                // whichever comes first. A pump that returns at or past that
                // wakeup records how late the host ran this thread.
                let asked = now(start);
                let budget = [node.next_wakeup(), app.next_wakeup()]
                    .into_iter()
                    .flatten()
                    .min()
                    .map(|w| w.since(asked).to_std())
                    .unwrap_or(std::time::Duration::from_millis(50))
                    .min(std::time::Duration::from_millis(50));
                let wakeup = asked.as_nanos() + budget.as_nanos() as u64;
                let burst = shard.pump_recv(budget);
                if let Some(late) = now(start).as_nanos().checked_sub(wakeup) {
                    wake_late.record(late);
                }
                for d in burst {
                    node.on_datagram(now(start), d);
                }
            }
        })?;
        Ok(RuntimeNode {
            cmd_tx,
            event_rx,
            waker,
            handle: Some(handle),
        })
    }

    /// Enqueues a command (blocking briefly if the bounded queue is
    /// full — that is the backpressure) and pokes the driver's wake
    /// socket so a thread blocked in `poll` handles it immediately.
    fn send_cmd(&self, cmd: Cmd) -> Result<(), ()> {
        self.cmd_tx.send(cmd).map_err(|_| ())?;
        self.waker.wake();
        Ok(())
    }

    /// Queues a reliable atomic multicast; returns its origin sequence.
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

    /// Requests the master lock (granted via [`SessionEvent::MasterAcquired`]).
    pub fn request_master(&self) {
        let _ = self.send_cmd(Cmd::RequestMaster);
    }

    /// Releases the master lock.
    pub fn release_master(&self) {
        let _ = self.send_cmd(Cmd::ReleaseMaster);
    }

    /// Runs `call` on the driver thread against the hosted application,
    /// with the node lent to it — how another thread takes a lock or
    /// reads a table. `None` if what the node hosts is not an `A`, or the
    /// node has stopped.
    pub fn with_app<A: SessionApp, R: Send + 'static>(
        &self,
        call: impl FnOnce(&mut A, &mut SessionNode, Time) -> R + Send + 'static,
    ) -> Option<R> {
        let (tx, rx) = bounded(1);
        let call: AppCall = Box::new(move |now, node, app| {
            let _ = tx.send(app.downcast_mut().map(|app| call(app, node, now)));
        });
        self.send_cmd(Cmd::WithApp(call)).ok()?;
        rx.recv().ok()?
    }

    /// Leaves the group gracefully and stops the thread.
    pub fn leave(&self) {
        let _ = self.send_cmd(Cmd::Leave);
    }

    /// Snapshots the node's observability state (Prometheus text, JSON
    /// metrics, trace journal, I/O engine counters): copied out by the
    /// driver thread, rendered on this one. `None` if the node has
    /// stopped.
    pub fn obs_dump(&self) -> Option<ObsDump> {
        let (tx, rx) = bounded(1);
        self.send_cmd(Cmd::ObsDump(tx)).ok()?;
        rx.recv().ok().map(ObsSnapshot::render)
    }

    /// Receives the next session event, waiting up to `timeout`.
    ///
    /// An already-queued event is returned immediately — even with a zero
    /// timeout, and even after the driver thread has stopped (events sent
    /// before shutdown stay receivable). Only an *empty* queue waits.
    pub fn recv_event(&self, timeout: std::time::Duration) -> Option<SessionEvent> {
        match self.event_rx.try_recv() {
            Ok(ev) => Some(ev),
            Err(_) if timeout.is_zero() => None,
            Err(_) => self.event_rx.recv_timeout(timeout).ok(),
        }
    }

    /// Receives a pending session event without blocking.
    pub fn try_recv_event(&self) -> Option<SessionEvent> {
        self.event_rx.try_recv().ok()
    }

    /// True once the driver thread has exited (after a leave, a protocol
    /// shutdown, or a crash). Queued events may still be pending.
    pub fn is_finished(&self) -> bool {
        self.handle.as_ref().is_none_or(JoinHandle::is_finished)
    }
}

/// Gathers the frames the node has queued into one batched flush (the
/// shard auto-flushes if the protocol produces more than the queue bound).
fn flush_outgoing(node: &mut SessionNode, shard: &mut IoShard) {
    while let Some(d) = node.poll_outgoing() {
        shard.enqueue(d);
    }
    shard.flush();
}

impl Drop for RuntimeNode {
    fn drop(&mut self) {
        // Best effort: ask the node to leave, then join.
        match self.cmd_tx.try_send(Cmd::Leave) {
            Ok(()) | Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {}
        }
        self.waker.wake();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}
