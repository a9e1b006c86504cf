//! The harness child: one OS process running one [`RuntimeNode`] over a
//! real UDP socket, exporting its observability state to a file.
//!
//! The parent spawns `procher --child ...` and talks to it through three
//! narrow channels:
//!
//! * **stdout** — exactly two lines at startup: `PORT <socket addr>`
//!   (the real UDP address the parent registers with the proxy) and
//!   `READY`;
//! * **the export file** — rewritten atomically (temp + rename) every
//!   `export_ms`: metrics snapshot, trace journal and the unbounded
//!   delivery log (see [`crate::export`]);
//! * **the ctl file** — the parent writes `leave` to request a graceful
//!   leave; crashes are injected by killing the process outright. Two
//!   more words are aimed at the token ([`HolderCmd`]): `stall <ms>` takes
//!   the node's driver thread off the CPU the next time it holds the
//!   token, `die` ends the process there.
//!
//! The child also drives the workload: `workload_count` agreed multicasts
//! paced `workload_period_ms` apart, retried under token backpressure so
//! every child eventually originates exactly its quota.

// Real-socket harness child: paces exports and workload in wall time, never
// protocol time.
#![allow(clippy::disallowed_types)]

use crate::export::render_export;
use crate::fast_profile;
use raincore::runtime::{ObsDump, RuntimeNode};
use raincore::session::{SessionEvent, SessionNode, StartMode};
use raincore_net::udp::UdpNet;
use raincore_net::Addr;
use raincore_types::{DeliveryMode, Incarnation, NodeId, OriginSeq, Ring, Time, TransportConfig};
use std::collections::HashMap;
use std::io::Write;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How the child's session node starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StartKind {
    /// Founding member of the full configured ring.
    Founding,
    /// Singleton group; discovery/merge glues the cluster together.
    Isolated,
    /// Token-less joiner (how restarted nodes come back).
    Joining,
}

impl std::str::FromStr for StartKind {
    type Err = String;
    fn from_str(s: &str) -> Result<StartKind, String> {
        match s {
            "founding" => Ok(StartKind::Founding),
            "isolated" => Ok(StartKind::Isolated),
            "joining" => Ok(StartKind::Joining),
            other => Err(format!("unknown start kind `{other}`")),
        }
    }
}

/// Everything a child needs, parsed from its command line by the binary.
#[derive(Clone, Debug)]
pub struct ChildArgs {
    /// This node's id.
    pub node: NodeId,
    /// Cluster size (defines the eligible membership `0..nodes`).
    pub nodes: u32,
    /// Incarnation (0 first start, +1 per restart).
    pub incarnation: u32,
    /// Start mode.
    pub start: StartKind,
    /// Peer id → socket address (the proxy's sockets).
    pub peers: Vec<(NodeId, SocketAddr)>,
    /// Export file path.
    pub export_path: PathBuf,
    /// Control file path (parent writes `leave` here).
    pub ctl_path: PathBuf,
    /// Export period in milliseconds.
    pub export_ms: u64,
    /// Agreed multicasts this child originates.
    pub workload_count: u32,
    /// Pacing between originations, milliseconds.
    pub workload_period_ms: u64,
    /// Out-of-band bulk threshold for the session config (bytes; 0 off).
    pub bulk_threshold: usize,
}

/// Deterministic payload of workload message `j` from `node` — the
/// differential mode relies on both sides using the same scheme. With
/// the out-of-band path on (`bulk_threshold > 0`), every odd-numbered
/// message is padded past the threshold so the run mixes piggybacked
/// and bulk dissemination.
pub fn workload_payload(node: NodeId, j: u32, bulk_threshold: usize) -> bytes::Bytes {
    let mut body = format!("m{}-{j}", node.0).into_bytes();
    if bulk_threshold > 0 && j % 2 == 1 {
        body.resize(body.len().max(bulk_threshold), b'.');
    }
    bytes::Bytes::from(body)
}

/// A ctl word carried out the next time the node is EATING, halfway
/// through its hold — the pass that fed it is acknowledged by then, so
/// what its peers see is a holder gone quiet, not a pass that failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HolderCmd {
    /// The driver thread sleeps this long: a host that does not run it.
    Stall(Duration),
    /// The process exits: the token dies with its holder.
    Die,
}

impl std::str::FromStr for HolderCmd {
    type Err = ();
    fn from_str(s: &str) -> Result<HolderCmd, ()> {
        let mut words = s.split_whitespace();
        match (words.next(), words.next()) {
            (Some("stall"), Some(ms)) => {
                let ms = ms.parse().map_err(|_| ())?;
                Ok(HolderCmd::Stall(Duration::from_millis(ms)))
            }
            (Some("die"), None) => Ok(HolderCmd::Die),
            _ => Err(()),
        }
    }
}

/// Carries `cmd` out on the driver thread; false if the node is not the
/// holder right now (the caller tries again).
fn try_holder_cmd(rt: &RuntimeNode, cmd: HolderCmd) -> bool {
    let done = rt.with_app(move |_: &mut (), node: &mut SessionNode, now| {
        let halfway = now + node.config().token_hold.div(2);
        if !node.is_eating() || node.next_wakeup().is_none_or(|w| w > halfway) {
            return false;
        }
        match cmd {
            HolderCmd::Stall(length) => std::thread::sleep(length),
            HolderCmd::Die => std::process::exit(3),
        }
        true
    });
    done != Some(false)
}

fn io_err(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

/// Atomic write: temp file in the same directory, then rename over.
fn write_atomic(path: &PathBuf, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// Runs the child to completion; returns the process exit code.
pub fn run_child(args: &ChildArgs) -> std::io::Result<i32> {
    let me = Addr::primary(args.node);
    let peers: HashMap<Addr, SocketAddr> = args
        .peers
        .iter()
        .filter(|(id, _)| *id != args.node)
        .map(|&(id, saddr)| (Addr::primary(id), saddr))
        .collect();
    let net = UdpNet::bind(&[(me, "127.0.0.1:0".parse().map_err(io_err)?)], peers)?;
    let port = net
        .local_socket_addr(me)
        .ok_or_else(|| io_err("local socket vanished"))?;
    println!("PORT {port}");
    std::io::stdout().flush()?;

    let all_ids = (0..args.nodes).map(NodeId);
    let start_mode = match args.start {
        StartKind::Founding => StartMode::Founding(Ring::from_iter(all_ids.clone())),
        StartKind::Isolated => StartMode::Isolated,
        StartKind::Joining => StartMode::Joining,
    };
    let mut profile = fast_profile(args.nodes);
    profile.bulk_threshold = args.bulk_threshold;
    let session = SessionNode::new(
        args.node,
        Incarnation(args.incarnation),
        profile,
        TransportConfig::default(),
        vec![me],
        raincore::transport::PeerTable::full_mesh(all_ids, 1),
        start_mode,
        Time::ZERO,
    )
    .map_err(io_err)?;
    let rt = RuntimeNode::spawn(session, net)?;
    println!("READY");
    std::io::stdout().flush()?;

    let started = Instant::now();
    let export_period = Duration::from_millis(args.export_ms.max(10));
    let workload_period = Duration::from_millis(args.workload_period_ms.max(1));
    let mut deliveries: Vec<(NodeId, OriginSeq)> = Vec::new();
    let mut export_seq = 0u64;
    let mut last_dump: Option<ObsDump> = None;
    let mut next_export = started;
    let mut next_send = started + workload_period;
    let mut sent = 0u32;
    let mut ctl_check = Instant::now();
    // The ctl text last acted on, and the holder command still to do.
    let mut ctl_seen = String::new();
    let mut holder_cmd: Option<HolderCmd> = None;

    let drain = |rt: &RuntimeNode, deliveries: &mut Vec<(NodeId, OriginSeq)>| {
        while let Some(ev) = rt.try_recv_event() {
            if let SessionEvent::Delivery(d) = ev {
                deliveries.push((d.origin, d.seq));
            }
        }
    };
    let flight_path = args.export_path.with_extension("flight");
    let export = |dump: &ObsDump,
                  export_seq: u64,
                  finished: bool,
                  deliveries: &[(NodeId, OriginSeq)]|
     -> std::io::Result<()> {
        let doc = render_export(
            args.node,
            args.incarnation,
            started.elapsed().as_millis() as u64,
            export_seq,
            finished,
            &dump.json,
            &dump.journal_json,
            deliveries,
        );
        // The flight ring rides along beside the export so a post-mortem
        // of a killed child still has its last recorded moments.
        write_atomic(&flight_path, &dump.flight)?;
        write_atomic(&args.export_path, &doc)
    };

    loop {
        // Block briefly on the event channel — this is also the loop's
        // pacing — then drain any burst without waiting.
        if let Some(SessionEvent::Delivery(d)) = rt.recv_event(Duration::from_millis(1)) {
            deliveries.push((d.origin, d.seq));
        }
        drain(&rt, &mut deliveries);

        // A multicast error is token backpressure (or no token yet):
        // retry on the next pass.
        if sent < args.workload_count
            && Instant::now() >= next_send
            && rt
                .multicast(
                    DeliveryMode::Agreed,
                    workload_payload(args.node, sent, args.bulk_threshold),
                )
                .is_ok()
        {
            sent += 1;
            next_send += workload_period;
        }

        if Instant::now() >= next_export {
            if let Some(dump) = rt.obs_dump() {
                export_seq += 1;
                export(&dump, export_seq, false, &deliveries)?;
                last_dump = Some(dump);
            }
            next_export += export_period;
        }

        if holder_cmd.is_some_and(|cmd| try_holder_cmd(&rt, cmd)) {
            holder_cmd = None;
        }

        if ctl_check.elapsed() >= Duration::from_millis(20) {
            ctl_check = Instant::now();
            let ctl = std::fs::read_to_string(&args.ctl_path).unwrap_or_default();
            if ctl != ctl_seen {
                holder_cmd = ctl.parse().ok().or(holder_cmd);
                ctl_seen.clone_from(&ctl);
            }
            if ctl.contains("leave") {
                let final_dump = rt.obs_dump().or(last_dump);
                rt.leave();
                let deadline = Instant::now() + Duration::from_secs(3);
                while !rt.is_finished() && Instant::now() < deadline {
                    drain(&rt, &mut deliveries);
                    std::thread::sleep(Duration::from_millis(2));
                }
                drain(&rt, &mut deliveries);
                if let Some(dump) = &final_dump {
                    export_seq += 1;
                    export(dump, export_seq, true, &deliveries)?;
                }
                return Ok(0);
            }
        }

        if rt.is_finished() {
            // Protocol shutdown (the node went down on its own). Flush
            // the tail of the event stream and the last known obs state.
            drain(&rt, &mut deliveries);
            if let Some(dump) = &last_dump {
                export_seq += 1;
                export(dump, export_seq, true, &deliveries)?;
            }
            return Ok(0);
        }
    }
}
