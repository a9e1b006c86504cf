//! The harness child: one OS process running one [`RuntimeNode`] over a
//! real UDP socket, exporting its observability state to a file.
//!
//! The parent spawns `procher --child --node=n3 --incarnation=0 …`: the
//! rows of [`ChildArgs`], one `--key=value` argument each, so a path
//! with a space in it stays one argument. The child refuses a line that
//! misses a row or names a key no row has. After that they talk through
//! three narrow channels:
//!
//! * **stdout** — exactly two lines at startup: `PORT <socket addr>`
//!   (the real UDP address the parent registers with the proxy) and
//!   `READY`;
//! * **the export file** — rewritten atomically (temp + rename) every
//!   `export_ms`: metrics snapshot, trace journal and the unbounded
//!   delivery log (see [`crate::export`]), with the flight recorder's
//!   dump beside it;
//! * **the ctl file** — one [`Ctl`] word: `run` as spawned, `leave` to
//!   request a graceful leave, and two aimed at the token: `stall MS`
//!   takes the node's driver thread off the CPU the next time it holds
//!   the token, `die` ends the process there. Crashes are injected by
//!   killing the process outright.
//!
//! The child also drives the workload: `workload_count` agreed multicasts
//! paced `workload_period_ms` apart, retried under token backpressure so
//! every child eventually originates exactly its quota.

// Real-socket harness child: paces exports and workload in wall time, never
// protocol time.
#![allow(clippy::disallowed_types)]

use crate::export::{node_file, render_export};
use crate::fast_profile;
use raincore::runtime::{ObsDump, RuntimeNode};
use raincore::session::{SessionEvent, SessionNode, StartMode};
use raincore_net::udp::UdpNet;
use raincore_net::Addr;
use raincore_sim::text::{text_enum, text_fields, Codec, FilePath, Node, Plain, TextFields};
use raincore_types::{DeliveryMode, Incarnation, NodeId, OriginSeq, Ring, Time, TransportConfig};
use std::collections::HashMap;
use std::io::Write;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

text_enum! {
    /// How the child's session node starts.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub enum StartKind {
        /// Founding member of the full configured ring.
        #[default]
        Founding = "founding",
        /// Singleton group; discovery/merge glues the cluster together.
        Isolated = "isolated",
        /// Token-less joiner (how restarted nodes come back).
        Joining = "joining",
    }
}

text_enum! {
    /// The word in a child's ctl file. `stall` and `die` are carried out
    /// the next time the node is EATING, halfway through its hold — the
    /// pass that fed it is acknowledged by then, so what its peers see is
    /// a holder gone quiet, not a pass that failed.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Ctl {
        /// Carry on: what the parent writes before it spawns the child.
        Run = "run",
        /// Leave the group, export a last time and exit.
        Leave = "leave",
        /// The driver thread sleeps this many milliseconds: a host that
        /// does not run it.
        Stall(ms: u64 as Plain) = "stall",
        /// The process exits: the token dies with its holder.
        Die = "die",
    }
}

/// Everything a child needs: its command line, one row per field.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChildArgs {
    /// This node's id.
    pub node: NodeId,
    /// Incarnation (0 first start, +1 per restart).
    pub incarnation: u32,
    /// Start mode.
    pub start: StartKind,
    /// The proxy socket standing in for each member, in id order and
    /// this node's own too: the cluster is `0..peers.len()`.
    pub peers: Vec<SocketAddr>,
    /// The run's directory, where this node's export, ctl and flight
    /// files are ([`node_file`]).
    pub dir: PathBuf,
    /// Export period in milliseconds.
    pub export_ms: u64,
    /// Agreed multicasts this child originates.
    pub workload_count: u32,
    /// Pacing between originations, milliseconds.
    pub workload_period_ms: u64,
    /// Out-of-band bulk threshold for the session config (bytes; 0 off).
    pub bulk_threshold: usize,
}

text_fields! {
    impl ChildArgs {
        "--node" => node: Node;
        "--incarnation" => incarnation: Plain;
        "--start" => start: Plain;
        "--peers" => peers: Addrs;
        "--dir" => dir: FilePath;
        "--export-ms" => export_ms: Plain;
        "--workload-count" => workload_count: Plain;
        "--workload-period-ms" => workload_period_ms: Plain;
        "--bulk-threshold" => bulk_threshold: Plain;
    }
}

impl ChildArgs {
    /// Reads the rows the parent wrote, every one of them.
    pub fn from_args<'a>(args: impl IntoIterator<Item = &'a str>) -> Result<ChildArgs, String> {
        let mut child = ChildArgs::default();
        child.read_all(args)?;
        Ok(child)
    }
}

/// Socket addresses, comma-separated: `127.0.0.1:4000,127.0.0.1:4001`.
struct Addrs;

impl Codec<Vec<SocketAddr>> for Addrs {
    fn write(v: &Vec<SocketAddr>) -> String {
        let addrs: Vec<String> = v.iter().map(ToString::to_string).collect();
        addrs.join(",")
    }
    fn read(word: &str) -> Option<Vec<SocketAddr>> {
        word.split(',').map(|addr| addr.parse().ok()).collect()
    }
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

/// Carries `stall` or `die` out on the driver thread; false if the node
/// is not the holder right now (the caller tries again).
fn try_holder_cmd(rt: &RuntimeNode, cmd: Ctl) -> bool {
    let done = rt.with_app(move |_: &mut (), node: &mut SessionNode, now| {
        let halfway = now + node.config().token_hold.div(2);
        if !node.is_eating() || node.next_wakeup().is_none_or(|w| w > halfway) {
            return false;
        }
        match cmd {
            Ctl::Stall(ms) => std::thread::sleep(Duration::from_millis(ms)),
            Ctl::Die => std::process::exit(3),
            Ctl::Run | Ctl::Leave => {}
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
    let peers: HashMap<Addr, SocketAddr> = (0..)
        .map(|id| Addr::primary(NodeId(id)))
        .zip(args.peers.iter().copied())
        .filter(|(addr, _)| *addr != me)
        .collect();
    let net = UdpNet::bind(&[(me, "127.0.0.1:0".parse().map_err(io_err)?)], peers)?;
    let port = net
        .local_socket_addr(me)
        .ok_or_else(|| io_err("local socket vanished"))?;
    println!("PORT {port}");
    std::io::stdout().flush()?;

    let nodes = args.peers.len() as u32;
    let all_ids = (0..nodes).map(NodeId);
    let start_mode = match args.start {
        StartKind::Founding => StartMode::Founding(Ring::from_iter(all_ids.clone())),
        StartKind::Isolated => StartMode::Isolated,
        StartKind::Joining => StartMode::Joining,
    };
    let mut profile = fast_profile(nodes);
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
    // The ctl text last acted on, and the holder word still to do.
    let mut ctl_seen = String::new();
    let mut holder_cmd: Option<Ctl> = None;

    let drain = |rt: &RuntimeNode, deliveries: &mut Vec<(NodeId, OriginSeq)>| {
        while let Some(ev) = rt.try_recv_event() {
            if let SessionEvent::Delivery(d) = ev {
                deliveries.push((d.origin, d.seq));
            }
        }
    };
    let file = |kind| node_file(&args.dir, args.node, kind);
    let (export_path, ctl_path, flight_path) = (file("export"), file("ctl"), file("flight"));
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
        write_atomic(&export_path, &doc)
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
            let ctl = std::fs::read_to_string(&ctl_path).unwrap_or_default();
            let word = ctl.parse();
            if ctl != ctl_seen {
                if let Ok(cmd @ (Ctl::Stall(_) | Ctl::Die)) = word {
                    holder_cmd = Some(cmd);
                }
                ctl_seen.clone_from(&ctl);
            }
            if word == Ok(Ctl::Leave) {
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
