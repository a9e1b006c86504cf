//! `tracectl` — merged cross-node token waterfalls from trace artifacts.
//!
//! Reads any mix of:
//!
//! * procher per-node export files (`node-K.export`, detected by their
//!   `RAINCORE-PROCHER-EXPORT` magic) — the journal section plus a
//!   synthetic GAP marker when the export's
//!   `raincore_trace_dropped_events` counter says the ring overflowed;
//! * JSON journal arrays — a chaos run's `<stem>-journal.json`, a
//!   procher `journal.json`, or anything else
//!   [`raincore_obs::render_events_json`] produced.
//!
//! All events are merged and rendered as one causally ordered waterfall
//! (hop seq is the happens-before; wall clocks are never trusted across
//! nodes), with every 911/STARVING/membership/regeneration event
//! attached under the hop that triggered it.
//!
//! ```text
//! tracectl node-0.export node-1.export node-2.export
//! tracectl chaos-violation-journal.json --circ n3@479 --laps 3
//! tracectl out/*.export --events          # flat merged event log
//! tracectl outage out/                     # the fail-over budget
//! ```
//!
//! `tracectl outage DIR|FILE...` prints one row per outage some member
//! repaired — a dead successor skipped, a lost token regenerated — with
//! the stages of the span as columns (quiet, detect, vote, repair,
//! resume; DESIGN.md §17.1). Each row is derived from the repairing
//! node's own events and clock.

// Adding a variant to a protocol or fault enum must be a compile-time
// event at every dispatch site (DESIGN.md §6b).
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]

use raincore_obs::{
    circ_label, outages, parse_journal_json, render_events_text, render_outages, render_waterfall,
    TraceEvent, TraceKind, WaterfallOpts,
};
use raincore_procher::export::{merge_export_journals, ChildExport};

fn usage() -> ! {
    eprintln!(
        "usage: tracectl FILE... [--circ ID|nM@S] [--from-hop N] [--max-hops N] \
         [--laps K] [--events]\n       tracectl outage DIR|FILE..."
    );
    std::process::exit(2);
}

/// Parses one artifact file into trace events; the format is sniffed,
/// not named: a JSON array is a journal, anything else must be a
/// procher export.
fn load(path: &str) -> Result<Vec<TraceEvent>, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if raw.trim_start().starts_with('[') {
        return parse_journal_json(&raw).map_err(|e| format!("{path}: {e}"));
    }
    let exp = ChildExport::parse(&raw).map_err(|e| format!("{path}: {e}"))?;
    Ok(merge_export_journals(std::slice::from_ref(&exp)))
}

/// Resolves `--circ`: a raw circulation id, or its rendered label
/// (`n3@479`) looked up among the circulations present in the merge.
fn resolve_circ(events: &[TraceEvent], arg: &str) -> Result<u64, String> {
    if let Ok(raw) = arg.parse::<u64>() {
        return Ok(raw);
    }
    let mut known: Vec<u64> = events
        .iter()
        .filter_map(|e| {
            // Only hop spans carry a circulation id to resolve.
            if let TraceKind::HopSpan { circ, .. } = e.kind {
                Some(circ)
            } else {
                None
            }
        })
        .collect();
    known.sort_unstable();
    known.dedup();
    known
        .iter()
        .find(|&&c| circ_label(c) == arg)
        .copied()
        .ok_or_else(|| {
            format!(
                "unknown circulation `{arg}`; present: {}",
                known
                    .iter()
                    .map(|&c| circ_label(c))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
}

/// `tracectl outage`: every artifact named, and of a directory every
/// per-node export and journal in it (in name order; anything else a
/// run leaves there is not a trace and is passed over).
fn outage_table(paths: &[String]) -> Result<String, String> {
    let mut files: Vec<String> = Vec::new();
    for path in paths {
        if !std::path::Path::new(path).is_dir() {
            files.push(path.clone());
            continue;
        }
        let entries = std::fs::read_dir(path).map_err(|e| format!("{path}: {e}"))?;
        let mut inside: Vec<String> = entries
            .filter_map(|e| e.ok()?.path().to_str().map(str::to_owned))
            .filter(|p| p.ends_with(".export") || p.ends_with("journal.json"))
            .collect();
        inside.sort();
        files.append(&mut inside);
    }
    if files.is_empty() {
        return Err("outage: no .export or journal.json files to read".to_string());
    }
    let mut events: Vec<TraceEvent> = Vec::new();
    for path in &files {
        events.append(&mut load(path)?);
    }
    // Per-node order is all the derivation needs; the stable sort keeps
    // each journal's own order among equal stamps.
    events.sort_by_key(|e| e.t_ns);
    Ok(render_outages(&outages(&events)))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "outage") {
        match outage_table(&args[1..]) {
            Ok(table) => print!("{table}"),
            Err(e) => {
                eprintln!("tracectl: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let mut files: Vec<String> = Vec::new();
    let mut opts = WaterfallOpts::default();
    let mut circ_arg: Option<String> = None;
    let mut flat_events = false;

    let mut i = 0;
    let next = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i - 1).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        let arg = next(&mut i);
        match arg.as_str() {
            "--circ" => circ_arg = Some(next(&mut i)),
            "--from-hop" => opts.from_hop = Some(next(&mut i).parse().unwrap_or_else(|_| usage())),
            "--max-hops" => opts.max_hops = Some(next(&mut i).parse().unwrap_or_else(|_| usage())),
            "--laps" => opts.laps = Some(next(&mut i).parse().unwrap_or_else(|_| usage())),
            "--events" => flat_events = true,
            _ if arg.starts_with("--") => usage(),
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        usage();
    }

    let mut events: Vec<TraceEvent> = Vec::new();
    for path in &files {
        match load(path) {
            Ok(mut ev) => events.append(&mut ev),
            Err(e) => {
                eprintln!("tracectl: {e}");
                std::process::exit(2);
            }
        }
    }
    // Stable time sort keeps each file's internal order (and its GAP
    // markers ahead of the events they annotate); the waterfall orders
    // hops by hop seq regardless.
    events.sort_by_key(|e| e.t_ns);

    if let Some(arg) = circ_arg {
        match resolve_circ(&events, &arg) {
            Ok(c) => opts.circ = Some(c),
            Err(e) => {
                eprintln!("tracectl: {e}");
                std::process::exit(2);
            }
        }
    }

    if flat_events {
        print!("{}", render_events_text(&events));
    } else {
        print!("{}", render_waterfall(&events, &opts));
    }
}
