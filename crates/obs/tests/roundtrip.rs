//! Export → parse round-trip guarantees.
//!
//! The real-socket conformance harness audits nodes it cannot inspect
//! in-process: children serialize their registry snapshot and trace journal
//! to JSON files and the parent rebuilds them. These tests pin that the
//! rebuilt values equal the in-memory originals, which is what makes the
//! parent-side auditors trustworthy.

use raincore_obs::{
    parse_journal_json, Registry, Snapshot, SnapshotValue, TraceJournal, TraceKind,
};

fn populated_registry() -> Registry {
    let r = Registry::new();
    r.counter("raincore_session_tokens_received", &[("node", "0")])
        .add(42);
    r.counter("raincore_session_tokens_received", &[("node", "11")])
        .add(7);
    r.counter("raincore_session_regenerations", &[("node", "0")])
        .add(3);
    r.gauge("raincore_status_group", &[("node", "0")]).set(-1);
    r.gauge("raincore_status_copy_seq", &[("node", "0")])
        .set(9_000_000_123);
    r.gauge(
        "raincore_status_ring_member",
        &[("node", "0"), ("member", "4")],
    )
    .set(1);
    let h = r.histogram("raincore_token_rotation_ns", &[("node", "0")]);
    for v in [3, 100, 100, 5_000_000, u64::MAX / 2] {
        h.record(v);
    }
    r
}

/// Snapshot JSON → parse_json reproduces every counter and gauge exactly,
/// and every histogram summary field exactly (buckets intentionally do not
/// travel through JSON).
#[test]
fn snapshot_json_round_trip_equals_registry() {
    let snap = populated_registry().snapshot();
    let parsed = Snapshot::parse_json(&snap.to_json()).expect("parse back our own export");

    assert_eq!(parsed.entries.len(), snap.entries.len());
    for (orig, back) in snap.entries.iter().zip(&parsed.entries) {
        assert_eq!(orig.key, back.key, "metric identity must survive");
        match (&orig.value, &back.value) {
            (SnapshotValue::Counter(a), SnapshotValue::Counter(b)) => assert_eq!(a, b),
            (SnapshotValue::Gauge(a), SnapshotValue::Gauge(b)) => assert_eq!(a, b),
            (
                SnapshotValue::Histogram { summary: a, .. },
                SnapshotValue::Histogram { summary: b, .. },
            ) => assert_eq!(a, b, "histogram summary must survive"),
            (a, b) => panic!("type changed in flight: {a:?} vs {b:?}"),
        }
    }
}

/// The typed accessors the parent-side auditors use resolve values by name
/// and labels, independent of label order.
#[test]
fn parsed_snapshot_typed_accessors() {
    let snap = populated_registry().snapshot();
    let parsed = Snapshot::parse_json(&snap.to_json()).expect("parse");

    assert_eq!(
        parsed.counter_value("raincore_session_tokens_received", &[("node", "0")]),
        Some(42)
    );
    assert_eq!(
        parsed.counter_value("raincore_session_regenerations", &[("node", "0")]),
        Some(3)
    );
    assert_eq!(
        parsed.gauge_value("raincore_status_group", &[("node", "0")]),
        Some(-1)
    );
    assert_eq!(
        parsed.gauge_value("raincore_status_copy_seq", &[("node", "0")]),
        Some(9_000_000_123)
    );
    // Label order is normalized on lookup.
    assert_eq!(
        parsed.gauge_value(
            "raincore_status_ring_member",
            &[("member", "4"), ("node", "0")]
        ),
        Some(1)
    );
    // Missing metric and type confusion both come back None, not junk.
    assert_eq!(parsed.counter_value("no_such_metric", &[]), None);
    assert_eq!(
        parsed.counter_value("raincore_status_group", &[("node", "0")]),
        None,
        "gauge looked up as counter is a None, not a cast"
    );
    assert_eq!(
        parsed
            .entries_named("raincore_session_tokens_received")
            .count(),
        2
    );
}

/// Journal JSON → parse_journal_json reproduces the exact event list,
/// covering every TraceKind variant the exporters can emit.
#[test]
fn journal_json_round_trip_equals_journal() {
    let mut j = TraceJournal::new(64);
    let all_kinds = vec![
        TraceKind::TokenRx {
            seq: 42,
            hop: 1,
            members: 5,
            waited_ns: 900_000,
        },
        TraceKind::TokenTx { seq: 42, to: 3 },
        TraceKind::TokenStale {
            seq: 40,
            newest: 42,
        },
        TraceKind::TokenRegenerated { seq: 43 },
        TraceKind::Call911Tx {
            req_id: 7,
            last_seq: 42,
            polled: 4,
        },
        TraceKind::Call911Rx {
            from: 2,
            last_seq: 41,
        },
        TraceKind::Verdict911Tx {
            to: 2,
            granted: false,
            newer_seq: 42,
        },
        TraceKind::Verdict911Rx {
            from: 2,
            granted: true,
        },
        TraceKind::Recovered911 {
            duration_ns: 1_500_000,
            seq: 43,
        },
        TraceKind::JoinRequest { from: 9 },
        TraceKind::BeaconRx { from: 8, group: 1 },
        TraceKind::MergeHandoff { to: 1 },
        TraceKind::Merged { absorbed_group: 2 },
        TraceKind::Delivered {
            origin: 4,
            seq: 17,
            safe: true,
        },
        TraceKind::SafeHeld { origin: 4, seq: 18 },
        TraceKind::AtomicRetired { seq: 6 },
        TraceKind::PeerFailed { peer: 5 },
        TraceKind::ProbeTx { to: 5 },
        TraceKind::ProbeAcked { to: 5 },
        TraceKind::ShutDown,
    ];
    for (i, kind) in all_kinds.iter().enumerate() {
        j.push(i as u64 * 1_000, 3, kind.clone());
    }

    let parsed = parse_journal_json(&j.render_json()).expect("parse back our own journal");
    let original: Vec<_> = j.iter().cloned().collect();
    assert_eq!(parsed, original);
}

/// An empty journal renders and parses as an empty list.
#[test]
fn empty_journal_round_trip() {
    let j = TraceJournal::new(8);
    assert_eq!(parse_journal_json(&j.render_json()).expect("parse"), vec![]);
}

/// Corrupt documents (the parent tails files mid-write in the worst case)
/// fail with an error instead of yielding half-parsed telemetry.
#[test]
fn truncated_documents_error_cleanly() {
    let snap = populated_registry().snapshot();
    let json = snap.to_json();
    let cut = &json[..json.len() - 5];
    assert!(Snapshot::parse_json(cut).is_err());

    let mut j = TraceJournal::new(8);
    j.push(1, 0, TraceKind::ShutDown);
    let jj = j.render_json();
    assert!(parse_journal_json(&jj[..jj.len() - 2]).is_err());
}
