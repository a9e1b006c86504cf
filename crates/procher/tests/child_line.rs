//! The child's command line and ctl words: what the parent writes, the
//! child reads back whole, and nothing else.

use raincore_procher::child::{ChildArgs, Ctl, StartKind};
use raincore_procher::export::node_file;
use raincore_sim::text::TextFields;
use raincore_types::NodeId;

fn sample() -> ChildArgs {
    ChildArgs {
        node: NodeId(2),
        incarnation: 1,
        start: StartKind::Joining,
        peers: ["127.0.0.1:4000", "127.0.0.1:4001", "127.0.0.1:4002"]
            .map(|addr| addr.parse().expect("socket address"))
            .to_vec(),
        dir: "/tmp/a run".into(),
        export_ms: 50,
        workload_count: 3,
        workload_period_ms: 40,
        bulk_threshold: 512,
    }
}

/// One argument per row: a run directory with a space in it comes back
/// whole, and so do the export and ctl paths in it.
#[test]
fn child_line_round_trips_paths_with_spaces() {
    let line = sample().pairs();
    assert_eq!(line.len(), ChildArgs::FIELDS.len());
    assert!(line.contains(&"--dir=/tmp/a run".to_string()), "{line:?}");
    let back = ChildArgs::from_args(line.iter().map(String::as_str)).expect("reads back");
    assert_eq!(back, sample());
    for (kind, path) in [
        ("export", "/tmp/a run/node-2.export"),
        ("ctl", "/tmp/a run/node-2.ctl"),
    ] {
        assert_eq!(node_file(&back.dir, back.node, kind).to_str(), Some(path));
    }
}

/// A line without a row, with a key no row has or with a value its row
/// does not read is refused — as a missing `--node` always was.
#[test]
fn child_line_missing_a_row_or_naming_an_unknown_key_is_refused() {
    let line = sample().pairs();
    for (i, field) in ChildArgs::FIELDS.iter().enumerate() {
        let short = line.iter().enumerate().filter(|&(j, _)| j != i);
        let err = ChildArgs::from_args(short.map(|(_, p)| p.as_str())).expect_err("refused");
        assert_eq!(err, format!("missing key: {:?}", field.key));
    }
    for word in ["--colour=blue", "--nodes=4", "--export-ms=soon", "--node"] {
        let line = line.iter().map(String::as_str).chain([word]);
        assert!(ChildArgs::from_args(line).is_err(), "{word}");
    }
}

#[test]
fn every_ctl_word_round_trips() {
    for (ctl, word) in [
        (Ctl::Run, "run"),
        (Ctl::Leave, "leave"),
        (Ctl::Stall(100), "stall 100"),
        (Ctl::Die, "die"),
    ] {
        assert_eq!(ctl.to_string(), word);
        assert_eq!(word.parse(), Ok(ctl));
    }
    for word in ["", "stall", "stall soon", "die now", "leave 3", "sleep 5"] {
        assert!(word.parse::<Ctl>().is_err(), "{word:?}");
    }
    for start in [StartKind::Founding, StartKind::Isolated, StartKind::Joining] {
        assert_eq!(start.to_string().parse(), Ok(start));
    }
}
