//! The output checker every workload runs before it reports a number:
//! exactly-once delivery at every full member, one agreed order across
//! members, per-origin FIFO, intact payloads. A breach counts into
//! `failed` and makes the command exit non-zero.

use std::collections::{HashMap, HashSet};

/// Identity of a multicast: `(origin node, origin sequence)`.
pub type Key = (u32, u64);

/// One delivery as a member's application saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rec {
    pub key: Key,
    /// Length and every payload byte were what the generator made.
    pub intact: bool,
}

/// One member's delivery log, in delivery order.
#[derive(Clone, Debug)]
pub struct MemberLog {
    pub node: u32,
    /// A full member was in the ring for the whole run and owes every
    /// message. A partial member (unplugged or crashed for a while) owes
    /// no message but may deliver none twice nor out of the agreed order.
    pub full: bool,
    pub recs: Vec<Rec>,
}

#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    /// The first few breaches, for the operator.
    pub breaches: Vec<String>,
}

/// Checks `logs` against the `expected` accepted multicasts; `rejected`
/// submits count as attempted and failed. With `closed_world` a delivery
/// of a key outside `expected` is a breach; without it (the simulator,
/// whose lock, data and VIP managers multicast on their own) such keys
/// must still be delivered exactly once, in one order, everywhere.
pub fn check(expected: &[Key], rejected: u64, logs: &[MemberLog], closed_world: bool) -> Verdict {
    let mut bad: HashSet<Key> = HashSet::new();
    let mut breaches = Vec::new();
    let mut breach = |key: Key, what: String, bad: &mut HashSet<Key>| {
        if bad.insert(key) && breaches.len() < 8 {
            breaches.push(what);
        }
    };
    let expected_set: HashSet<Key> = expected.iter().copied().collect();
    let reference = logs.iter().find(|l| l.full);
    let mut universe = expected_set.clone();
    for log in logs {
        let mut seen: HashSet<Key> = HashSet::with_capacity(log.recs.len());
        let mut last_seq: HashMap<u32, u64> = HashMap::new();
        for rec in &log.recs {
            let n = log.node;
            if !rec.intact {
                breach(
                    rec.key,
                    format!("node {n}: {:?} damaged", rec.key),
                    &mut bad,
                );
            }
            if !seen.insert(rec.key) {
                breach(rec.key, format!("node {n}: {:?} twice", rec.key), &mut bad);
            }
            if closed_world && !expected_set.contains(&rec.key) {
                breach(
                    rec.key,
                    format!("node {n}: {:?} unknown", rec.key),
                    &mut bad,
                );
            }
            if let Some(prev) = last_seq.insert(rec.key.0, rec.key.1) {
                if prev >= rec.key.1 {
                    let what = format!("node {n}: {:?} after seq {prev} (FIFO)", rec.key);
                    breach(rec.key, what, &mut bad);
                }
            }
        }
        if log.full {
            universe.extend(seen);
        }
    }
    // Exactly once at every full member: everything expected, and
    // everything any full member delivered.
    for log in logs.iter().filter(|l| l.full) {
        let seen: HashSet<Key> = log.recs.iter().map(|r| r.key).collect();
        for &key in universe.difference(&seen) {
            breach(key, format!("node {}: {key:?} missing", log.node), &mut bad);
        }
    }
    // One agreed order: every log is a subsequence of the reference (a
    // full member's log of the same length is then identical to it).
    if let Some(reference) = reference {
        let pos: HashMap<Key, usize> = reference
            .recs
            .iter()
            .enumerate()
            .map(|(i, r)| (r.key, i))
            .collect();
        for log in logs {
            let mut last = None;
            for rec in &log.recs {
                let Some(&p) = pos.get(&rec.key) else {
                    continue; // already a missing-at-reference breach
                };
                if last.is_some_and(|l| p <= l) {
                    let what = format!("node {}: {:?} out of agreed order", log.node, rec.key);
                    breach(rec.key, what, &mut bad);
                }
                last = Some(last.map_or(p, |l: usize| l.max(p)));
            }
        }
    }
    let attempted = expected.len() as u64 + rejected;
    Verdict {
        attempted,
        failed: (rejected + bad.len() as u64).min(attempted.max(1)),
        breaches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(node: u32, full: bool, keys: &[Key]) -> MemberLog {
        MemberLog {
            node,
            full,
            recs: keys.iter().map(|&key| Rec { key, intact: true }).collect(),
        }
    }

    fn good() -> (Vec<Key>, Vec<MemberLog>) {
        let order = vec![(0, 1), (1, 1), (0, 2), (1, 2), (0, 3)];
        let logs = vec![
            log(0, true, &order),
            log(1, true, &order),
            log(2, false, &[(0, 1), (0, 2), (0, 3)]),
        ];
        (order, logs)
    }

    #[test]
    fn clean_logs_pass() {
        let (expected, logs) = good();
        let v = check(&expected, 0, &logs, true);
        assert_eq!((v.attempted, v.failed), (5, 0), "{:?}", v.breaches);
    }

    #[test]
    fn rejected_submits_fail() {
        let (expected, logs) = good();
        let v = check(&expected, 2, &logs, true);
        assert_eq!((v.attempted, v.failed), (7, 2));
    }

    // The deliberately corrupted logs: each damage is caught, so a
    // passing run is not vacuous.
    #[test]
    fn lost_message_fails() {
        let (expected, mut logs) = good();
        logs[1].recs.remove(2);
        let v = check(&expected, 0, &logs, true);
        assert_eq!(v.failed, 1, "{:?}", v.breaches);
        assert!(v.breaches[0].contains("missing"));
    }

    #[test]
    fn duplicate_fails() {
        let (expected, mut logs) = good();
        let dup = logs[0].recs[1];
        logs[0].recs.push(dup);
        assert!(check(&expected, 0, &logs, true).failed > 0);
        // ... at a partial member too.
        let (expected, mut logs) = good();
        let dup = logs[2].recs[0];
        logs[2].recs.push(dup);
        assert!(check(&expected, 0, &logs, true).failed > 0);
    }

    #[test]
    fn reordering_fails() {
        let (expected, mut logs) = good();
        logs[1].recs.swap(1, 2); // two origins swapped: order, not FIFO
        let v = check(&expected, 0, &logs, true);
        assert!(v.failed > 0);
        assert!(v.breaches.iter().any(|b| b.contains("agreed order")));
        let (expected, mut logs) = good();
        logs[2].recs.swap(0, 1); // same origin swapped at the partial member
        let v = check(&expected, 0, &logs, true);
        assert!(v.breaches.iter().any(|b| b.contains("FIFO")), "{v:?}");
    }

    #[test]
    fn damaged_payload_fails() {
        let (expected, mut logs) = good();
        logs[0].recs[3].intact = false;
        let v = check(&expected, 0, &logs, true);
        assert_eq!(v.failed, 1);
        assert!(v.breaches[0].contains("damaged"));
    }

    #[test]
    fn unknown_delivery_fails_only_in_a_closed_world() {
        let (expected, mut logs) = good();
        for l in &mut logs[..2] {
            l.recs.push(Rec {
                key: (3, 1),
                intact: true,
            });
        }
        assert_eq!(check(&expected, 0, &logs, true).failed, 1);
        assert_eq!(check(&expected, 0, &logs, false).failed, 0);
        // In an open world it must still reach every full member.
        logs[1].recs.pop();
        assert_eq!(check(&expected, 0, &logs, false).failed, 1);
    }
}
