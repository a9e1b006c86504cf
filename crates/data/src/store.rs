//! The replicated versioned key-value store.

use crate::ops::{decode_i64, encode_i64, DataOp, MAGIC};
use bytes::Bytes;
use raincore_session::{Replica, SessionApp, SessionEvent, SessionNode, Table};
use raincore_types::{NodeId, Result, Time};
use std::collections::{BTreeMap, VecDeque};

/// A value plus its per-key version (monotonically incremented by every
/// applied write to that key).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VersionedValue {
    /// Version at which the value was written (1 = first write).
    pub version: u64,
    /// The value.
    pub value: Bytes,
}

/// Events emitted by the store. Identical (and identically ordered) on
/// every replica; filter on `by` for local interest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DataEvent {
    /// A key was written (put, successful CAS or add).
    Updated {
        /// Key.
        key: String,
        /// New version.
        version: u64,
        /// New value.
        value: Bytes,
        /// Writer.
        by: NodeId,
    },
    /// A key was deleted.
    Deleted {
        /// Key.
        key: String,
        /// Deleter.
        by: NodeId,
    },
    /// A CAS lost its race (the observed version was stale).
    CasFailed {
        /// Key.
        key: String,
        /// Version the writer expected.
        expected: u64,
        /// Version actually current when the op was applied.
        actual: u64,
        /// Writer.
        by: NodeId,
    },
}

/// The store: live keys, and the last version of deleted ones.
#[derive(Debug, Default)]
pub(crate) struct KvTable {
    entries: BTreeMap<String, VersionedValue>,
    /// Last version of deleted keys: a recreated key continues its
    /// version sequence, so a stale CAS can never win against a
    /// delete-and-recreate (no ABA).
    graveyard: BTreeMap<String, u64>,
    events: VecDeque<DataEvent>,
}

/// One replica of the shared store. Reads are local; writes go through
/// [`DataStore::put`]/[`cas`](DataStore::cas)/… which multicast ops, and
/// land when [`DataStore::on_event`] — the store's [`SessionApp`] feed —
/// processes the delivery.
#[derive(Debug)]
pub struct DataStore {
    replica: Replica<KvTable>,
}

impl DataStore {
    /// Creates the replica for node `me`, a member of the group from its
    /// founding: the store is empty because nothing was ever written.
    pub fn new(me: NodeId) -> Self {
        DataStore {
            replica: Replica::new(me, KvTable::default()),
        }
    }

    /// Creates the replica for a node `me` that joins a running group
    /// (`StartMode::Joining`, a restart): its store is empty because it
    /// has not been told yet. It applies nothing until the group's table
    /// transfer reaches it (DESIGN.md §18.3).
    pub fn joining(me: NodeId) -> Self {
        DataStore {
            replica: Replica::joining(me, KvTable::default()),
        }
    }

    // ------------------------------------------------------------------
    // Local reads
    // ------------------------------------------------------------------

    /// Reads a key (local, no network).
    pub fn get(&self, key: &str) -> Option<&VersionedValue> {
        self.replica.table.entries.get(key)
    }

    /// Reads a counter maintained by [`DataStore::add`] (absent = 0).
    pub fn get_i64(&self, key: &str) -> i64 {
        self.replica.table.get_i64(key)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.replica.table.entries.len()
    }

    /// True if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.replica.table.entries.is_empty()
    }

    /// Iterates over `(key, versioned value)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &VersionedValue)> {
        self.replica.table.entries.iter()
    }

    // ------------------------------------------------------------------
    // Writes (multicast; applied on delivery)
    // ------------------------------------------------------------------

    /// Unconditional write.
    pub fn put(&mut self, session: &mut SessionNode, key: &str, value: Bytes) -> Result<()> {
        self.replica.submit(
            session,
            DataOp::Put {
                key: key.into(),
                value,
                by: self.replica.me(),
            },
        )
    }

    /// Unconditional delete.
    pub fn delete(&mut self, session: &mut SessionNode, key: &str) -> Result<()> {
        self.replica.submit(
            session,
            DataOp::Delete {
                key: key.into(),
                by: self.replica.me(),
            },
        )
    }

    /// Compare-and-swap: succeeds only if the key's version is still
    /// `expect_version` when the op is applied (0 = key never written).
    /// Exactly one of several concurrent CAS attempts wins; losers get
    /// [`DataEvent::CasFailed`]. Versions are monotonic across deletion
    /// (a recreated key continues its sequence), so a CAS taken before a
    /// delete can never succeed against the recreated key (no ABA).
    pub fn cas(
        &mut self,
        session: &mut SessionNode,
        key: &str,
        expect_version: u64,
        value: Bytes,
    ) -> Result<()> {
        self.replica.submit(
            session,
            DataOp::Cas {
                key: key.into(),
                expect_version,
                value,
                by: self.replica.me(),
            },
        )
    }

    /// Atomic integer add (read-modify-write arbitrated by the total
    /// order; concurrent adds all apply).
    pub fn add(&mut self, session: &mut SessionNode, key: &str, delta: i64) -> Result<()> {
        self.replica.submit(
            session,
            DataOp::Add {
                key: key.into(),
                delta,
                by: self.replica.me(),
            },
        )
    }

    // ------------------------------------------------------------------
    // Event feed
    // ------------------------------------------------------------------

    /// Feeds one session event into the replica; call with *every* event
    /// in order. Hands the store to members that join (DESIGN.md §18.3).
    pub fn on_event(&mut self, _now: Time, ev: &SessionEvent, session: &mut SessionNode) {
        self.replica.on_event(ev, session);
    }

    /// Applies one op to the local table (public so tests and replay
    /// tools can drive a replica directly).
    pub fn apply(&mut self, op: &DataOp) {
        self.replica.table.apply(op);
    }

    /// Drains one store event.
    pub fn poll_event(&mut self) -> Option<DataEvent> {
        self.replica.table.events.pop_front()
    }
}

impl SessionApp for DataStore {
    fn on_event(&mut self, now: Time, ev: &SessionEvent, session: &mut SessionNode) {
        DataStore::on_event(self, now, ev, session);
    }
}

impl Table for KvTable {
    type Op = DataOp;
    /// `(key, version, value)` of every live key, `(key, last version)`
    /// of every deleted one.
    type Image = (Vec<(String, u64, Bytes)>, Vec<(String, u64)>);
    const MAGIC: &'static [u8; 4] = MAGIC;

    fn apply(&mut self, op: &DataOp) {
        match op {
            DataOp::Put { key, value, by } => self.write(key, value.clone(), *by),
            DataOp::Delete { key, by } => {
                if let Some(old) = self.entries.remove(key) {
                    self.graveyard.insert(key.clone(), old.version);
                    self.events.push_back(DataEvent::Deleted {
                        key: key.clone(),
                        by: *by,
                    });
                }
            }
            DataOp::Cas {
                key,
                expect_version,
                value,
                by,
            } => {
                // An absent key "remembers" its last version (graveyard),
                // so recreate-after-delete cannot be raced by a stale CAS.
                let current = self
                    .entries
                    .get(key)
                    .map(|v| v.version)
                    .or_else(|| self.graveyard.get(key).copied())
                    .unwrap_or(0);
                if current == *expect_version {
                    self.write(key, value.clone(), *by);
                } else {
                    self.events.push_back(DataEvent::CasFailed {
                        key: key.clone(),
                        expected: *expect_version,
                        actual: current,
                        by: *by,
                    });
                }
            }
            DataOp::Add { key, delta, by } => {
                let current = self.get_i64(key);
                self.write(key, encode_i64(current + delta), *by);
            }
        }
    }

    fn image(&self) -> Self::Image {
        let live = self.entries.iter();
        let live = live.map(|(k, v)| (k.clone(), v.version, v.value.clone()));
        let dead = self.graveyard.iter().map(|(k, v)| (k.clone(), *v));
        (live.collect(), dead.collect())
    }

    fn install(&mut self, (live, dead): Self::Image) {
        let live = live.into_iter();
        let live = live.map(|(key, version, value)| (key, VersionedValue { version, value }));
        self.entries = live.collect();
        self.graveyard = dead.into_iter().collect();
    }
}

impl KvTable {
    fn get_i64(&self, key: &str) -> i64 {
        let value = self.entries.get(key);
        value.and_then(|v| decode_i64(&v.value)).unwrap_or(0)
    }

    /// Bumps a live key in place; only a key that is new (or back from
    /// the graveyard) is allocated for the table.
    fn write(&mut self, key: &str, value: Bytes, by: NodeId) {
        let version = match self.entries.get_mut(key) {
            Some(entry) => {
                entry.version += 1;
                entry.value = value.clone();
                entry.version
            }
            None => {
                let version = self.graveyard.get(key).copied().unwrap_or(0) + 1;
                let entry = VersionedValue {
                    version,
                    value: value.clone(),
                };
                self.entries.insert(key.to_string(), entry);
                version
            }
        };
        self.events.push_back(DataEvent::Updated {
            key: key.to_string(),
            version,
            value,
            by,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(s: &mut DataStore) -> Vec<DataEvent> {
        let mut out = vec![];
        while let Some(e) = s.poll_event() {
            out.push(e);
        }
        out
    }

    #[test]
    fn put_get_delete_with_versions() {
        let mut s = DataStore::new(NodeId(0));
        s.apply(&DataOp::Put {
            key: "a".into(),
            value: Bytes::from_static(b"1"),
            by: NodeId(1),
        });
        assert_eq!(s.get("a").unwrap().version, 1);
        s.apply(&DataOp::Put {
            key: "a".into(),
            value: Bytes::from_static(b"2"),
            by: NodeId(2),
        });
        assert_eq!(s.get("a").unwrap().version, 2);
        assert_eq!(&s.get("a").unwrap().value[..], b"2");
        s.apply(&DataOp::Delete {
            key: "a".into(),
            by: NodeId(1),
        });
        assert!(s.get("a").is_none());
        assert!(s.is_empty());
        let evs = drain(&mut s);
        assert_eq!(evs.len(), 3);
        assert!(matches!(&evs[2], DataEvent::Deleted { key, .. } if key == "a"));
    }

    #[test]
    fn cas_single_winner() {
        // Two writers CAS from the same observed version; the total order
        // lets exactly one through.
        let mut s = DataStore::new(NodeId(0));
        s.apply(&DataOp::Put {
            key: "x".into(),
            value: Bytes::from_static(b"base"),
            by: NodeId(0),
        });
        drain(&mut s);
        s.apply(&DataOp::Cas {
            key: "x".into(),
            expect_version: 1,
            value: Bytes::from_static(b"A"),
            by: NodeId(1),
        });
        s.apply(&DataOp::Cas {
            key: "x".into(),
            expect_version: 1,
            value: Bytes::from_static(b"B"),
            by: NodeId(2),
        });
        assert_eq!(&s.get("x").unwrap().value[..], b"A");
        let evs = drain(&mut s);
        assert!(matches!(&evs[0], DataEvent::Updated { by: NodeId(1), .. }));
        assert!(matches!(
            &evs[1],
            DataEvent::CasFailed {
                by: NodeId(2),
                expected: 1,
                actual: 2,
                ..
            }
        ));
    }

    #[test]
    fn cas_on_absent_key_uses_version_zero() {
        let mut s = DataStore::new(NodeId(0));
        s.apply(&DataOp::Cas {
            key: "new".into(),
            expect_version: 0,
            value: Bytes::from_static(b"init"),
            by: NodeId(1),
        });
        assert_eq!(s.get("new").unwrap().version, 1);
        s.apply(&DataOp::Cas {
            key: "new".into(),
            expect_version: 0,
            value: Bytes::from_static(b"again"),
            by: NodeId(2),
        });
        assert_eq!(
            &s.get("new").unwrap().value[..],
            b"init",
            "second create loses"
        );
    }

    #[test]
    fn versions_monotonic_across_delete_no_cas_aba() {
        let mut s = DataStore::new(NodeId(0));
        s.apply(&DataOp::Put {
            key: "k".into(),
            value: Bytes::from_static(b"v1"),
            by: NodeId(0),
        });
        // A reader observed version 1, then the key was deleted and
        // recreated.
        s.apply(&DataOp::Delete {
            key: "k".into(),
            by: NodeId(1),
        });
        s.apply(&DataOp::Put {
            key: "k".into(),
            value: Bytes::from_static(b"v2"),
            by: NodeId(2),
        });
        assert_eq!(
            s.get("k").unwrap().version,
            2,
            "version continued, not reset"
        );
        // The stale CAS (expect 1) must lose against the recreated key.
        s.apply(&DataOp::Cas {
            key: "k".into(),
            expect_version: 1,
            value: Bytes::from_static(b"stale"),
            by: NodeId(3),
        });
        assert_eq!(&s.get("k").unwrap().value[..], b"v2", "ABA prevented");
    }

    #[test]
    fn add_is_commutative_in_effect() {
        let mut s = DataStore::new(NodeId(0));
        s.apply(&DataOp::Add {
            key: "n".into(),
            delta: 5,
            by: NodeId(1),
        });
        s.apply(&DataOp::Add {
            key: "n".into(),
            delta: -2,
            by: NodeId(2),
        });
        s.apply(&DataOp::Add {
            key: "n".into(),
            delta: 10,
            by: NodeId(0),
        });
        assert_eq!(s.get_i64("n"), 13);
        assert_eq!(s.get("n").unwrap().version, 3);
        assert_eq!(s.get_i64("absent"), 0);
    }

    #[test]
    fn replicas_converge_from_same_op_stream() {
        let ops = vec![
            DataOp::Put {
                key: "k".into(),
                value: Bytes::from_static(b"1"),
                by: NodeId(0),
            },
            DataOp::Add {
                key: "n".into(),
                delta: 3,
                by: NodeId(1),
            },
            DataOp::Cas {
                key: "k".into(),
                expect_version: 1,
                value: Bytes::from_static(b"2"),
                by: NodeId(2),
            },
            DataOp::Delete {
                key: "missing".into(),
                by: NodeId(0),
            },
        ];
        let run = |me: u32| {
            let mut s = DataStore::new(NodeId(me));
            for op in &ops {
                s.apply(op);
            }
            let state: Vec<(String, u64, Bytes)> = s
                .iter()
                .map(|(k, v)| (k.clone(), v.version, v.value.clone()))
                .collect();
            let evs = drain(&mut s);
            (state, evs)
        };
        assert_eq!(run(0), run(7));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_op() -> impl Strategy<Value = DataOp> {
        let key = prop_oneof![
            Just("a".to_string()),
            Just("b".to_string()),
            Just("c".to_string())
        ];
        let node = (0u32..4).prop_map(NodeId);
        prop_oneof![
            (
                key.clone(),
                proptest::collection::vec(any::<u8>(), 0..8),
                node.clone()
            )
                .prop_map(|(key, v, by)| DataOp::Put {
                    key,
                    value: Bytes::from(v),
                    by
                }),
            (key.clone(), node.clone()).prop_map(|(key, by)| DataOp::Delete { key, by }),
            (
                key.clone(),
                0u64..5,
                proptest::collection::vec(any::<u8>(), 0..8),
                node.clone()
            )
                .prop_map(|(key, expect_version, v, by)| DataOp::Cas {
                    key,
                    expect_version,
                    value: Bytes::from(v),
                    by
                }),
            (key, -10i64..10, node).prop_map(|(key, delta, by)| DataOp::Add { key, delta, by }),
        ]
    }

    proptest! {
        #[test]
        fn prop_replicas_converge_and_versions_grow(
            ops in proptest::collection::vec(arb_op(), 0..60)
        ) {
            let mut a = DataStore::new(NodeId(0));
            let mut b = DataStore::new(NodeId(3));
            let mut last_version: std::collections::BTreeMap<String, u64> = Default::default();
            for op in &ops {
                a.apply(op);
                b.apply(op);
                // Versions never decrease on surviving keys.
                for (k, v) in a.iter() {
                    let prev = last_version.entry(k.clone()).or_insert(0);
                    prop_assert!(v.version >= *prev, "version regressed on {}", k);
                    *prev = v.version;
                }
            }
            let sa: Vec<_> = a.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            let sb: Vec<_> = b.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            prop_assert_eq!(sa, sb, "replicas diverged");
        }
    }
}
