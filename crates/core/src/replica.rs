//! A replicated table, and the one way a late joiner comes by it.
//!
//! The lock manager, the data service and the VIP manager each keep a
//! [`Table`]: state that is a pure function of the updates multicast in
//! the agreed order (§2.6), so replicas that applied the same updates
//! are equal. A member that joins a running group was not delivered the
//! early ones — its empty table is not the group's. [`Replica`] is the
//! rule that closes the gap, written once (DESIGN.md §18.3): a replica
//! built [`Replica::joining`] holds back what it is delivered until a
//! member that has the table multicasts it, then installs that table and
//! replays what the sender had not applied.

use crate::events::SessionEvent;
use crate::node::SessionNode;
use bytes::Bytes;
use raincore_types::wire::{Reader, WireDecode, WireEncode, Writer};
use raincore_types::{DeliveryMode, NodeId, OriginSeq, Result};

/// Prefix of a table transfer, ahead of the table's own magic.
const TRANSFER_MAGIC: &[u8; 4] = b"RCTT";

/// `(origin, seq)` of the multicast that carried an update.
pub type OpId = (NodeId, OriginSeq);

/// State replicated by applying the same updates in the same order.
pub trait Table: 'static {
    /// One update.
    type Op: WireEncode + WireDecode;
    /// The whole table, as a transfer carries it.
    type Image: WireEncode + WireDecode;
    /// Prefix that tells this table's multicasts from every other
    /// payload sharing the group.
    const MAGIC: &'static [u8; 4];

    /// Applies one update.
    fn apply(&mut self, op: &Self::Op);

    /// `node` left the membership: drops what it held.
    fn purge(&mut self, node: NodeId) {
        let _ = node;
    }

    /// Everything a replica that has applied nothing needs.
    fn image(&self) -> Self::Image;

    /// Replaces the table with the group's.
    fn install(&mut self, image: Self::Image);
}

/// What a replica multicasts.
pub enum Frame<T: Table> {
    /// One update.
    Op(T::Op),
    /// The sender's table after it applied update `last`, for the
    /// members in `to` that joined without it.
    Transfer {
        /// The newcomers this transfer is for.
        to: Vec<NodeId>,
        /// The last update in `image` (`None`: never one).
        last: Option<OpId>,
        /// The table.
        image: T::Image,
    },
}

impl<T: Table> Frame<T> {
    /// Encodes the frame as a multicast payload: an update behind the
    /// table's magic, a transfer behind `RCTT` and then it.
    pub fn to_payload(&self) -> Bytes {
        let mut w = Writer::new();
        match self {
            Frame::Op(op) => {
                w.put_raw(T::MAGIC);
                op.encode(&mut w);
            }
            Frame::Transfer { to, last, image } => {
                w.put_raw(TRANSFER_MAGIC);
                w.put_raw(T::MAGIC);
                to.encode(&mut w);
                w.put_bool(last.is_some());
                if let Some(id) = last {
                    id.encode(&mut w);
                }
                image.encode(&mut w);
            }
        }
        w.finish()
    }

    /// Decodes a multicast payload; `None` if it is not this table's, or
    /// not whole.
    pub fn from_payload(payload: &[u8]) -> Option<Self> {
        let transfer = payload.strip_prefix(&TRANSFER_MAGIC[..]);
        let mut r = Reader::new(transfer.unwrap_or(payload).strip_prefix(&T::MAGIC[..])?);
        let frame = match transfer {
            None => Frame::Op(T::Op::decode(&mut r).ok()?),
            Some(_) => Frame::Transfer {
                to: Vec::decode(&mut r).ok()?,
                last: match r.get_bool().ok()? {
                    true => Some(OpId::decode(&mut r).ok()?),
                    false => None,
                },
                image: T::Image::decode(&mut r).ok()?,
            },
        };
        r.expect_end().ok()?;
        Some(frame)
    }
}

/// How a replica came by its table.
#[derive(Debug, PartialEq, Eq)]
enum Source {
    /// Built [`Replica::new`]: it applied everything there was, if its
    /// node founded the group.
    Founding,
    /// Built [`Replica::joining`], and still waiting for the table.
    Awaiting,
    /// Built [`Replica::joining`], and sent the table since.
    Transfer,
}

/// One member's replica of a [`Table`]: fed the member's session events
/// through [`Replica::on_event`] (or [`Replica::apply`], which never
/// sends), it keeps the table current and hands it to late joiners.
#[derive(Debug)]
pub struct Replica<T: Table> {
    me: NodeId,
    /// The table. Read it freely; it changes through the event feed.
    pub table: T,
    /// The last update applied: where in the agreed order the table stands.
    last: Option<OpId>,
    /// While [`Source::Awaiting`] nothing is applied: not until a
    /// transfer that names this member arrives.
    source: Source,
    /// What a joiner was delivered while it waited, in delivery order.
    backlog: Vec<(OpId, T::Op)>,
    /// Members removed while a joiner waited.
    gone: Vec<NodeId>,
    /// Members that joined and that no transfer delivered here has named.
    unserved: Vec<NodeId>,
    /// This replica multicast a transfer that has not come back yet.
    in_flight: bool,
}

impl<T: Table> Replica<T> {
    /// The replica at `me`, a member of the group from its founding:
    /// `table` is empty because nothing was ever applied.
    pub fn new(me: NodeId, table: T) -> Self {
        Replica {
            me,
            table,
            last: None,
            source: Source::Founding,
            backlog: Vec::new(),
            gone: Vec::new(),
            unserved: Vec::new(),
            in_flight: false,
        }
    }

    /// The replica at `me`, a node that joins a running group
    /// (`StartMode::Joining`, a restart): `table` is empty because it has
    /// not been told yet, and stays so until the group's transfer.
    pub fn joining(me: NodeId, table: T) -> Self {
        Replica {
            source: Source::Awaiting,
            ..Replica::new(me, table)
        }
    }

    /// The member this replica runs at.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// True once the table is the group's (always, unless built
    /// [`Replica::joining`]).
    pub fn synced(&self) -> bool {
        self.source != Source::Awaiting
    }

    /// Multicasts one update; it is applied, here as everywhere, when
    /// it is delivered.
    pub fn submit(&self, session: &mut SessionNode, op: T::Op) -> Result<()> {
        session.multicast(DeliveryMode::Agreed, Frame::<T>::Op(op).to_payload())?;
        Ok(())
    }

    /// Feeds one session event into the replica: a pure table update
    /// that sends nothing. Call it with *every* event, in order.
    pub fn apply(&mut self, event: &SessionEvent) {
        match event {
            SessionEvent::Delivery(d) => match Frame::<T>::from_payload(&d.payload) {
                Some(Frame::Op(op)) => {
                    let id = (d.origin, d.seq);
                    if !self.synced() {
                        self.backlog.push((id, op));
                    } else {
                        self.last = Some(id);
                        self.table.apply(&op);
                    }
                }
                Some(Frame::Transfer { to, last, image }) => {
                    self.unserved.retain(|m| !to.contains(m));
                    self.in_flight &= d.origin != self.me;
                    if !self.synced() && to.contains(&self.me) {
                        self.install(last, image);
                    }
                }
                None => {}
            },
            SessionEvent::MembershipChanged { added, removed, .. } => {
                self.unserved.retain(|m| !removed.contains(m));
                if !self.synced() {
                    self.gone.extend(removed);
                } else {
                    self.unserved.extend(added);
                    for node in removed {
                        self.table.purge(*node);
                    }
                }
            }
            // Enumerated so a new session event is a compile error here:
            // every variant must be consciously handled or ignored.
            SessionEvent::MulticastAtomic { .. }
            | SessionEvent::MasterAcquired
            | SessionEvent::MasterReleased
            | SessionEvent::Starving
            | SessionEvent::TokenRegenerated { .. }
            | SessionEvent::Merged { .. }
            | SessionEvent::ShutDown { .. } => {}
        }
    }

    /// A waiting replica takes the sender's table, then applies what the
    /// sender had not: every update it was delivered after `last` — all
    /// of them if that one was ordered before it joined — and the
    /// departures it saw meanwhile.
    fn install(&mut self, last: Option<OpId>, image: T::Image) {
        self.source = Source::Transfer;
        self.table.install(image);
        self.last = last;
        let backlog = std::mem::take(&mut self.backlog);
        let applied = backlog
            .iter()
            .rposition(|(id, _)| Some(*id) == last)
            .map_or(0, |at| at + 1);
        for (id, op) in backlog.into_iter().skip(applied) {
            self.last = Some(id);
            self.table.apply(&op);
        }
        for node in std::mem::take(&mut self.gone) {
            self.table.purge(node);
        }
    }

    /// [`Replica::apply`], plus the one thing a table update cannot do:
    /// while a joiner is unserved, the lowest member that has the table
    /// multicasts it — again, if the last sender left before its
    /// transfer was delivered. A replica built `new` beside a node that
    /// joined has no table to give: it was never sent the one it claims.
    pub fn on_event(&mut self, event: &SessionEvent, session: &mut SessionNode) {
        self.apply(event);
        let has_table = match self.source {
            Source::Founding => session.founded(),
            Source::Awaiting => false,
            Source::Transfer => true,
        };
        if !has_table || self.in_flight || self.unserved.is_empty() {
            return;
        }
        let served = session.ring().iter().filter(|m| !self.unserved.contains(m));
        if served.min() == Some(self.me) {
            let transfer = Frame::<T>::Transfer {
                to: self.unserved.clone(),
                last: self.last,
                image: self.table.image(),
            };
            let sent = session.multicast(DeliveryMode::Agreed, transfer.to_payload());
            self.in_flight = sent.is_ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::testkit::mk;
    use crate::{Delivery, StartMode};
    use raincore_types::{Ring, VipId};
    use std::marker::PhantomData;

    /// A table that is the list of the numbers applied to it, carried in
    /// an image of shape `I` (so that the transfer of every real table's
    /// image type can be put through the decoder from here).
    #[derive(Debug, Default)]
    struct Log<I = Vec<u64>>(Vec<u64>, PhantomData<I>);

    impl<I: WireEncode + WireDecode + Default + 'static> Table for Log<I> {
        type Op = u64;
        type Image = I;
        const MAGIC: &'static [u8; 4] = b"TLOG";

        fn apply(&mut self, op: &u64) {
            self.0.push(*op);
        }

        fn purge(&mut self, node: NodeId) {
            self.0.retain(|n| *n != u64::from(node.0));
        }

        fn image(&self) -> I {
            I::default()
        }

        fn install(&mut self, _: I) {
            self.0 = vec![1000];
        }
    }

    fn delivery(origin: u32, seq: u64, payload: Bytes) -> SessionEvent {
        SessionEvent::Delivery(Delivery {
            origin: NodeId(origin),
            seq: OriginSeq(seq),
            mode: DeliveryMode::Agreed,
            payload,
        })
    }

    fn joined(ring: &Ring, who: u32) -> SessionEvent {
        SessionEvent::MembershipChanged {
            ring: ring.clone(),
            added: vec![NodeId(who)],
            removed: vec![],
        }
    }

    /// Multicasts `node` has been asked for so far (asks for one more).
    fn submitted(node: &mut SessionNode) -> u64 {
        node.multicast(DeliveryMode::Agreed, Bytes::new())
            .unwrap()
            .0
    }

    #[test]
    fn frames_round_trip_and_foreign_payloads_are_not_frames() {
        let op = Frame::<Log>::Op(7).to_payload();
        assert!(matches!(
            Frame::<Log>::from_payload(&op),
            Some(Frame::Op(7))
        ));
        let last = Some((NodeId(1), OriginSeq(9)));
        let transfer = Frame::<Log>::Transfer {
            to: vec![NodeId(3), NodeId(4)],
            last,
            image: vec![5, 6],
        }
        .to_payload();
        match Frame::<Log>::from_payload(&transfer) {
            Some(Frame::Transfer { to, last: l, image }) => {
                assert_eq!(
                    (to, l, image),
                    (vec![NodeId(3), NodeId(4)], last, vec![5, 6])
                );
            }
            _ => panic!("the transfer did not decode"),
        }
        let mut trailing = transfer.to_vec();
        trailing.push(0);
        for foreign in [
            &b""[..],
            b"TLOG",
            b"RCTT",
            b"RCTTTLOG",
            b"RCLK\x07",
            &trailing,
        ] {
            assert!(Frame::<Log>::from_payload(foreign).is_none(), "{foreign:?}");
        }
    }

    #[test]
    fn the_lowest_member_that_has_the_table_sends_it_once_per_joiner() {
        let ring = Ring::from([0, 1, 2, 3]);
        let mut nodes: Vec<SessionNode> = (0..3)
            .map(|id| mk(id, 4, StartMode::Founding(ring.clone())))
            .collect();
        let mut replicas: Vec<Replica<Log>> = (0..3)
            .map(|id| Replica::new(NodeId(id), Log::default()))
            .collect();
        let feed = |replicas: &mut Vec<Replica<Log>>, nodes: &mut Vec<SessionNode>, ev| {
            for (replica, node) in replicas.iter_mut().zip(nodes.iter_mut()) {
                replica.on_event(&ev, node);
            }
        };
        feed(
            &mut replicas,
            &mut nodes,
            delivery(1, 0, Frame::<Log>::Op(7).to_payload()),
        );
        feed(&mut replicas, &mut nodes, joined(&ring, 3));
        // In flight: whatever else happens, it is not sent twice.
        feed(
            &mut replicas,
            &mut nodes,
            delivery(1, 1, Frame::<Log>::Op(8).to_payload()),
        );
        let counts: Vec<u64> = nodes.iter_mut().map(submitted).collect();
        assert_eq!(counts, [1, 0, 0], "n0 sends, and only n0");
        assert!(replicas[0].in_flight);
        let transfer = Frame::<Log>::Transfer {
            to: vec![NodeId(3)],
            last: Some((NodeId(1), OriginSeq(0))),
            image: vec![],
        };
        feed(
            &mut replicas,
            &mut nodes,
            delivery(0, 0, transfer.to_payload()),
        );
        feed(
            &mut replicas,
            &mut nodes,
            delivery(1, 2, Frame::<Log>::Op(9).to_payload()),
        );
        let counts: Vec<u64> = nodes.iter_mut().map(submitted).collect();
        assert_eq!(counts, [2, 1, 1], "served: nobody sends again");
        assert!(replicas
            .iter()
            .all(|r| r.unserved.is_empty() && !r.in_flight));
    }

    #[test]
    fn the_next_member_sends_when_the_sender_left_before_its_transfer_came() {
        // n1 and n2 after n0 is gone, n3 still unserved at both.
        let ring = Ring::from([1, 2, 3]);
        for (id, sends) in [(1, 1), (2, 0)] {
            let mut node = mk(id, 4, StartMode::Founding(ring.clone()));
            let mut replica = Replica::new(NodeId(id), Log::<Vec<u64>>::default());
            replica.apply(&joined(&Ring::from([0, 1, 2, 3]), 3));
            let left = SessionEvent::MembershipChanged {
                ring: ring.clone(),
                added: vec![],
                removed: vec![NodeId(0)],
            };
            replica.on_event(&left, &mut node);
            assert_eq!(submitted(&mut node), sends, "n{id}");
        }
        // A joiner that left again is owed nothing.
        let mut node = mk(1, 4, StartMode::Founding(Ring::from([1, 2])));
        let mut replica = Replica::new(NodeId(1), Log::<Vec<u64>>::default());
        replica.apply(&joined(&ring, 3));
        let left = SessionEvent::MembershipChanged {
            ring: Ring::from([1, 2]),
            added: vec![],
            removed: vec![NodeId(3)],
        };
        replica.on_event(&left, &mut node);
        assert_eq!(submitted(&mut node), 0);
        // A replica built `new` beside a node that joined the group took
        // its empty table for the group's: it is not one to hand it on.
        let mut node = mk(1, 4, StartMode::Joining);
        let mut replica = Replica::new(NodeId(1), Log::<Vec<u64>>::default());
        replica.on_event(&joined(&ring, 3), &mut node);
        assert_eq!(submitted(&mut node), 0);
    }

    #[test]
    fn a_waiting_replica_applies_and_sends_nothing_until_it_is_named() {
        let ring = Ring::from([0, 1, 2]);
        let mut node = mk(0, 3, StartMode::Founding(ring.clone()));
        let mut replica = Replica::joining(NodeId(0), Log::<Vec<u64>>::default());
        replica.on_event(&joined(&ring, 1), &mut node);
        replica.on_event(&delivery(1, 4, Frame::<Log>::Op(4).to_payload()), &mut node);
        replica.on_event(&delivery(2, 0, Frame::<Log>::Op(2).to_payload()), &mut node);
        let transfer = |to: u32| Frame::<Log>::Transfer {
            to: vec![NodeId(to)],
            last: Some((NodeId(1), OriginSeq(4))),
            image: vec![],
        };
        replica.on_event(&delivery(1, 5, transfer(2).to_payload()), &mut node);
        assert!(!replica.synced() && replica.table.0.is_empty());
        let left = SessionEvent::MembershipChanged {
            ring: Ring::from([0, 1]),
            added: vec![],
            removed: vec![NodeId(2)],
        };
        replica.on_event(&left, &mut node);
        replica.on_event(&delivery(1, 6, transfer(0).to_payload()), &mut node);
        assert!(replica.synced());
        assert_eq!(
            replica.table.0,
            [1000],
            "installed, replayed after `last`, purged"
        );
        assert_eq!(replica.last, Some((NodeId(2), OriginSeq(0))));
        assert_eq!(
            submitted(&mut node),
            0,
            "lowest id, but it had no table to send"
        );
    }

    /// xorshift64: the fuzz below is the same run every time.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Truncations, bit flips and oversized counts of a valid transfer of
    /// `image`: none may panic, what decodes holds no more elements than
    /// the payload has bytes, and only a transfer that decodes ends a
    /// replica's wait.
    fn fuzz<I>(image: I, elements: fn(&I) -> usize)
    where
        I: WireEncode + WireDecode + Default + 'static,
    {
        let valid = Frame::<Log<I>>::Transfer {
            to: vec![NodeId(3), NodeId(70_000)],
            last: Some((NodeId(1), OriginSeq(300))),
            image,
        };
        let valid = valid.to_payload();
        assert!(Frame::<Log<I>>::from_payload(&valid).is_some());
        let mut state = 0x9e37_79b9_7f4a_7c15 ^ valid.len() as u64;
        let mut cases: Vec<Vec<u8>> = (0..valid.len()).map(|n| valid[..n].to_vec()).collect();
        for _ in 0..4000 {
            let mut bytes = valid.to_vec();
            let at = next(&mut state) as usize % bytes.len();
            match next(&mut state) % 3 {
                0 => bytes[at] ^= 1 << (next(&mut state) % 8),
                1 => bytes[at] = next(&mut state) as u8,
                // A count far past the end of the payload.
                _ => drop(bytes.splice(at..at + 1, [0xff, 0xff, 0xff, 0xff, 0x0f])),
            }
            cases.push(bytes);
        }
        let mut rejected = 0;
        for bytes in cases {
            let mut replica = Replica::joining(NodeId(3), Log::<I>::default());
            replica.apply(&delivery(0, 0, Bytes::from(bytes.clone())));
            match Frame::<Log<I>>::from_payload(&bytes) {
                Some(Frame::Transfer { to, image, .. }) => {
                    assert!(to.len() + elements(&image) <= bytes.len());
                    assert_eq!(replica.synced(), to.contains(&NodeId(3)));
                }
                Some(Frame::Op(_)) => assert!(!replica.synced()),
                None => {
                    rejected += 1;
                    assert!(!replica.synced(), "{bytes:?} ended the wait");
                }
            }
        }
        assert!(rejected > valid.len(), "the fuzz rejected next to nothing");
    }

    #[test]
    fn hostile_transfers_of_every_table_shape_are_rejected_whole() {
        // The lock table: (lock, owner, (depth, waiters)) per held lock.
        type Locks = Vec<(String, NodeId, (u64, Vec<NodeId>))>;
        let locks: Locks = vec![
            ("config".into(), NodeId(1), (2, vec![NodeId(0), NodeId(3)])),
            ("table:users".into(), NodeId(0), (1, vec![])),
        ];
        fuzz::<Locks>(locks, |l| l.iter().map(|(_, _, (_, w))| 1 + w.len()).sum());
        // The store: live keys, then the graveyard.
        type Kv = (Vec<(String, u64, Bytes)>, Vec<(String, u64)>);
        let kv: Kv = (
            vec![
                ("hits".into(), 61, Bytes::from_static(b"\xca\x01")),
                ("leader".into(), 2, Bytes::from_static(b"node-1")),
            ],
            vec![("gone".into(), 1)],
        );
        fuzz::<Kv>(kv, |(live, dead)| live.len() + dead.len());
        // The VIP table: the assignment, then the pins.
        type Vips = (Vec<(VipId, NodeId)>, Vec<VipId>);
        let vips: Vips = (
            (0..6).map(|v| (VipId(v), NodeId(v % 3))).collect(),
            vec![VipId(0), VipId(4)],
        );
        fuzz::<Vips>(vips, |(owners, pinned)| owners.len() + pinned.len());
    }
}
