//! The simulator's stepping (DESIGN.md §7): a member is ticked exactly at
//! its wakeup, members due at one instant are ticked in id order however
//! they came to be due, and a wakeup that a datagram moved — later or
//! earlier — is the one honoured.

use bytes::Bytes;
use raincore_net::{Addr, Datagram, PacketClass};
use raincore_sim::{ClusterBuilder, ClusterConfig, NodeApp, NodeCtl};
use raincore_types::{Duration, NodeId, Time};
use std::cell::RefCell;
use std::rc::Rc;

type Log = Rc<RefCell<Vec<(u32, Time)>>>;

fn ms(n: u64) -> Time {
    Time::ZERO + Duration::from_millis(n)
}

/// Logs each tick and, once due, needs none; a datagram sets its wakeup to
/// `on_data`; its tick sends one datagram to each of `sends`, in order.
struct Host {
    wakeup: Option<Time>,
    on_data: Option<Time>,
    sends: Vec<u32>,
    log: Log,
}

impl NodeApp for Host {
    fn on_data(&mut self, _: &mut NodeCtl<'_>, _: Datagram) {
        self.wakeup = self.on_data;
    }

    fn on_tick(&mut self, ctl: &mut NodeCtl<'_>) {
        // Every tick is logged: one before the wakeup would be a no-op,
        // and a simulator that makes one is not stepping exactly.
        self.log.borrow_mut().push((ctl.id.0, ctl.now));
        if self.wakeup.is_none_or(|t| t > ctl.now) {
            return;
        }
        self.wakeup = None;
        for &to in &self.sends {
            ctl.send(Datagram {
                src: Addr::primary(ctl.id),
                dst: Addr::primary(NodeId(to)),
                class: PacketClass::Data,
                payload: Bytes::from_static(b"x"),
            });
        }
    }

    fn next_wakeup(&self) -> Option<Time> {
        self.wakeup
    }
}

#[test]
fn equal_wakeups_tick_in_id_order_and_a_moved_wakeup_is_the_one_kept() {
    let log = Log::default();
    let host = |wakeup, on_data, sends: &[u32]| {
        Box::new(Host {
            wakeup,
            on_data,
            sends: sends.to_vec(),
            log: log.clone(),
        })
    };
    let mut b = ClusterBuilder::new(ClusterConfig::default());
    // Host 9 wakes at 1 ms and reaches 3, 2, 1, 0 — in descending order,
    // so they are re-keyed highest id first — then 4 and 5.
    b = b
        .plain_host(NodeId(9))
        .app(NodeId(9), host(Some(ms(1)), None, &[3, 2, 1, 0, 4, 5]));
    for id in 0..4 {
        b = b
            .plain_host(NodeId(id))
            .app(NodeId(id), host(None, Some(ms(50)), &[]));
    }
    // 4 is moved from 30 ms to 40 ms, 5 from 30 ms to 20 ms.
    b = b
        .plain_host(NodeId(4))
        .app(NodeId(4), host(Some(ms(30)), Some(ms(40)), &[]));
    b = b
        .plain_host(NodeId(5))
        .app(NodeId(5), host(Some(ms(30)), Some(ms(20)), &[]));
    let mut c = b.build().expect("cluster");
    c.run_until(ms(100));
    let expected = vec![
        (9, ms(1)),
        (5, ms(20)),
        (4, ms(40)),
        (0, ms(50)),
        (1, ms(50)),
        (2, ms(50)),
        (3, ms(50)),
    ];
    assert_eq!(*log.borrow(), expected);
}
