//! Golden wire vectors: the exact bytes of one value of every declared
//! wire format, from the session messages to the application payloads.
//!
//! A round trip passes even when an encoder and its decoder reorder the
//! same fields together; these vectors do not. Each value is encoded and
//! compared with its recorded hex, decoded back from that hex, and its
//! exact length ([`WireEncode::encoded_len`]) is checked against the
//! bytes. A vector moves only with a deliberate change of the format.

use bytes::Bytes;
use raincore::data::DataOp;
use raincore::dlm::ops::HeldLock;
use raincore::dlm::LockOp;
use raincore::net::{Addr, PacketClass};
use raincore::rainwall::engine::LoadReport;
use raincore::rainwall::{AppPacket, FlowKey};
use raincore::types::messages::{
    Attached, AttachedBody, BodyOdor, BulkData, BulkNack, Call911, DeliveryMode, OpenSubmit,
    Reply911, SessionMsg, Token, TraceCtx, Verdict911,
};
use raincore::types::wire::{WireDecode, WireEncode};
use raincore::types::{GroupId, NodeId, OriginSeq, Ring, VipId};
use raincore::vip::manager::AssignBatch;
use std::fmt::Debug;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
        .collect()
}

/// Checks `value` against its recorded wire image `want` in all three
/// directions: encode, exact length and decode.
fn golden<T: WireEncode + WireDecode + PartialEq + Debug>(name: &str, value: &T, want: &str) {
    let wire = value.encode_to_bytes();
    assert_eq!(hex(&wire), want, "{name}: encoded bytes");
    assert_eq!(value.encoded_len(), wire.len(), "{name}: encoded_len");
    assert_eq!(
        &T::decode_from_bytes(&unhex(want)).unwrap(),
        value,
        "{name}: decode"
    );
}

fn n(id: u32) -> NodeId {
    NodeId(id)
}

fn flow() -> FlowKey {
    FlowKey {
        client: n(2000),
        id: 70_000,
    }
}

fn token() -> Token {
    let mut token = Token::founding(Ring::from_iter([n(1), n(300), n(2)]));
    token.seq = 1_000_000;
    token.trace = TraceCtx {
        circ: 1 << 40,
        hop: 129,
        parent: 5,
    };
    token.tbm = true;
    token.msgs.push(Attached {
        origin: n(300),
        seq: OriginSeq(7),
        mode: DeliveryMode::Safe,
        seen: [n(300), n(1)].into_iter().collect(),
        confirmed: [n(300)].into_iter().collect(),
        body: AttachedBody::Inline(Bytes::from_static(b"hi")),
    });
    token.msgs.push(Attached::new_oob(
        n(2),
        OriginSeq(200),
        DeliveryMode::Agreed,
        9000,
    ));
    token
}

#[test]
fn session_messages() {
    let token = token();
    assert_eq!(token.wire_len(), 1 + token.encoded_len(), "tag included");
    golden(
        "SessionMsg::Token",
        &SessionMsg::Token(token),
        "00c0843d8080808080208101050301ac02020102ac02070102ac020101ac020002686902c8010001020001a846",
    );
    golden(
        "SessionMsg::Call911",
        &SessionMsg::Call911(Call911 {
            from: n(300),
            last_token_seq: 1_000_000,
            req_id: 3,
        }),
        "01ac02c0843d03",
    );
    golden(
        "SessionMsg::Reply911",
        &SessionMsg::Reply911(Reply911 {
            from: n(4),
            req_id: 3,
            verdict: Verdict911::Deny { newer_seq: 128 },
        }),
        "020403018001",
    );
    golden(
        "SessionMsg::BodyOdor",
        &SessionMsg::BodyOdor(BodyOdor {
            from: n(5),
            group: GroupId(n(130)),
        }),
        "03058201",
    );
    golden(
        "SessionMsg::Open",
        &SessionMsg::Open(OpenSubmit {
            from: n(99),
            seq: OriginSeq(1 << 20),
            payload: Bytes::from_static(b"out"),
        }),
        "0463808040036f7574",
    );
    golden(
        "SessionMsg::Bulk",
        &SessionMsg::Bulk(BulkData {
            origin: n(2),
            seq: OriginSeq(7),
            payload: Bytes::from_static(b"bulk"),
        }),
        "0502070462756c6b",
    );
    golden(
        "SessionMsg::BulkNack",
        &SessionMsg::BulkNack(BulkNack {
            from: n(5),
            origin: n(2),
            seq: OriginSeq(7),
        }),
        "06050207",
    );
    golden("SessionMsg::Probe", &SessionMsg::Probe, "07");
}

#[test]
fn session_message_parts() {
    golden(
        "AttachedBody::Inline",
        &AttachedBody::Inline(Bytes::from_static(b"abc")),
        "0003616263",
    );
    golden(
        "AttachedBody::Oob",
        &AttachedBody::Oob { len: 70_000 },
        "01f0a204",
    );
    golden("Verdict911::Grant", &Verdict911::Grant, "00");
    golden(
        "Verdict911::Deny",
        &Verdict911::Deny { newer_seq: 300 },
        "01ac02",
    );
}

#[test]
fn network_addresses() {
    golden("Addr", &Addr::new(n(300), 2), "ac0202");
    golden("PacketClass::Control", &PacketClass::Control, "00");
    golden("PacketClass::Data", &PacketClass::Data, "01");
}

#[test]
fn lock_manager() {
    golden(
        "HeldLock",
        &HeldLock {
            lock: "master".into(),
            owner: n(3),
            depth: 200,
            waiters: vec![n(1), n(300)],
        },
        "066d617374657203c8010201ac02",
    );
    golden(
        "LockOp::Acquire",
        &LockOp::Acquire {
            lock: "l".into(),
            node: n(300),
        },
        "00016cac02",
    );
    golden(
        "LockOp::Release",
        &LockOp::Release {
            lock: "l".into(),
            node: n(1),
        },
        "01016c01",
    );
}

#[test]
fn data_store() {
    golden(
        "DataOp::Put",
        &DataOp::Put {
            key: "k".into(),
            value: Bytes::from_static(b"v"),
            by: n(1),
        },
        "00016b017601",
    );
    golden(
        "DataOp::Delete",
        &DataOp::Delete {
            key: "k".into(),
            by: n(300),
        },
        "01016bac02",
    );
    golden(
        "DataOp::Cas",
        &DataOp::Cas {
            key: "k".into(),
            expect_version: 128,
            value: Bytes::from_static(b"w"),
            by: n(2),
        },
        "02016b8001017702",
    );
    golden(
        "DataOp::Add",
        &DataOp::Add {
            key: "n".into(),
            delta: -65,
            by: n(3),
        },
        "03016e810103",
    );
}

#[test]
fn vip_manager() {
    golden(
        "AssignBatch",
        &AssignBatch {
            assigns: vec![(VipId(1), n(2)), (VipId(200), n(300))],
            pinned: true,
        },
        "01020102c801ac02",
    );
}

#[test]
fn rainwall() {
    golden(
        "AppPacket::Request",
        &AppPacket::Request {
            flow: flow(),
            vip: VipId(3),
            object_bytes: 100_000,
        },
        "00d00ff0a20403a08d06",
    );
    golden(
        "AppPacket::HandOff",
        &AppPacket::HandOff {
            flow: flow(),
            vip: VipId(3),
            client_addr: Addr::new(n(2000), 1),
            object_bytes: 5,
        },
        "01d00ff0a20403d00f0105",
    );
    golden(
        "AppPacket::FetchReq",
        &AppPacket::FetchReq {
            flow: flow(),
            object_bytes: 1 << 20,
        },
        "02d00ff0a204808040",
    );
    golden(
        "AppPacket::Chunk",
        &AppPacket::Chunk {
            flow: flow(),
            seq: 130,
            last: true,
            fill: Bytes::from_static(b"\0\0\0"),
        },
        "03d00ff0a20482010103000000",
    );
    let report = LoadReport {
        node: n(300),
        active: 129,
        flows: vec![(flow(), Addr::new(n(2000), 0))],
    };
    let payload = report.to_payload();
    assert_eq!(
        hex(&payload),
        "52434c57ac02810101d00ff0a204d00f00",
        "LoadReport payload"
    );
    assert_eq!(LoadReport::from_payload(&payload), Some(report));
}
