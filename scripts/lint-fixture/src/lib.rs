//! Seeded violations, one per rule family of DESIGN.md §6b: a panic path
//! (`unwrap`), a wall clock (`Instant`, via the root `clippy.toml`), a
//! catch-all arm over an enum and a socket bound outside the one socket
//! path (`UdpSocket::bind`, via the root `clippy.toml`).
//! `scripts/check.sh` requires clippy to report all four.
#![deny(clippy::unwrap_used, clippy::wildcard_enum_match_arm)]

pub enum Msg {
    Token,
    Call911,
    Reply911,
}

pub fn dispatch(msg: Msg, hop: Option<u32>) -> u32 {
    let started = std::time::Instant::now();
    match msg {
        Msg::Token => hop.unwrap(),
        _ => started.elapsed().subsec_nanos(),
    }
}

pub fn side_channel() -> std::io::Result<std::net::UdpSocket> {
    std::net::UdpSocket::bind("127.0.0.1:0")
}
