//! Seeded violations, one per rule family of DESIGN.md §6b: a panic path
//! (`unwrap`), a wall clock (`Instant`, via the root `clippy.toml`) and a
//! catch-all arm over an enum. `scripts/check.sh` requires clippy to
//! report all three.
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
