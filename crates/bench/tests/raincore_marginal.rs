//! E2's Raincore row: multicasts ride the token, so the marginal packet
//! count is exactly zero at every cluster size.
//!
//! The margin is taken against an idle twin of the same cluster over the
//! same window. Subtracting an earlier idle window of the same cluster
//! instead compares two phases of the rotation, which differ by whole
//! token hops (−2 packets at N = 8).

use raincore_bench::experiments::netoverhead;

#[test]
fn piggybacked_multicasts_add_no_packet() {
    for n in [2, 4, 8, 16] {
        let raincore = &netoverhead(n, 1024)[0];
        assert_eq!(raincore.protocol, "raincore (marginal)");
        assert_eq!(raincore.packets, 0, "N={n}");
        assert!(raincore.bytes > 0, "N={n}: the messages travelled");
    }
}
