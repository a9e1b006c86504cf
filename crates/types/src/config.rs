//! Configuration for the transport and session layers.

use crate::id::NodeId;
use crate::time::Duration;

/// How the transport uses a peer's multiple physical addresses (§2.1).
///
/// The Raincore Transport Service lets each node have several physical
/// addresses (redundant links); sends can walk them sequentially or fan
/// out in parallel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendStrategy {
    /// Try address 0; on retry exhaustion move to address 1; and so on.
    Sequential,
    /// Send every attempt on all addresses simultaneously; first ack wins.
    Parallel,
}

/// Configuration of the Raincore Transport Service (§2.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransportConfig {
    /// The **ceiling** of the retransmission timeout: how long to wait
    /// for an acknowledgement from a peer nothing has been measured of —
    /// a cold peer, a peer that just failed, a peer in a new incarnation.
    /// Once an acknowledgement of a never-retransmitted message has been
    /// timed, the transport arms `srtt + 4·rttvar` of that peer instead
    /// (RFC 6298 estimator), no lower than `raincore_transport::MIN_RTO`
    /// (16 ms) and never above this value. A value at or under that floor
    /// therefore turns the estimator off: every timeout is exactly this
    /// (DESIGN.md §17.2).
    pub retry_timeout: Duration,
    /// Number of transmissions (1 original + `max_retries - 1` retries)
    /// per physical address before moving on / reporting failure. The
    /// retries are evenly spaced, one retransmission timeout apart, so
    /// failure-on-delivery of a measured LAN peer takes `max_retries ×
    /// 16 ms` per address, of an unmeasured one `max_retries ×
    /// retry_timeout`.
    pub max_retries: u32,
    /// Multi-address send strategy.
    pub strategy: SendStrategy,
    /// Maximum bytes per network datagram; larger messages are fragmented
    /// and reassembled by the transport.
    pub mtu: usize,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            retry_timeout: Duration::from_millis(50),
            max_retries: 3,
            strategy: SendStrategy::Sequential,
            mtu: 1400,
        }
    }
}

impl TransportConfig {
    /// Validates the configuration, returning a human-readable reason on
    /// rejection.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.max_retries == 0 {
            return Err("max_retries must be at least 1");
        }
        if self.mtu < 64 {
            return Err("mtu must be at least 64 bytes");
        }
        if self.retry_timeout.is_zero() {
            return Err("retry_timeout must be positive");
        }
        Ok(())
    }
}

/// Configuration of the Raincore Distributed Session Service (§2.2–2.4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionConfig {
    /// How long a node holds a token *that still has room* (EATING)
    /// before passing it on, so that more multicasts can board the
    /// datagrams the hop pays for anyway. A token that already fills two
    /// transport datagrams — with what it carries plus what is queued to
    /// attach — is passed at once instead, except by the ring's first
    /// member, which keeps such a ring to one round per `n × token_hold
    /// / 3` on its own clock (DESIGN.md §16). Together with ring size and
    /// link latency this therefore sets `L`, the token round frequency
    /// of §4.1, for the *idle* ring; a loaded ring turns three times as
    /// fast.
    pub token_hold: Duration,
    /// The longest a node stays HUNGRY before it suspects token loss and
    /// enters STARVING (§2.3) whatever it has heard: the backstop. A node
    /// that has seen four rotations asks the member it passed the token
    /// to after `2·rotation + 1·give-up` (the transport's budget for that
    /// peer), and starves as soon as that question fails on delivery
    /// (DESIGN.md §17.3); this timeout is what fires before then, on a
    /// ring where that sum is no shorter and for a node no pass made
    /// hungry. Should comfortably exceed one expected token round trip,
    /// and how long a member may keep the master lock.
    pub hungry_timeout: Duration,
    /// How long a STARVING node waits for 911 verdicts before giving up
    /// and re-calling 911.
    pub starving_retry: Duration,
    /// Period of the BODYODOR discovery beacon (§2.4) — "a small message
    /// sent with a regular, but low frequency".
    pub beacon_period: Duration,
    /// Every node this member may ever form a group with (the Eligible
    /// Membership, §2.4). Must contain the local node.
    pub eligible: Vec<NodeId>,
    /// Size threshold (bytes) above which a multicast payload is
    /// disseminated out of band as bulk frames while the token carries
    /// only an id-manifest entry (Ring Paxos split). Payloads strictly
    /// smaller than the threshold ride the token inline as before. `0`
    /// disables the out-of-band path entirely (every payload piggybacks).
    pub bulk_threshold: usize,
    /// Test-only fault dial: deliver an ordered manifest id even when the
    /// out-of-band payload has not arrived (an empty payload is delivered
    /// in its place). Exists so the model checker and chaos harness can
    /// demonstrate the id-without-payload hazard their completeness
    /// oracle guards against. Never enable outside verification.
    pub bulk_blind_delivery: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            token_hold: Duration::from_millis(10),
            hungry_timeout: Duration::from_millis(500),
            starving_retry: Duration::from_millis(200),
            beacon_period: Duration::from_secs(1),
            eligible: Vec::new(),
            bulk_threshold: 0,
            bulk_blind_delivery: false,
        }
    }
}

impl SessionConfig {
    /// Convenience: a config whose eligible membership is nodes `0..n`.
    pub fn for_cluster(n: u32) -> Self {
        SessionConfig {
            eligible: (0..n).map(NodeId).collect(),
            ..Default::default()
        }
    }

    /// Sets the token hold time so that (ignoring network latency) an
    /// idle ring of `n` nodes completes about `rounds_per_sec` token round
    /// trips per second — the paper's `L` parameter (§4.1). It is the
    /// idle round rate, and a floor: the hold paces only tokens that have
    /// room, and a ring whose token is full turns at three times
    /// `rounds_per_sec` (see [`SessionConfig::token_hold`]).
    pub fn with_token_rate(mut self, n: u32, rounds_per_sec: f64) -> Self {
        let round = Duration::from_secs_f64(1.0 / rounds_per_sec.max(1e-6));
        self.token_hold = round.div(u64::from(n.max(1)));
        self
    }

    /// Validates the configuration, returning a human-readable reason on
    /// rejection.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.token_hold.is_zero() {
            return Err("token_hold must be positive");
        }
        if self.hungry_timeout <= self.token_hold {
            return Err("hungry_timeout must exceed token_hold");
        }
        if self.starving_retry.is_zero() {
            return Err("starving_retry must be positive");
        }
        if self.beacon_period.is_zero() {
            return Err("beacon_period must be positive");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        TransportConfig::default().validate().unwrap();
        SessionConfig::default().validate().unwrap();
    }

    #[test]
    fn transport_rejects_bad_values() {
        let c = TransportConfig {
            max_retries: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = TransportConfig {
            mtu: 10,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = TransportConfig {
            retry_timeout: Duration::ZERO,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn session_rejects_bad_values() {
        let c = SessionConfig {
            token_hold: Duration::ZERO,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let base = SessionConfig::default();
        let c = SessionConfig {
            hungry_timeout: base.token_hold,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = SessionConfig {
            starving_retry: Duration::ZERO,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        // A zero period would re-arm the beacon at `now` forever while
        // an eligible member is absent.
        let c = SessionConfig {
            beacon_period: Duration::ZERO,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn bulk_dials_validate_only_when_enabled() {
        // The one bulk dial left is the threshold, and every value of it
        // is a configuration: 0 keeps every payload on the token.
        for bulk_threshold in [0, 512] {
            let c = SessionConfig {
                bulk_threshold,
                ..Default::default()
            };
            c.validate().unwrap();
        }
    }

    #[test]
    fn for_cluster_fills_eligible() {
        let c = SessionConfig::for_cluster(4);
        assert_eq!(c.eligible, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn token_rate_math() {
        // 4 nodes, 10 rounds/sec → 100 ms per round → 25 ms hold per node.
        let c = SessionConfig::for_cluster(4).with_token_rate(4, 10.0);
        assert_eq!(c.token_hold, Duration::from_millis(25));
    }
}
