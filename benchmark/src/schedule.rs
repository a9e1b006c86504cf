//! Seeded inputs. Everything the program under test sees — arrival
//! instants, origins, sizes, modes, lock requests, unplug instants, the
//! simulator script and every payload byte — is generated here, up front,
//! from `--seed`. The generator is a frozen SplitMix64 kept in this file
//! so that a change to the repository's `rand` stand-in cannot move the
//! benchmark's inputs.

use crate::pinned as P;
use bytes::Bytes;

const NS_PER_MS: u64 = 1_000_000;
const NS_PER_S: u64 = 1_000_000_000;

/// SplitMix64 (Steele, Lea, Flood 2014), the reference constants.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n > 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Exponential inter-arrival gap, ns, for `rate` events per second.
    pub fn exp_gap_ns(&mut self, rate: f64) -> u64 {
        (-(1.0 - self.unit()).ln() / rate * NS_PER_S as f64) as u64
    }
}

/// Delivery mode of a scheduled message (mapped onto
/// `raincore_types::DeliveryMode` by the driver).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Agreed,
    Safe,
}

/// One scheduled multicast of an open-loop workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Msg {
    pub origin: u32,
    pub len: u32,
    pub mode: Mode,
    /// Rate step the message belongs to (0 = warm-up, then 1..).
    pub step: u8,
}

/// What the submitter does at one scheduled instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Act {
    Send(Msg),
    /// `request_master` at the lock node.
    LockRequest,
    /// Unplug / replug the flapping node at the proxy.
    Unplug,
    Replug,
}

/// Open-loop inputs: actions ordered by their due instant (ns after the
/// start of the warm-up).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpenSchedule {
    pub acts: Vec<(u64, Act)>,
    /// Ends of the steps, ns after the start of the warm-up; step `k`
    /// (0 = warm-up) is `[ends[k-1], ends[k])`.
    pub step_ends: Vec<u64>,
}

impl OpenSchedule {
    /// The schedule as bytes, for the same-seed / other-seed test.
    #[cfg(test)]
    pub fn to_bytes(&self) -> Vec<u8> {
        format!("{self:?}").into_bytes()
    }
}

/// Payload of workload message `index`: eight bytes of index, then the
/// word `key(seed, index, len)` repeated to `len` bytes. `len >= 16`.
pub fn payload(seed: u64, index: u64, len: u32) -> Bytes {
    let word = payload_word(seed, index, len).to_le_bytes();
    let mut buf = Vec::with_capacity(len as usize);
    buf.extend_from_slice(&index.to_le_bytes());
    while buf.len() < len as usize {
        let take = (len as usize - buf.len()).min(8);
        buf.extend_from_slice(&word[..take]);
    }
    Bytes::from(buf)
}

fn payload_word(seed: u64, index: u64, len: u32) -> u64 {
    SplitMix64::new(seed ^ index.rotate_left(32) ^ u64::from(len)).next_u64()
}

/// The index a delivered payload claims, and whether every byte is what
/// [`payload`] generates for that index and this length.
pub fn verify_payload(seed: u64, data: &[u8]) -> (u64, bool) {
    let Some(head) = data.get(..8) else {
        return (u64::MAX, false);
    };
    let index = u64::from_le_bytes(head.try_into().expect("eight bytes"));
    let word = payload_word(seed, index, data.len() as u32).to_le_bytes();
    let intact = data[8..]
        .chunks(8)
        .all(|chunk| chunk == &word[..chunk.len()]);
    (index, intact)
}

/// `udp_paced_mix`: exponential arrivals at the warm-up rate (the low
/// step's) and then the three frozen steps, each message's origin drawn
/// from nodes `0..nodes-1` (the last node is the lock cycler and timing
/// member and never originates) and its class from the 70/20/10 mix; a
/// lock request every `MIX_LOCK_PERIOD_MS` from a seeded phase.
pub fn paced_mix(seed: u64, rates: [f64; 3], warmup_ns: u64, window_ns: u64) -> OpenSchedule {
    let mut rng = SplitMix64::new(seed);
    let step_ns = window_ns / 3;
    let mut acts = Vec::new();
    let mut step_ends = vec![warmup_ns];
    let mut t = 0u64;
    for (step, rate) in [rates[0], rates[0], rates[1], rates[2]]
        .into_iter()
        .enumerate()
    {
        let end = if step == 0 {
            warmup_ns
        } else {
            warmup_ns + step as u64 * step_ns
        };
        if step > 0 {
            step_ends.push(end);
        }
        loop {
            t += rng.exp_gap_ns(rate);
            if t >= end {
                t = end;
                break;
            }
            let origin = rng.below(u64::from(P::MIX_NODES) - 1) as u32;
            let class = rng.below(1000) as u32;
            let (len, mode) = if class < P::MIX_SHARES[0] {
                (P::MIX_SMALL_LEN, Mode::Agreed)
            } else if class < P::MIX_SHARES[0] + P::MIX_SHARES[1] {
                (P::MIX_OOB_LEN, Mode::Agreed)
            } else {
                (P::MIX_SAFE_LEN, Mode::Safe)
            };
            acts.push((
                t,
                Act::Send(Msg {
                    origin,
                    len,
                    mode,
                    step: step as u8,
                }),
            ));
        }
    }
    let period = P::MIX_LOCK_PERIOD_MS * NS_PER_MS;
    let mut t = rng.below(period);
    while t < warmup_ns + 3 * step_ns {
        acts.push((t, Act::LockRequest));
        t += period;
    }
    acts.sort_by_key(|&(due, _)| due);
    OpenSchedule { acts, step_ends }
}

/// `udp_failover`: nodes 0 and 1 each submit one message per period, at
/// a seeded instant within it (a fixed phase would beat against the token
/// rotation and give every seed its own latency offset; Poisson arrivals
/// would make the delivered count itself noisy); every cycle unplugs the
/// flapping node at a seeded instant, replugs it `FAILOVER_DOWN_MS` later
/// and stays calm until the cycle ends. As many whole cycles as the
/// window holds.
pub fn failover(seed: u64, warmup_ns: u64, window_ns: u64) -> OpenSchedule {
    let mut rng = SplitMix64::new(seed);
    let end = warmup_ns + window_ns;
    let mut acts = Vec::new();
    let period = NS_PER_S / P::FAILOVER_RATE_PER_ORIGIN;
    for origin in 0..2u32 {
        for slot in 0..end / period {
            let t = slot * period + rng.below(period);
            let msg = Msg {
                origin,
                len: P::FAILOVER_LEN,
                mode: Mode::Agreed,
                step: u8::from(t >= warmup_ns),
            };
            acts.push((t, Act::Send(msg)));
        }
    }
    let cycle = (P::FAILOVER_JITTER_MS + P::FAILOVER_DOWN_MS + P::FAILOVER_CALM_MS) * NS_PER_MS;
    let mut step_ends = vec![warmup_ns];
    let mut start = warmup_ns;
    while start + cycle <= end {
        let unplug = start + rng.below(P::FAILOVER_JITTER_MS * NS_PER_MS);
        acts.push((unplug, Act::Unplug));
        acts.push((unplug + P::FAILOVER_DOWN_MS * NS_PER_MS, Act::Replug));
        start += cycle;
        step_ends.push(start);
    }
    acts.sort_by_key(|&(due, _)| due);
    OpenSchedule { acts, step_ends }
}

/// One scripted operation of a `sim_core` node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimOp {
    /// 128 B `Agreed` multicast carrying this workload index.
    Msg(u64),
    /// `DataStore::add` on the shared counter.
    DataAdd,
    /// `DataStore::cas` on this node's key.
    DataCas,
    /// `LockManager::lock` on one of four names; unlocked on grant.
    Lock(u8),
}

/// `sim_core`: per node, exponential arrivals of each operation class at
/// the pinned rates over `SIM_SECONDS`; the crash node's script ends
/// shortly before the crash (it comes back as a receiver only, because a
/// restarted origin reuses its sequence numbers). `script[node]` is ordered by
/// simulated due instant, ns.
pub fn sim_script(seed: u64) -> Vec<Vec<(u64, SimOp)>> {
    let mut rng = SplitMix64::new(seed);
    let mut index = 0u64;
    (0..P::SIM_NODES)
        .map(|node| {
            let end = if node == P::SIM_CRASH_NODE {
                P::SIM_CRASH_AT_S * NS_PER_S - P::SIM_CRASH_QUIET_MS * NS_PER_MS
            } else {
                P::SIM_SECONDS * NS_PER_S
            };
            let mut ops = Vec::new();
            // The first 200 ms are left to ring formation and the warm-up
            // delivery.
            let classes = [
                P::SIM_MSG_PER_S,
                P::SIM_DATA_OPS_PER_S,
                P::SIM_LOCK_OPS_PER_S,
            ];
            for (class, rate) in classes.into_iter().enumerate() {
                let mut t = 200 * NS_PER_MS;
                loop {
                    t += rng.exp_gap_ns(rate);
                    if t >= end {
                        break;
                    }
                    let op = match class {
                        0 => {
                            index += 1;
                            SimOp::Msg(index)
                        }
                        1 if rng.below(2) == 0 => SimOp::DataAdd,
                        1 => SimOp::DataCas,
                        _ => SimOp::Lock(rng.below(4) as u8),
                    };
                    ops.push((t, op));
                }
            }
            ops.sort_by_key(|&(due, _)| due);
            ops
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u64 = NS_PER_S;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let a = paced_mix(7, P::MIX_RATES, S, 9 * S).to_bytes();
        assert_eq!(a, paced_mix(7, P::MIX_RATES, S, 9 * S).to_bytes());
        assert_ne!(a, paced_mix(8, P::MIX_RATES, S, 9 * S).to_bytes());
        let f = failover(7, S, 10 * S).to_bytes();
        assert_eq!(f, failover(7, S, 10 * S).to_bytes());
        assert_ne!(f, failover(8, S, 10 * S).to_bytes());
        assert_eq!(sim_script(7), sim_script(7));
        assert_ne!(sim_script(7), sim_script(8));
        assert_eq!(payload(7, 3, 64), payload(7, 3, 64));
        assert_ne!(payload(7, 3, 64), payload(8, 3, 64));
    }

    #[test]
    fn paced_mix_keeps_rates_shares_and_order() {
        let s = paced_mix(1, [100.0, 400.0, 800.0], S, 30 * S);
        assert!(s.acts.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(s.step_ends, vec![S, 11 * S, 21 * S, 31 * S]);
        let sends: Vec<Msg> = s
            .acts
            .iter()
            .filter_map(|(_, a)| match a {
                Act::Send(m) => Some(*m),
                _ => None,
            })
            .collect();
        for (step, rate) in [(1u8, 100.0), (2, 400.0), (3, 800.0)] {
            let n = sends.iter().filter(|m| m.step == step).count() as f64;
            assert!((n / 10.0 / rate - 1.0).abs() < 0.1, "step {step}: {n}");
        }
        let safe = sends.iter().filter(|m| m.mode == Mode::Safe).count() as f64;
        assert!((safe / sends.len() as f64 - 0.1).abs() < 0.02);
        assert!(sends.iter().all(|m| m.origin < P::MIX_NODES - 1));
        let locks = s
            .acts
            .iter()
            .filter(|(_, a)| *a == Act::LockRequest)
            .count();
        assert_eq!(locks, 1550);
    }

    #[test]
    fn failover_cycles_fit_the_window() {
        let s = failover(3, S, 10 * S);
        let unplugs: Vec<u64> = s
            .acts
            .iter()
            .filter(|(_, a)| *a == Act::Unplug)
            .map(|&(t, _)| t)
            .collect();
        let replugs: Vec<u64> = s
            .acts
            .iter()
            .filter(|(_, a)| *a == Act::Replug)
            .map(|&(t, _)| t)
            .collect();
        assert_eq!(unplugs.len(), 9);
        assert_eq!(s.step_ends.len(), 10);
        for (u, r) in unplugs.iter().zip(&replugs) {
            assert_eq!(r - u, P::FAILOVER_DOWN_MS * NS_PER_MS);
        }
        assert!(*replugs.last().unwrap() + P::FAILOVER_CALM_MS * NS_PER_MS <= 11 * S);
    }

    #[test]
    fn payload_round_trips_and_detects_damage() {
        for len in [16u32, 64, 100, 8192] {
            let p = payload(9, 42, len);
            assert_eq!(p.len(), len as usize);
            assert_eq!(verify_payload(9, &p), (42, true));
            let mut bad = p.to_vec();
            let last = bad.len() - 1;
            bad[last] ^= 1;
            assert_eq!(verify_payload(9, &bad), (42, false));
            assert!(!verify_payload(9, &p[..len as usize - 1]).1);
        }
        assert_eq!(verify_payload(9, &[1, 2, 3]), (u64::MAX, false));
    }

    #[test]
    fn crash_node_script_ends_at_the_crash() {
        let script = sim_script(5);
        let last = script[P::SIM_CRASH_NODE as usize].last().unwrap().0;
        assert!(last < P::SIM_CRASH_AT_S * S);
        assert!(script[0].last().unwrap().0 > (P::SIM_SECONDS - 1) * S);
    }
}
