//! Exact-sample statistics. Every end-to-end number is read from a
//! sorted `Vec<u64>` of raw samples, never from histogram bucket bounds
//! (the log2 `raincore_obs::Histogram` reports an identical run's p99 as
//! 8 389 µs or 16 777 µs depending on which side of a bucket edge it
//! falls).

/// Nearest-rank percentile of an ascending slice; `p` in `(0, 1]`.
/// Empty input reads 0.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` in place and returns its median.
pub fn median(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    percentile(samples, 0.5)
}

/// Median of floating-point readings (set-up times, per-cycle values).
pub fn median_f64(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[(values.len() - 1) / 2]
}

/// The highest of p50/p90/p99/p99.9 that still has at least ten samples
/// beyond it — the tail percentile a sample of size `n` supports.
pub fn highest_supported_percentile(n: usize) -> f64 {
    // (percentile, samples beyond it per thousand)
    [(0.999, 1), (0.99, 10), (0.9, 100)]
        .into_iter()
        .find(|&(_, beyond)| n * beyond / 1000 >= 10)
        .map_or(0.5, |(p, _)| p)
}

/// Samples needed in one slice for its p99 to have ten samples beyond it.
pub const P99_MIN_SAMPLES: usize = 1000;

/// Most slices a window is cut into for its tail latency.
pub const P99_MAX_SLICES: usize = 20;

/// Tail latency that repeats: the window `[t0, t1)` is cut into equal
/// slices — as many as leave every slice [`P99_MIN_SAMPLES`] samples, at
/// most [`P99_MAX_SLICES`] — and the median of the slices' p99 is
/// reported, so that one scheduler hiccup moves one slice, not the
/// metric. (Five slices were too few: a hiccup that touched three of them
/// moved a run's reading by 15 %; the same runs read through twenty
/// slices stayed within 5 %.) `samples` are `(completion instant, value)`
/// pairs. Returns the value and the number of slices used.
pub fn sliced_p99(samples: &[(u64, u64)], t0: u64, t1: u64) -> (u64, usize) {
    let inside: Vec<(u64, u64)> = samples
        .iter()
        .copied()
        .filter(|&(t, _)| t >= t0 && t < t1)
        .collect();
    let slices = (inside.len() / P99_MIN_SAMPLES).clamp(1, P99_MAX_SLICES);
    let span = (t1 - t0).max(1);
    let mut per_slice: Vec<Vec<u64>> = vec![Vec::new(); slices];
    for (t, v) in inside {
        let i = ((t - t0) as u128 * slices as u128 / span as u128) as usize;
        per_slice[i.min(slices - 1)].push(v);
    }
    let mut p99s: Vec<u64> = per_slice
        .iter_mut()
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.sort_unstable();
            percentile(s, 0.99)
        })
        .collect();
    (median(&mut p99s), slices)
}

/// Longest gap between consecutive instants of an ascending list,
/// including the gaps to the interval's two ends.
pub fn longest_gap(instants: &[u64], from: u64, to: u64) -> u64 {
    let mut prev = from;
    let mut longest = 0;
    for &t in instants.iter().filter(|&&t| t >= from && t < to) {
        longest = longest.max(t - prev);
        prev = t;
    }
    longest.max(to.saturating_sub(prev))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.001), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&mut [9, 1, 5]), 5);
        assert_eq!(median(&mut [4, 2]), 2);
        assert_eq!(median_f64(&mut [0.3, 0.1, 0.2]), 0.2);
    }

    #[test]
    fn supported_percentile_needs_ten_beyond() {
        assert_eq!(highest_supported_percentile(50), 0.5);
        assert_eq!(highest_supported_percentile(100), 0.9);
        assert_eq!(highest_supported_percentile(999), 0.9);
        assert_eq!(highest_supported_percentile(1000), 0.99);
        assert_eq!(highest_supported_percentile(10_000), 0.999);
    }

    #[test]
    fn sliced_p99_takes_the_median_slice() {
        // Five slices of 1000 samples; slice k has values k*1000+1..=k*1000+1000,
        // so its p99 is k*1000+990. The median slice is k=2.
        let mut samples = Vec::new();
        for k in 0..5u64 {
            for i in 0..1000u64 {
                samples.push((k * 1000 + i, k * 1000 + i + 1));
            }
        }
        assert_eq!(sliced_p99(&samples, 0, 5000), (2990, 5));
        // One hiccup in one slice does not move the metric.
        samples[4500].1 = 1_000_000;
        assert_eq!(sliced_p99(&samples, 0, 5000), (2990, 5));
    }

    #[test]
    fn sliced_p99_uses_fewer_slices_for_small_samples() {
        let samples: Vec<(u64, u64)> = (0..2500).map(|i| (i, i)).collect();
        let (_, slices) = sliced_p99(&samples, 0, 2500);
        assert_eq!(slices, 2);
        let few: Vec<(u64, u64)> = (0..10).map(|i| (i, i)).collect();
        assert_eq!(sliced_p99(&few, 0, 10), (9, 1));
        // Samples outside the window are ignored.
        assert_eq!(sliced_p99(&few, 0, 5), (4, 1));
    }

    #[test]
    fn longest_gap_counts_both_ends() {
        assert_eq!(longest_gap(&[10, 20, 50], 0, 100), 50);
        assert_eq!(longest_gap(&[10, 20, 90], 0, 100), 70);
        assert_eq!(longest_gap(&[40], 0, 100), 60);
        assert_eq!(longest_gap(&[], 5, 100), 95);
    }
}
