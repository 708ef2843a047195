//! Order statistics the ledger reports: nearest-rank percentiles, Python's
//! `statistics.quantiles(n=4)` quartiles (so `spread` here equals what the
//! driver computes over runs), and the per-window p99 median that keeps one
//! stall from owning a whole paced step.

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`); 0 for
/// an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean of the middle half of an ascending slice (ranks between the first
/// and third quartile). Robust to tails like a median, but steady where a
/// median is not: cold GETs over half-compressible data have two equal
/// latency modes, and their p50 sits on the edge between them.
pub fn interquartile_mean(sorted: &[u64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let middle = &sorted[n / 4..(n - n / 4).max(n / 4 + 1)];
    middle.iter().sum::<u64>() as f64 / middle.len() as f64
}

/// Sorts `samples` and returns `(p50, p99)`.
pub fn p50_p99(samples: &mut [u64]) -> (u64, u64) {
    samples.sort_unstable();
    (percentile(samples, 0.5), percentile(samples, 0.99))
}

/// Median of unordered values (mean of the middle two for even counts);
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
/// `None` below two values, where Python raises.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median — the run-to-run spread
/// the benchmark's bounds are judged against. 0 when it cannot be formed.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// Splits `(due_ns, latency_ns)` samples into consecutive windows of
/// `window_ns` by due time and returns each window's p99. A trailing
/// window shorter than half the width is dropped: its p99 would rest on
/// too few samples.
pub fn window_p99s(samples: &[(u64, u64)], window_ns: u64) -> Vec<u64> {
    let Some(last_due) = samples.iter().map(|s| s.0).max() else {
        return Vec::new();
    };
    let first_due = samples.iter().map(|s| s.0).min().unwrap_or(0);
    let span = last_due - first_due + 1;
    let mut windows = (span / window_ns) as usize;
    if span % window_ns >= window_ns / 2 || windows == 0 {
        windows += 1;
    }
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); windows];
    for &(due, lat) in samples {
        let w = ((due - first_due) / window_ns) as usize;
        if w < windows {
            buckets[w].push(lat);
        }
    }
    buckets
        .iter_mut()
        .filter(|b| !b.is_empty())
        .map(|b| p50_p99(b).1)
        .collect()
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
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn interquartile_mean_ignores_tails_and_straddles_two_modes() {
        let mut v: Vec<u64> = (1..=8).collect();
        assert_eq!(interquartile_mean(&v), 4.5, "mean of 3,4,5,6");
        v[7] = 1_000_000;
        assert_eq!(interquartile_mean(&v), 4.5, "the tail does not move it");
        // Two equal modes: the median jumps with one sample, this does not.
        let modes: Vec<u64> = [40u64; 50].into_iter().chain([120u64; 50]).collect();
        assert_eq!(interquartile_mean(&modes), 80.0);
        let mut tilted = modes.clone();
        tilted[49] = 120;
        assert_eq!(percentile(&modes, 0.5), 40);
        assert_eq!(percentile(&tilted, 0.5), 120);
        assert!((interquartile_mean(&tilted) - 81.6).abs() < 1e-9);
        assert_eq!(interquartile_mean(&[]), 0.0);
        assert_eq!(interquartile_mean(&[7]), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 22.5)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), Some((1.5, 12.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn window_p99_isolates_a_stall() {
        // Four 1 s windows of 100 samples; one window is entirely slow.
        let mut samples = Vec::new();
        for w in 0..4u64 {
            for i in 0..100u64 {
                let lat = if w == 2 { 50_000 } else { 100 + i };
                samples.push((w * 1_000_000_000 + i * 10_000_000, lat));
            }
        }
        let p99s = window_p99s(&samples, 1_000_000_000);
        assert_eq!(p99s, vec![198, 198, 50_000, 198]);
        let as_f: Vec<f64> = p99s.iter().map(|&p| p as f64).collect();
        assert_eq!(median(&as_f), 198.0, "one stalled window does not move it");
    }

    #[test]
    fn short_trailing_window_is_dropped() {
        let samples: Vec<(u64, u64)> = (0..1200u64).map(|i| (i * 1_000_000, i)).collect();
        // 1.2 s of samples in 1 s windows: the 0.2 s tail is dropped.
        assert_eq!(window_p99s(&samples, 1_000_000_000).len(), 1);
        let samples: Vec<(u64, u64)> = (0..1700u64).map(|i| (i * 1_000_000, i)).collect();
        assert_eq!(window_p99s(&samples, 1_000_000_000).len(), 2);
    }
}
