//! Exact latency statistics: every sample kept, percentiles by nearest
//! rank (the figures print these; obs `Histogram` keeps log buckets).

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// Accumulates request latencies and reports mean/percentiles.
///
/// Samples are kept exactly (experiments here are small enough); percentile
/// queries sort lazily.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LatencyStats {
    samples: Vec<u64>,
    sum: u128,
}

impl LatencyStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: SimDuration) {
        self.samples.push(latency.as_nanos());
        self.sum += latency.as_nanos() as u128;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean latency, or zero if empty.
    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum / self.samples.len() as u128) as u64)
    }

    /// The `p`-th percentile (0.0–100.0) by nearest-rank, or zero if empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> SimDuration {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
        SimDuration::from_nanos(sorted[rank])
    }

    /// Maximum latency, or zero if empty.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.samples.iter().copied().max().unwrap_or(0))
    }

    /// Minimum latency, or zero if empty.
    pub fn min(&self) -> SimDuration {
        SimDuration::from_nanos(self.samples.iter().copied().min().unwrap_or(0))
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.samples.extend_from_slice(&other.samples);
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_extremes() {
        let mut s = LatencyStats::new();
        for ms in [1u64, 2, 3] {
            s.record(SimDuration::from_millis(ms));
        }
        assert_eq!(s.mean(), SimDuration::from_millis(2));
        assert_eq!(s.min(), SimDuration::from_millis(1));
        assert_eq!(s.max(), SimDuration::from_millis(3));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = LatencyStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), SimDuration::ZERO);
        assert_eq!(s.percentile(99.0), SimDuration::ZERO);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = LatencyStats::new();
        for us in 1..=100u64 {
            s.record(SimDuration::from_micros(us));
        }
        assert_eq!(s.percentile(0.0), SimDuration::from_micros(1));
        assert_eq!(s.percentile(100.0), SimDuration::from_micros(100));
        let p50 = s.percentile(50.0);
        assert!(p50 >= SimDuration::from_micros(50) && p50 <= SimDuration::from_micros(51));
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_rejects_bad_input() {
        LatencyStats::new().percentile(101.0);
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyStats::new();
        a.record(SimDuration::from_millis(1));
        let mut b = LatencyStats::new();
        b.record(SimDuration::from_millis(3));
        a.merge(&b);
        assert_eq!(a.mean(), SimDuration::from_millis(2));
    }
}
