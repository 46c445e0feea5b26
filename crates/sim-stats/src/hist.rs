//! Power-of-two latency histograms.

use sim_engine::snapshot::{SnapError, SnapReader, SnapWriter};
use sim_engine::Cycle;

use crate::json::Json;

/// A log₂-bucketed histogram of cycle latencies.
///
/// Bucket `k` holds samples in `[2^k, 2^(k+1))` (bucket 0 holds 0 and 1).
/// Cheap to record into (a `leading_zeros` and an increment), exact enough
/// for the simulator's latency-shape reporting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHist {
    buckets: [u64; 32],
    count: u64,
    sum: u64,
    max: Cycle,
}

impl LatencyHist {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, latency: Cycle) {
        let b = (64 - latency.max(1).leading_zeros() as usize - 1).min(31);
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += latency;
        self.max = self.max.max(latency);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact sum of all recorded samples (the histogram buckets are
    /// approximate, the sum is not).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Cycle {
        self.max
    }

    /// Upper bound of the bucket containing the `p`-quantile (`0.0..=1.0`).
    pub fn quantile_bound(&self, p: f64) -> Cycle {
        if self.count == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (k, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target.max(1) {
                return 1u64 << (k + 1);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Decomposes the histogram into `(buckets, count, sum, max)`, for
    /// comparing two histograms field by field.
    pub fn to_raw_parts(&self) -> ([u64; 32], u64, u64, Cycle) {
        (self.buckets, self.count, self.sum, self.max)
    }

    /// Writes the 32 buckets, then the count, sum and max.
    pub fn encode(&self, w: &mut SnapWriter) {
        for &b in &self.buckets {
            w.u64(b);
        }
        w.u64(self.count);
        w.u64(self.sum);
        w.u64(self.max);
    }

    /// Reads a histogram written by [`LatencyHist::encode`].
    pub fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut buckets = [0u64; 32];
        for b in &mut buckets {
            *b = r.u64()?;
        }
        Ok(LatencyHist { buckets, count: r.u64()?, sum: r.u64()?, max: r.u64()? })
    }

    /// `(bucket lower bound, sample count)` for each non-empty bucket.
    pub fn nonempty_buckets(&self) -> impl Iterator<Item = (Cycle, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(k, &n)| (if k == 0 { 0 } else { 1u64 << k }, n))
    }

    /// The histogram as `{count, mean, max, buckets}`, where `buckets`
    /// lists `[lower bound, samples]` for each non-empty bucket.
    pub fn to_json(&self) -> Json {
        let bucket = |(lo, n): (Cycle, u64)| Json::Arr(vec![Json::U64(lo), Json::U64(n)]);
        Json::obj([
            ("count", Json::U64(self.count)),
            ("mean", Json::F64(self.mean())),
            ("max", Json::U64(self.max)),
            ("buckets", Json::Arr(self.nonempty_buckets().map(bucket).collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarizes() {
        let mut h = LatencyHist::new();
        for v in [1u64, 2, 3, 100, 200] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 200);
        assert!((h.mean() - 61.2).abs() < 1e-9);
    }

    #[test]
    fn bucket_boundaries() {
        let mut h = LatencyHist::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        let buckets: Vec<_> = h.nonempty_buckets().collect();
        // 0 and 1 in bucket 0; 2 and 3 in bucket [2,4); 4 in [4,8).
        assert_eq!(buckets, vec![(0, 2), (2, 2), (4, 1)]);
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = LatencyHist::new();
        for i in 0..1000u64 {
            h.record(i);
        }
        let q50 = h.quantile_bound(0.5);
        let q90 = h.quantile_bound(0.9);
        let q100 = h.quantile_bound(1.0);
        assert!(q50 <= q90 && q90 <= q100);
        assert!(q50 >= 256, "median of 0..1000 sits in the [512,1024) bucket region");
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = LatencyHist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile_bound(0.5), 0);
    }

    #[test]
    fn single_sample_quantiles_collapse_to_its_bucket() {
        let mut h = LatencyHist::new();
        h.record(7);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 7);
        assert_eq!(h.mean(), 7.0);
        // 7 sits in [4, 8); every quantile reports that bucket's upper bound.
        assert_eq!(h.quantile_bound(0.0), 8);
        assert_eq!(h.quantile_bound(0.5), 8);
        assert_eq!(h.quantile_bound(1.0), 8);
    }

    #[test]
    fn exact_powers_of_two_open_their_own_bucket() {
        // 2^k is the inclusive lower edge of bucket k; 2^k - 1 stays below.
        for k in 1..12 {
            let mut h = LatencyHist::new();
            h.record(1u64 << k);
            h.record((1u64 << k) - 1);
            let buckets: Vec<_> = h.nonempty_buckets().collect();
            let below = if k == 1 { 0 } else { 1u64 << (k - 1) };
            assert_eq!(buckets, vec![(below, 1), (1u64 << k, 1)], "edge at 2^{k}");
        }
    }

    #[test]
    fn quantile_at_exact_bucket_boundary() {
        let mut h = LatencyHist::new();
        // Two samples in bucket 0 ([0,2)), two in bucket 1 ([2,4)).
        for v in [1u64, 1, 2, 2] {
            h.record(v);
        }
        // p=0.5 is satisfied exactly by bucket 0's two samples...
        assert_eq!(h.quantile_bound(0.5), 2);
        // ...and one sample more crosses into bucket 1.
        assert_eq!(h.quantile_bound(0.75), 4);
        assert_eq!(h.quantile_bound(1.0), 4);
    }

    #[test]
    fn huge_samples_saturate_the_top_bucket() {
        let mut h = LatencyHist::new();
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        let buckets: Vec<_> = h.nonempty_buckets().collect();
        assert_eq!(buckets, vec![(1u64 << 31, 1)], "clamped to bucket 31");
        assert_eq!(h.quantile_bound(1.0), 1u64 << 32);
    }

    #[test]
    fn merge_adds() {
        let mut a = LatencyHist::new();
        a.record(10);
        let mut b = LatencyHist::new();
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 1000);
    }
}
