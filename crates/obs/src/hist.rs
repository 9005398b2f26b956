//! Fixed-bucket log₂-scale latency histograms with wait-free recording.
//!
//! A [`LatencyHistogram`] is an array of [`HISTOGRAM_BUCKETS`] atomic
//! counters over microsecond latencies plus a running sum. Bucket `0`
//! holds exact-zero samples; bucket `b > 0` covers the half-open power-
//! of-two range `[2^(b-1), 2^b)`. Recording is two relaxed `fetch_add`s
//! — no CAS loop, no lock — so it is wait-free and scales across
//! concurrent writers.
//!
//! Quantiles are estimated from a [`HistogramSnapshot`] by walking the
//! bucket counts to the requested rank and reporting the containing
//! bucket's **upper bound** (`2^b - 1`). Because a sample in bucket `b`
//! is at least `2^(b-1)`, the estimate satisfies
//! `exact <= estimate < 2 * exact` for every non-zero quantile — a
//! bound the property suite checks against a sorted-vector reference.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets per histogram.
///
/// Bucket 31 covers `[2^30, u64::MAX]` microseconds — anything beyond
/// ~18 minutes saturates into the last bucket rather than wrapping.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Index of the log₂ bucket covering `micros`.
#[inline]
fn bucket_index(micros: u64) -> usize {
    if micros == 0 {
        0
    } else {
        let b = 64 - micros.leading_zeros() as usize;
        b.min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `b`, the value a quantile estimate
/// reports for samples landing in that bucket.
#[inline]
fn bucket_upper_bound(b: usize) -> u64 {
    if b >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else if b == 0 {
        0
    } else {
        (1u64 << b) - 1
    }
}

/// A wait-free, mergeable log₂-bucketed latency histogram.
///
/// Shared by reference between any number of recording threads;
/// [`snapshot`](Self::snapshot) reads are racy-but-consistent-enough
/// (each bucket is read once, relaxed) which is the standard trade for
/// monitoring counters.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_micros: AtomicU64::new(0),
        }
    }

    /// Records one latency sample. Two relaxed `fetch_add`s; wait-free.
    #[inline]
    pub fn record(&self, micros: u64) {
        self.buckets[bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Total samples recorded so far (sum of bucket counts).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Captures the current bucket counts as plain mergeable data.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data capture of a [`LatencyHistogram`]: bucket counts, total
/// sample count and microsecond sum. Exactly mergeable across
/// histograms recorded independently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (`HISTOGRAM_BUCKETS` entries).
    pub buckets: Vec<u64>,
    /// Total samples (= sum of `buckets`).
    pub count: u64,
    /// Sum of all recorded sample values in microseconds.
    pub sum_micros: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (all buckets zero).
    pub fn empty() -> Self {
        Self {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum_micros: 0,
        }
    }

    /// Folds `other` into `self` bucket-by-bucket. Merging is exact:
    /// the merged snapshot equals the snapshot a single histogram would
    /// have produced had it received both sample streams.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += *src;
        }
        self.count += other.count;
        self.sum_micros += other.sum_micros;
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) in microseconds.
    ///
    /// Returns the upper bound of the bucket containing the sample of
    /// rank `ceil(q * count)`, so for non-zero samples the estimate is
    /// within a factor of two above the exact order statistic:
    /// `exact <= estimate < 2 * exact`. An empty snapshot reports 0.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(b);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn record_and_quantile_bounds() {
        let h = LatencyHistogram::new();
        for v in [3u64, 7, 7, 120, 900, 4096] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum_micros, 3 + 7 + 7 + 120 + 900 + 4096);
        // p50 rank = 3 → sample 7 → bucket [4,7] → upper bound 7.
        assert_eq!(s.quantile(0.5), 7);
        // p100 → 4096 → bucket [4096,8191] → 8191.
        let p100 = s.quantile(1.0);
        assert!((4096..2 * 4096).contains(&p100));
    }

    #[test]
    fn merge_matches_combined_stream() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        let combined = LatencyHistogram::new();
        for v in [1u64, 5, 9] {
            a.record(v);
            combined.record(v);
        }
        for v in [2u64, 800, 12_000] {
            b.record(v);
            combined.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, combined.snapshot());
    }

    #[test]
    fn empty_quantile_is_zero() {
        assert_eq!(HistogramSnapshot::empty().quantile(0.99), 0);
    }
}
