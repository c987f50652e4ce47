//! Lock-free log-bucketed histograms.
//!
//! A [`Histogram`] spreads recorded values over [`NUM_BUCKETS`] fixed
//! power-of-two buckets: bucket `0` holds the value `0`, bucket `i ≥ 1`
//! holds values in `[2^(i-1), 2^i)`, and the last bucket is unbounded
//! above. The record path is three atomic read-modify-writes (running sum,
//! running max, then the bucket count) — no locks, no allocation, no
//! branches beyond the bucket-index computation — so instrumentation can
//! stay enabled in release builds on hot paths.
//!
//! Quantiles are *estimated* from a [`HistogramSnapshot`]: the bucket
//! containing the requested rank is located exactly, and the value is
//! interpolated linearly within that bucket's range. The estimate is
//! therefore always inside the (power-of-two) bucket that contains the true
//! sample — a relative error bound of at most 2× — which is plenty for
//! latency dashboards and regression gates (property-tested against a
//! sort-based oracle in `tests/histogram_correctness.rs`).

use std::time::Duration;

use crate::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one for zero, then one per power of two up to the
/// unbounded top bucket (`[2^62, u64::MAX]`).
pub const NUM_BUCKETS: usize = 64;

/// The bucket a value lands in: `0 → 0`, otherwise `⌊log2(v)⌋ + 1`, capped
/// at the top bucket.
#[must_use]
#[inline]
pub fn bucket_index(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(NUM_BUCKETS - 1)
}

/// Inclusive lower bound of a bucket's range.
#[must_use]
pub fn bucket_lower_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i => 1u64 << (i - 1),
    }
}

/// Exclusive upper bound of a bucket's range (saturating for the top
/// bucket, which is unbounded).
#[must_use]
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index >= NUM_BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << index
    }
}

/// A lock-free histogram of `u64` samples (by convention: nanoseconds).
///
/// Concurrent [`Histogram::record`] calls never serialize; snapshots are
/// taken with [`Histogram::snapshot`] and are *coherent by construction*:
/// the snapshot's total count is defined as the sum of its bucket counts,
/// so `count == Σ buckets` holds in every snapshot no matter how many
/// threads are recording mid-read (a threaded test pins this).
///
/// # Examples
///
/// ```
/// use quclear_telemetry::Histogram;
///
/// let h = Histogram::new();
/// for v in [10, 20, 30, 40, 1000] {
///     h.record(v);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count(), 5);
/// assert_eq!(snap.max(), 1000);
/// assert!(snap.quantile(0.5) >= 16 && snap.quantile(0.5) <= 32);
/// ```
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Lock-free: three atomic RMWs.
    ///
    /// The sample's *value* lands in `sum`/`max` **before** its bucket count
    /// is published: a snapshot that counts the sample therefore always sees
    /// its value too, so `sum`/`max` can run ahead of `count` but never
    /// behind it. (The model checker found the inverted order producing
    /// snapshots with `count == 1, sum == 0` — see
    /// `tests/sched_models.rs`.)
    #[inline]
    pub fn record(&self, value: u64) {
        // ordering: Relaxed — the Release bucket publish below carries
        // these additions to any snapshot that counts this sample.
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        // ordering: Release publishes the sum/max additions above to the
        // snapshot path, whose bucket loads are Acquire.
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Release);
    }

    /// Records a duration as whole nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, elapsed: Duration) {
        self.record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Takes a coherent point-in-time snapshot.
    ///
    /// Each bucket counter is read exactly once; the snapshot's `count` is
    /// *defined* as the sum of the bucket counts it read, so the coherence
    /// invariant `count == Σ buckets` cannot be violated by concurrent
    /// recording. `sum` and `max` are read after the buckets and may
    /// reflect a few more samples than `count` — snapshots are consistent
    /// but stale, like every other metric read in this workspace.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        // ordering: Acquire pairs with record()'s Release bucket increment,
        // so every sample this snapshot counts has its value visible in the
        // sum/max loads below (read after the buckets on purpose).
        let buckets: [u64; NUM_BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Acquire));
        HistogramSnapshot {
            buckets,
            // ordering: Relaxed — running *ahead* of count is allowed;
            // running behind is ruled out by the Acquire bucket loads.
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]'s buckets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; NUM_BUCKETS],
    sum: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// Rebuilds a snapshot from raw parts (used when decoding a snapshot
    /// that crossed the wire). `buckets` pairs are `(bucket index, count)`;
    /// out-of-range indices are ignored.
    #[must_use]
    pub fn from_parts(buckets: &[(usize, u64)], sum: u64, max: u64) -> Self {
        let mut full = [0u64; NUM_BUCKETS];
        for &(index, count) in buckets {
            if let Some(slot) = full.get_mut(index) {
                *slot = count;
            }
        }
        HistogramSnapshot {
            buckets: full,
            sum,
            max,
        }
    }

    /// Total number of recorded samples (the sum of the bucket counts —
    /// coherent with [`HistogramSnapshot::nonzero_buckets`] by construction).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all recorded values (wrapping on overflow).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The non-empty buckets as `(index, count)` pairs (compact wire form).
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(i, &count)| (i, count))
            .collect()
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) by locating the bucket
    /// containing rank `⌈q·count⌉` and interpolating linearly inside it.
    ///
    /// The estimate always lies within the power-of-two bucket that holds
    /// the true rank-`⌈q·count⌉` sample, and never above
    /// [`HistogramSnapshot::max`]. Returns 0 for an empty snapshot.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for (index, &bucket_count) in self.buckets.iter().enumerate() {
            if bucket_count == 0 {
                continue;
            }
            if cumulative + bucket_count >= rank {
                let lower = bucket_lower_bound(index);
                let upper = bucket_upper_bound(index).min(self.max.max(lower));
                let within = (rank - cumulative) as f64 / bucket_count as f64;
                let estimate = lower as f64 + within * (upper - lower) as f64;
                return (estimate as u64).min(self.max);
            }
            cumulative += bucket_count;
        }
        self.max
    }

    /// Median estimate (see [`HistogramSnapshot::quantile`]).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile estimate.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_the_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        for index in 0..NUM_BUCKETS {
            let lower = bucket_lower_bound(index);
            assert_eq!(bucket_index(lower), index, "lower bound of {index}");
            if index < NUM_BUCKETS - 1 {
                let last = bucket_upper_bound(index) - 1;
                assert_eq!(bucket_index(last.max(lower)), index);
            }
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.sum(), 0);
        assert_eq!(snap.max(), 0);
        assert_eq!(snap.quantile(0.5), 0);
        assert!(snap.nonzero_buckets().is_empty());
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let h = Histogram::new();
        h.record(37);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 1);
        assert_eq!(snap.sum(), 37);
        assert_eq!(snap.max(), 37);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let estimate = snap.quantile(q);
            assert_eq!(bucket_index(estimate), bucket_index(37), "q={q}");
            assert!(estimate <= 37);
        }
    }

    #[test]
    fn quantiles_never_exceed_max() {
        let h = Histogram::new();
        // All in one bucket, max well below the bucket's upper bound.
        h.record(1025);
        h.record(1030);
        h.record(1040);
        let snap = h.snapshot();
        assert!(snap.quantile(0.99) <= 1040);
        assert!(snap.quantile(1.0) <= 1040);
    }

    #[test]
    fn durations_record_as_nanoseconds() {
        let h = Histogram::new();
        h.record_duration(Duration::from_micros(3));
        let snap = h.snapshot();
        assert_eq!(snap.sum(), 3_000);
        assert_eq!(snap.count(), 1);
    }

    #[test]
    fn from_parts_roundtrips_nonzero_buckets() {
        let h = Histogram::new();
        for v in [0, 1, 5, 5, 700, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot();
        let rebuilt =
            HistogramSnapshot::from_parts(&snap.nonzero_buckets(), snap.sum(), snap.max());
        assert_eq!(rebuilt, snap);
    }
}
