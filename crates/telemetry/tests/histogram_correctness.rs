//! Pins the histogram's quantile estimates to a naive sort-based oracle and
//! its snapshots to the coherence invariant under concurrent recording.
//!
//! The histogram promises estimates within the power-of-two bucket of the
//! true sample (≤2× relative error) and never above the observed max; the
//! oracle here computes exact rank statistics from the sorted samples and
//! checks both bounds across empty, single-sample, one-bucket, and
//! cross-bucket distributions.

use proptest::prelude::*;
use quclear_telemetry::{bucket_index, bucket_lower_bound, bucket_upper_bound, Histogram};

/// Exact rank-statistic oracle: the value at rank `⌈q·n⌉` of the sorted
/// samples (the same nearest-rank definition the histogram estimates).
fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Asserts the histogram estimate lands inside the power-of-two bucket of
/// the oracle's exact answer, for every probed quantile.
fn check_against_oracle(samples: &[u64]) -> Result<(), String> {
    let histogram = Histogram::new();
    for &v in samples {
        histogram.record(v);
    }
    let snap = histogram.snapshot();
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();

    prop_assert_eq!(snap.count(), samples.len() as u64);
    if samples.is_empty() {
        prop_assert_eq!(snap.quantile(0.5), 0);
        return Ok(());
    }
    prop_assert_eq!(snap.max(), *sorted.last().unwrap());
    // The histogram's sum wraps on overflow (atomic fetch_add semantics),
    // so the oracle wraps too.
    prop_assert_eq!(
        snap.sum(),
        samples.iter().fold(0u64, |acc, &v| acc.wrapping_add(v))
    );

    for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
        let exact = oracle_quantile(&sorted, q);
        let estimate = snap.quantile(q);
        let bucket = bucket_index(exact);
        prop_assert!(
            estimate >= bucket_lower_bound(bucket) && estimate <= bucket_upper_bound(bucket),
            "q={} exact={} (bucket {}) estimate={} outside [{}, {}]",
            q,
            exact,
            bucket,
            estimate,
            bucket_lower_bound(bucket),
            bucket_upper_bound(bucket)
        );
        prop_assert!(
            estimate <= snap.max(),
            "q={} estimate={} exceeds max={}",
            q,
            estimate,
            snap.max()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Narrow-range samples: most mass lands in a handful of buckets, with
    /// heavy per-bucket collisions exercising the interpolation path.
    #[test]
    fn quantiles_match_oracle_narrow(samples in prop::collection::vec(0u64..5_000, 0..200)) {
        check_against_oracle(&samples)?;
    }

    /// Wide-range samples spread across the full 64-bucket span (value =
    /// mantissa shifted by a random exponent).
    #[test]
    fn quantiles_match_oracle_wide(
        samples in prop::collection::vec((0u32..64, 1u64..1024), 0..150)
    ) {
        let values: Vec<u64> = samples
            .iter()
            .map(|&(shift, mantissa)| mantissa.checked_shl(shift).unwrap_or(u64::MAX))
            .collect();
        check_against_oracle(&values)?;
    }

    /// Degenerate distribution: every sample in one bucket.
    #[test]
    fn quantiles_match_oracle_single_bucket(
        base in 1024u64..2048,
        count in 1usize..100,
    ) {
        let samples: Vec<u64> = (0..count).map(|i| base + (i as u64 % 7)).collect();
        check_against_oracle(&samples)?;
    }
}

#[test]
fn oracle_agrees_on_empty_and_single() {
    check_against_oracle(&[]).unwrap();
    check_against_oracle(&[0]).unwrap();
    check_against_oracle(&[u64::MAX]).unwrap();
    check_against_oracle(&[42]).unwrap();
}

#[test]
fn oracle_agrees_on_cross_bucket_bimodal() {
    // Half the mass at microsecond scale, half at second scale — the
    // shape of a latency histogram with a slow tail.
    let mut samples = Vec::new();
    for i in 0..50u64 {
        samples.push(1_000 + i);
        samples.push(1_000_000_000 + i * 1_000);
    }
    check_against_oracle(&samples).unwrap();
}

/// Snapshot coherence under fire: with writer threads recording
/// continuously, every snapshot must satisfy `count == Σ bucket counts`
/// (the invariant the serve stats path relies on) and counts must be
/// monotone across snapshots.
#[test]
fn snapshots_stay_coherent_under_concurrent_recording() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const WRITERS: usize = 4;
    const PER_WRITER: u64 = 200_000;

    let histogram = Arc::new(Histogram::new());
    let done = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let histogram = Arc::clone(&histogram);
            std::thread::spawn(move || {
                let mut x = 0x9e3779b97f4a7c15u64.wrapping_mul(w as u64 + 1);
                for _ in 0..PER_WRITER {
                    // xorshift: cheap full-range values.
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    histogram.record(x);
                }
            })
        })
        .collect();

    let reader = {
        let histogram = Arc::clone(&histogram);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut last_count = 0u64;
            let mut snapshots = 0u64;
            while !done.load(Ordering::Acquire) {
                let snap = histogram.snapshot();
                let count = snap.count();
                let bucket_total: u64 = snap.nonzero_buckets().iter().map(|&(_, n)| n).sum();
                assert_eq!(count, bucket_total, "count must equal Σ buckets");
                assert!(count >= last_count, "counts must be monotone");
                last_count = count;
                snapshots += 1;
            }
            snapshots
        })
    };

    for writer in writers {
        writer.join().unwrap();
    }
    done.store(true, Ordering::Release);
    let snapshots_taken = reader.join().unwrap();
    assert!(snapshots_taken > 0);

    let final_snap = histogram.snapshot();
    assert_eq!(final_snap.count(), WRITERS as u64 * PER_WRITER);
    let bucket_total: u64 = final_snap.nonzero_buckets().iter().map(|&(_, n)| n).sum();
    assert_eq!(final_snap.count(), bucket_total);
}
