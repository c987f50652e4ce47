//! Property tests pinning the bit-plane CA-Post shot pipeline to scalar
//! oracles: the packed affine map `x ↦ A·x ⊕ b` must agree bit-for-bit
//! with a naive per-shot, per-bit loop — including shot counts that are
//! not multiples of 64 — and the word-parallel expectation accumulator
//! must agree with per-shot parity counting. Pack/unpack and the batched
//! expectations also run on batches of more than 1,024 64-shot blocks
//! ending in a partial block, for registers on both sides of the 32-qubit
//! split between the two transpose kernels.
//!
//! These run in the release-mode CI job as well: the word kernels compile
//! to different code under optimization, and release is the configuration
//! the throughput claims are made in.

use proptest::prelude::*;
use quclear_core::{Gf2Matrix, ShotBatch};
use quclear_pauli::BitVec;

/// The rows of a random invertible GF(2) matrix (identity + random
/// off-diagonal XORs, i.e. a product of elementary row operations), and an
/// offset.
fn affine_map(n: usize) -> impl Strategy<Value = (Vec<Vec<bool>>, Vec<bool>)> {
    (
        prop::collection::vec((0usize..n, 0usize..n), 0..3 * n),
        prop::collection::vec(any::<bool>(), n),
    )
        .prop_map(move |(ops, offset)| {
            let mut rows: Vec<Vec<bool>> =
                (0..n).map(|r| (0..n).map(|c| r == c).collect()).collect();
            for (r, c) in ops {
                if r != c {
                    // row_r += row_c: an elementary operation over GF(2).
                    let source = rows[c].clone();
                    for (bit, added) in rows[r].iter_mut().zip(source) {
                        *bit ^= added;
                    }
                }
            }
            (rows, offset)
        })
}

/// Deterministic pseudo-random `n`-qubit shots (SplitMix64 from `seed`).
fn shots_for(n: usize, count: usize, seed: u64) -> Vec<u64> {
    let mask = u64::MAX >> (64 - n);
    let mut state = seed;
    (0..count)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) & mask
        })
        .collect()
}

/// Shot counts either below 300 (empty, partial words, exact multiples) or
/// above 1,024 full 64-shot blocks with a partial tail block.
fn shot_count() -> impl Strategy<Value = usize> {
    (any::<bool>(), 0usize..300, 1usize..64)
        .prop_map(|(large, small, tail)| if large { 1024 * 64 + tail } else { small })
}

/// The scalar oracle: applies `x ↦ A·x ⊕ b` one shot and one bit at a time.
fn naive_affine(rows: &[Vec<bool>], offset: &[bool], shots: &[u64]) -> Vec<u64> {
    let n = offset.len();
    shots
        .iter()
        .map(|&x| {
            let mut out = 0u64;
            for (r, &flip) in offset.iter().enumerate().take(n) {
                let mut bit = flip;
                for (c, &entry) in rows[r].iter().enumerate() {
                    bit ^= entry && (x >> c) & 1 == 1;
                }
                out |= u64::from(bit) << r;
            }
            out
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Packed plane affine map == naive per-shot per-bit loop, for shot
    /// counts straddling word boundaries (0..200 covers 0, partial words,
    /// exact multiples and 3 words).
    #[test]
    fn plane_affine_map_matches_naive_per_shot_loop(
        (rows, offset) in affine_map(9),
        shots in prop::collection::vec(0u64..(1 << 9), 0..200),
    ) {
        let batch = ShotBatch::from_indices(9, &shots);
        let mut planes = Gf2Matrix::from_rows(rows.clone()).mul_planes(batch.planes());
        for (plane, &flip) in planes.iter_mut().zip(&offset) {
            if flip {
                plane.flip_all();
            }
        }
        let mapped = ShotBatch::from_planes(planes);
        prop_assert_eq!(mapped.to_indices(), naive_affine(&rows, &offset, &shots));
    }

    /// Pack → unpack is the identity for any shot count, through both the
    /// `n ≤ 32` and the `n > 32` transpose kernels.
    #[test]
    fn pack_unpack_roundtrip(
        n_low in 1usize..=32,
        n_high in 33usize..=64,
        count in shot_count(),
        seed in any::<u64>(),
    ) {
        for n in [n_low, n_high] {
            let shots = shots_for(n, count, seed);
            let batch = ShotBatch::from_indices(n, &shots);
            prop_assert_eq!(batch.to_indices(), shots);
        }
    }

    /// The popcount expectation accumulator == per-shot parity counting.
    #[test]
    fn parity_expectation_matches_per_shot_counting(
        shots in prop::collection::vec(0u64..(1 << 11), 1..200),
        mask in 0u64..(1 << 11),
    ) {
        let batch = ShotBatch::from_indices(11, &shots);
        let mut support = BitVec::zeros(11);
        for q in 0..11 {
            support.set(q, mask & (1 << q) != 0);
        }
        let scalar: f64 = shots
            .iter()
            .map(|&s| if (s & mask).count_ones() % 2 == 1 { -1.0 } else { 1.0 })
            .sum::<f64>() / shots.len() as f64;
        prop_assert!((batch.parity_expectation(&support) - scalar).abs() < 1e-12);
    }

    /// The batched `parity_expectations` sweep returns, in input order,
    /// exactly the values of `parity_expectation` per support, and both
    /// agree with the scalar per-shot parity fold.
    #[test]
    fn batched_expectations_match_per_support_calls(
        n_low in 1usize..=32,
        n_high in 33usize..=64,
        count in shot_count(),
        seed in any::<u64>(),
        masks in prop::collection::vec(any::<u64>(), 0..40),
    ) {
        for n in [n_low, n_high] {
            let shots = shots_for(n, count, seed);
            let batch = ShotBatch::from_indices(n, &shots);
            let masks: Vec<u64> = masks.iter().map(|&m| m & (u64::MAX >> (64 - n))).collect();
            let supports: Vec<BitVec> = masks
                .iter()
                .map(|&mask| {
                    let mut support = BitVec::zeros(n);
                    for q in 0..n {
                        support.set(q, mask & (1 << q) != 0);
                    }
                    support
                })
                .collect();
            let batched = batch.parity_expectations(&supports);
            prop_assert_eq!(batched.len(), supports.len());
            for ((got, support), &mask) in batched.iter().zip(&supports).zip(&masks) {
                // Exact equality: both run the identical word kernel.
                prop_assert_eq!(*got, batch.parity_expectation(support));
                let scalar = if shots.is_empty() {
                    0.0
                } else {
                    shots
                        .iter()
                        .map(|&s| if (s & mask).count_ones() % 2 == 1 { -1.0 } else { 1.0 })
                        .sum::<f64>() / shots.len() as f64
                };
                prop_assert!((got - scalar).abs() < 1e-12, "n {} mask {:x}", n, mask);
            }
        }
    }
}
