//! Bit-plane storage of measurement-shot batches (CA-Post at scale).
//!
//! A [`ShotBatch`] stores `s` computational-basis measurement outcomes
//! **column-major**: one [`BitVec`] per qubit whose bit `i` is that qubit's
//! value in shot `i`. In this layout the CA-Post affine map `x ↦ A·x ⊕ b`
//! is a packed GF(2) matvec over whole planes ([`Gf2Matrix::mul_planes`]
//! plus per-row complements), and the expectation value of a Z-type
//! observable is one XOR-reduction of its support planes followed by a
//! popcount — `O(s/64)` words per observable, with no per-shot or per-bit
//! loop anywhere.
//!
//! Ingestion from packed basis-state indices transposes 64 shots at a time
//! with the classic word-parallel 64×64 bit-matrix transpose, so even the
//! layout change never touches individual bits.

use std::collections::BTreeMap;

use quclear_pauli::{transpose64_pack32, transpose64_top, BitVec};

/// Number of bits per storage word (matches [`BitVec`]).
const WORD_BITS: usize = 64;

/// A batch of measurement shots stored as per-qubit bit-planes.
///
/// # Examples
///
/// ```
/// use quclear_core::ShotBatch;
///
/// // Three 2-qubit shots: |11⟩, |01⟩, |10⟩ (bit q of the index = qubit q).
/// let batch = ShotBatch::from_indices(2, &[0b11, 0b01, 0b10]);
/// assert_eq!(batch.num_shots(), 3);
/// assert_eq!(batch.index(1), 0b01);
/// // ⟨Z₀⟩ over the batch: outcomes −1, −1, +1.
/// let z0: quclear_pauli::PauliString = "ZI".parse()?;
/// assert!((batch.parity_expectation(z0.z_bits()) + 1.0 / 3.0).abs() < 1e-12);
/// # Ok::<(), quclear_pauli::ParsePauliError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShotBatch {
    n: usize,
    shots: usize,
    /// `planes[q]` bit `i` = value of qubit `q` in shot `i`.
    planes: Vec<BitVec>,
}

impl ShotBatch {
    /// Packs basis-state indices (bit `q` of an index = value of qubit `q`)
    /// into bit-planes, 64 shots per transposed block.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64` (indices cannot address more qubits; build from
    /// explicit planes instead).
    #[must_use]
    pub fn from_indices(n: usize, shots: &[u64]) -> Self {
        assert!(n <= 64, "u64 shot indices address at most 64 qubits");
        let count = shots.len();
        let words = count.div_ceil(WORD_BITS);
        let mut planes = vec![BitVec::zeros(count); n];
        if n == 0 {
            return ShotBatch {
                n,
                shots: count,
                planes,
            };
        }
        // Each 64-shot block is transposed and scattered straight into the
        // planes. Only the first `n` of its 64 transposed rows become planes,
        // so the butterfly ladder is pruned to that prefix — and for `n ≤ 32`
        // the source load fuses with the first stage into a half-size block.
        for w in 0..words {
            let base = w * WORD_BITS;
            let chunk = &shots[base..count.min(base + WORD_BITS)];
            if n <= 32 {
                let block = transpose64_pack32(chunk, n);
                for (q, plane) in planes.iter_mut().enumerate() {
                    plane.words_mut()[w] = block[q];
                }
            } else {
                let mut block = [0u64; 64];
                block[..chunk.len()].copy_from_slice(chunk);
                transpose64_top(&mut block, n);
                for (q, plane) in planes.iter_mut().enumerate() {
                    plane.words_mut()[w] = block[q];
                }
            }
        }
        debug_assert!(
            planes.iter().all(BitVec::tail_is_clear),
            "plane stitch must not write past the shot count"
        );
        ShotBatch {
            n,
            shots: count,
            planes,
        }
    }

    /// Builds a batch from explicit per-qubit planes (all the same length).
    ///
    /// # Panics
    ///
    /// Panics if the planes have inconsistent lengths.
    #[must_use]
    pub fn from_planes(planes: Vec<BitVec>) -> Self {
        let shots = planes.first().map_or(0, BitVec::len);
        for plane in &planes {
            assert_eq!(plane.len(), shots, "shot planes must share one length");
        }
        ShotBatch {
            n: planes.len(),
            shots,
            planes,
        }
    }

    /// Number of qubits per shot.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of shots in the batch.
    #[must_use]
    pub fn num_shots(&self) -> usize {
        self.shots
    }

    /// The bit-plane of qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn plane(&self, q: usize) -> &BitVec {
        &self.planes[q]
    }

    /// All planes, qubit-major.
    #[must_use]
    pub fn planes(&self) -> &[BitVec] {
        &self.planes
    }

    /// Reads back shot `i` as a basis-state index.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn index(&self, i: usize) -> u64 {
        assert!(i < self.shots, "shot {i} out of range {}", self.shots);
        self.planes
            .iter()
            .enumerate()
            .fold(0u64, |acc, (q, plane)| acc | (u64::from(plane.get(i)) << q))
    }

    /// Unpacks the batch back into basis-state indices (inverse transpose,
    /// 64 shots per block).
    #[must_use]
    pub fn to_indices(&self) -> Vec<u64> {
        let words = self.shots.div_ceil(WORD_BITS);
        let mut out = vec![0u64; self.shots];
        if self.shots == 0 {
            return out;
        }
        // Only the shots actually present in a block are copied out, so the
        // tail block's transpose is pruned to its occupied prefix.
        for w in 0..words {
            let base = w * WORD_BITS;
            let take = self.shots.min(base + WORD_BITS) - base;
            let mut block = [0u64; 64];
            for (q, plane) in self.planes.iter().enumerate() {
                block[q] = plane.words()[w];
            }
            transpose64_top(&mut block, take);
            out[base..base + take].copy_from_slice(&block[..take]);
        }
        out
    }

    /// Histogram of the batch as (basis index → count).
    #[must_use]
    pub fn counts(&self) -> BTreeMap<u64, u64> {
        let mut counts = BTreeMap::new();
        for index in self.to_indices() {
            *counts.entry(index).or_insert(0) += 1;
        }
        counts
    }

    /// Estimates `⟨∏_{q ∈ support} Z_q⟩` over the batch: the XOR of the
    /// support planes is the per-shot parity, and its popcount counts the
    /// `−1` outcomes.
    ///
    /// The XOR-fold and the popcount are fused ([`simd::xor_popcount`]): no
    /// parity plane is ever materialized, so an observable costs one read of
    /// each support plane and zero allocation regardless of the shot count.
    ///
    /// Returns `0.0` for an empty batch.
    ///
    /// # Panics
    ///
    /// Panics if the mask length differs from the qubit count.
    #[must_use]
    pub fn parity_expectation(&self, support: &BitVec) -> f64 {
        assert_eq!(
            support.len(),
            self.n,
            "support mask length must match the qubit count"
        );
        if self.shots == 0 {
            return 0.0;
        }
        let words = self.shots.div_ceil(WORD_BITS);
        let srcs: Vec<&[u64]> = support
            .iter_ones()
            .map(|q| self.planes[q].words())
            .collect();
        let minus = simd::xor_popcount(&srcs, words) as f64;
        (self.shots as f64 - 2.0 * minus) / self.shots as f64
    }

    /// Estimates [`Self::parity_expectation`] for a whole set of observables
    /// at once, in input order.
    ///
    /// # Panics
    ///
    /// Panics if any mask length differs from the qubit count.
    #[must_use]
    pub fn parity_expectations(&self, supports: &[BitVec]) -> Vec<f64> {
        supports
            .iter()
            .map(|s| self.parity_expectation(s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose64_is_an_involution_and_moves_bits() {
        use quclear_pauli::transpose64;
        let mut a = [0u64; 64];
        a[3] = 1 << 17;
        a[63] = (1 << 0) | (1 << 63);
        let orig = a;
        transpose64(&mut a);
        assert_eq!(a[17] & (1 << 3), 1 << 3);
        assert_eq!(a[0] & (1 << 63), 1 << 63);
        assert_eq!(a[63] & (1 << 63), 1 << 63);
        transpose64(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn pack_unpack_roundtrip_non_multiple_of_64() {
        let shots: Vec<u64> = (0..157).map(|i| (i * 2654435761) % (1 << 20)).collect();
        let batch = ShotBatch::from_indices(20, &shots);
        assert_eq!(batch.num_shots(), 157);
        assert_eq!(batch.num_qubits(), 20);
        assert_eq!(batch.to_indices(), shots);
        for (i, &s) in shots.iter().enumerate() {
            assert_eq!(batch.index(i), s, "shot {i}");
        }
        // Plane tail bits beyond the shot count stay zero.
        for plane in batch.planes() {
            assert!(plane.count_ones() <= 157);
        }
    }

    #[test]
    fn counts_match_a_direct_histogram() {
        let shots: Vec<u64> = vec![3, 1, 3, 0, 1, 3];
        let batch = ShotBatch::from_indices(2, &shots);
        let counts = batch.counts();
        assert_eq!(counts.get(&3), Some(&3));
        assert_eq!(counts.get(&1), Some(&2));
        assert_eq!(counts.get(&0), Some(&1));
        assert_eq!(counts.values().sum::<u64>(), 6);
    }

    #[test]
    fn parity_expectation_matches_per_shot_loop() {
        let shots: Vec<u64> = (0..200).map(|i| (i * 7919) % (1 << 10)).collect();
        let batch = ShotBatch::from_indices(10, &shots);
        for mask_bits in [0b1u64, 0b1010101010, 0b1111111111, 0] {
            let mut mask = BitVec::zeros(10);
            for q in 0..10 {
                mask.set(q, mask_bits & (1 << q) != 0);
            }
            let scalar: f64 = shots
                .iter()
                .map(|&s| {
                    if (s & mask_bits).count_ones() % 2 == 1 {
                        -1.0
                    } else {
                        1.0
                    }
                })
                .sum::<f64>()
                / shots.len() as f64;
            assert!(
                (batch.parity_expectation(&mask) - scalar).abs() < 1e-12,
                "mask {mask_bits:b}"
            );
        }
    }

    #[test]
    fn empty_batch_is_well_defined() {
        let batch = ShotBatch::from_indices(4, &[]);
        assert_eq!(batch.num_shots(), 0);
        assert!(batch.to_indices().is_empty());
        assert_eq!(batch.parity_expectation(&BitVec::zeros(4)), 0.0);
    }

    #[test]
    #[should_panic(expected = "at most 64 qubits")]
    fn oversized_register_is_rejected() {
        let _ = ShotBatch::from_indices(65, &[0]);
    }
}
