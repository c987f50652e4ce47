//! A small fixed-length bit vector backed by `u64` words.
//!
//! [`BitVec`] is the storage primitive behind [`PauliString`](crate::PauliString):
//! a Pauli string over `n` qubits is a pair of length-`n` bit vectors (the X
//! block and the Z block of the symplectic representation). The type is kept
//! deliberately small — only the operations needed by the Pauli/Clifford
//! algebra are provided — but those operations are word-parallel so that
//! conjugating Pauli strings through large Clifford tableaus stays cheap.
//!
//! The bulk operations (`xor_with`, `and_popcount`, …) run on the wide-lane
//! kernels of the [`simd`] shim, which process `simd::LANE_WORDS` words per
//! step.

use std::fmt;

/// Number of bits per storage word.
const WORD_BITS: usize = 64;

/// A fixed-length vector of bits.
///
/// The length is fixed at construction time; all binary operations panic if
/// the lengths disagree, which turns qubit-count mismatches into loud errors
/// instead of silent truncation.
///
/// # Examples
///
/// ```
/// use quclear_pauli::BitVec;
///
/// let mut bits = BitVec::zeros(70);
/// bits.set(3, true);
/// bits.set(69, true);
/// assert_eq!(bits.count_ones(), 2);
/// assert!(bits.get(69));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// Creates a bit vector of `len` zero bits.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        let nwords = len.div_ceil(WORD_BITS);
        BitVec {
            len,
            words: vec![0; nwords],
        }
    }

    /// Creates a bit vector from an iterator of booleans.
    ///
    /// # Examples
    ///
    /// ```
    /// use quclear_pauli::BitVec;
    /// let bits = BitVec::from_bools([true, false, true]);
    /// assert_eq!(bits.len(), 3);
    /// assert_eq!(bits.count_ones(), 2);
    /// ```
    #[must_use]
    pub fn from_bools<I: IntoIterator<Item = bool>>(bools: I) -> Self {
        let bools: Vec<bool> = bools.into_iter().collect();
        let mut bv = BitVec::zeros(bools.len());
        for (i, b) in bools.iter().enumerate() {
            bv.set(i, *b);
        }
        bv
    }

    /// Number of bits in the vector.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector has zero length.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the bit at position `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    #[must_use]
    pub fn get(&self, idx: usize) -> bool {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        (self.words[idx / WORD_BITS] >> (idx % WORD_BITS)) & 1 == 1
    }

    /// Sets the bit at position `idx` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    pub fn set(&mut self, idx: usize, value: bool) {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        let word = &mut self.words[idx / WORD_BITS];
        let mask = 1u64 << (idx % WORD_BITS);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Number of bits set to one.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        debug_assert!(self.tail_is_clear(), "dirty tail word in count_ones");
        simd::popcount(&self.words) as usize
    }

    /// Returns `true` if no bit is set.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// XORs `other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_with(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "length mismatch in BitVec::xor_with");
        simd::xor_into(&mut self.words, &other.words);
    }

    /// Returns the number of positions where both vectors have a one bit,
    /// without materializing the AND.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    pub fn and_popcount(&self, other: &BitVec) -> usize {
        assert_eq!(
            self.len, other.len,
            "length mismatch in BitVec::and_popcount"
        );
        debug_assert!(self.tail_is_clear(), "dirty tail word in and_popcount");
        debug_assert!(other.tail_is_clear(), "dirty tail word in and_popcount");
        simd::and_popcount(&self.words, &other.words) as usize
    }

    /// Parity (XOR) of the AND of the two vectors; this is the symplectic
    /// building block used for commutation checks.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    pub fn and_parity(&self, other: &BitVec) -> bool {
        self.and_popcount(other) % 2 == 1
    }

    /// Iterator over the indices of set bits, in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &word)| {
            let base = wi * WORD_BITS;
            let len = self.len;
            IterWordOnes { word, base }.filter(move |&i| i < len)
        })
    }

    /// XORs the word-wise AND of `a` and `b` into `self`
    /// (`self ^= a & b`), the inner step of word-parallel sign updates.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_with_and(&mut self, a: &BitVec, b: &BitVec) {
        assert_eq!(self.len, a.len, "length mismatch in BitVec::xor_with_and");
        assert_eq!(self.len, b.len, "length mismatch in BitVec::xor_with_and");
        simd::xor_and_into(&mut self.words, &a.words, &b.words);
    }

    /// XORs the word-wise AND-NOT of `a` and `b` into `self`
    /// (`self ^= a & !b`), the other sign-update primitive (`S†`/`√X`
    /// conjugation flips signs where one plane is set and the other clear).
    ///
    /// The complement of `b` only exists lane-by-lane inside the kernel, so
    /// its tail words never see the inverted padding bits — `self` stays
    /// canonical.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_with_andnot(&mut self, a: &BitVec, b: &BitVec) {
        assert_eq!(
            self.len, a.len,
            "length mismatch in BitVec::xor_with_andnot"
        );
        assert_eq!(
            self.len, b.len,
            "length mismatch in BitVec::xor_with_andnot"
        );
        simd::xor_andnot_into(&mut self.words, &a.words, &b.words);
        // a & !b can set padding bits only where a's tail is dirty; a
        // canonical `a` keeps `self` canonical. Checked, not re-masked, so
        // the cost is debug-only.
        debug_assert!(self.tail_is_clear(), "dirty tail word in xor_with_andnot");
    }

    /// The backing `u64` words, least-significant bit first.
    ///
    /// Bits at positions `>= len()` are always zero, so the words are a
    /// canonical representation of the vector — suitable for word-at-a-time
    /// hashing (e.g. structural fingerprints of Pauli programs).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the backing words for word-parallel kernels.
    ///
    /// Callers must keep bits at positions `>= len()` zero: every counting
    /// operation (`count_ones`, `and_parity`, …) assumes the tail bits are a
    /// canonical zero padding. Writing garbage above `len()` silently
    /// corrupts popcount-based results — debug builds catch it via the
    /// [`BitVec::tail_is_clear`] assertions in the counting ops.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Returns `true` if every bit at position `>= len()` in the final
    /// partial word is zero — the canonical-padding invariant that
    /// popcount-based operations rely on.
    ///
    /// Always `true` unless a [`BitVec::words_mut`] caller wrote past the
    /// logical length; counting operations `debug_assert!` it.
    #[must_use]
    pub fn tail_is_clear(&self) -> bool {
        let tail = self.len % WORD_BITS;
        if tail == 0 {
            return true;
        }
        match self.words.last() {
            Some(&last) => last & (u64::MAX << tail) == 0,
            None => true,
        }
    }

    /// Flips every bit in the vector (`self = !self`), masking the partial
    /// tail word so bits at positions `>= len()` stay zero.
    pub fn flip_all(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> (WORD_BITS - tail);
            }
        }
    }

    /// Resets every bit to zero.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }
}

/// Transposes a 64×64 bit matrix in place (the recursive block swap of
/// Hacker's Delight 7-3, mirrored for least-significant-bit-first
/// indexing): entry (bit `j` of word `i`) swaps with (bit `i` of word `j`),
/// but only the first `rows` output words are produced; the remaining words
/// are left in an unspecified state. `rows = 64` is the full transpose.
///
/// This is the building block for word-parallel layout changes between
/// row-major bit vectors and column-major bit-planes (Pauli frames, shot
/// batches): 4096 bits move in ~6·64 word operations, never one at a time.
///
/// Butterflies whose outputs all land past `rows` are skipped, so a partial
/// transpose costs roughly `rows/64` of the full ladder plus the shared
/// leading stages — packing `n`-qubit shot indices into `n < 64` planes
/// (the `ShotBatch` ingest path in `quclear-core`) never pays for the
/// 64 − n planes it is about to throw away. A stage with stride `j` only ever mixes rows
/// within an aligned `2j`-block, so the rows needed *at* that stage are
/// `rows` rounded up to the enclosing aligned `j`-blocks — everything below
/// that bound is computed exactly as in the full transpose.
///
/// # Panics
///
/// Panics if `rows` is 0 or greater than 64.
pub fn transpose64_top(a: &mut [u64; 64], rows: usize) {
    assert!((1..=64).contains(&rows), "rows must be in 1..=64");
    let mut j = 32;
    let mut m: u64 = 0xFFFF_FFFF_0000_0000;
    while j != 0 {
        // Output rows this stage must produce: the full aligned j-blocks
        // covering `rows` (later stages never reach outside their block).
        let needed = rows.div_ceil(j) * j;
        let mut k = 0;
        while k < needed {
            let t = (a[k] ^ (a[k | j] << j)) & m;
            a[k] ^= t;
            if (k | j) < needed {
                a[k | j] ^= t >> j;
            }
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m >> j;
    }
}

/// Transposes up to 64 source words into their first `rows ≤ 32` transposed
/// rows, fusing the source load with the stride-32 butterfly stage.
///
/// When at most 32 output rows are wanted, the stride-32 stage only keeps
/// the low half of every butterfly, so the 64 source words collapse into a
/// 32-word working block as they are first read — there is no 64-word copy
/// and the remaining ladder runs on half the state. This is the hot path of
/// shot-index packing (`ShotBatch::from_indices` in `quclear-core`) for
/// `n ≤ 32` qubits. Source words past `chunk.len()` are treated as zero (a
/// partial tail block of shots).
///
/// # Panics
///
/// Panics if `rows` is 0 or greater than 32, or `chunk` has more than 64
/// words.
#[must_use]
pub fn transpose64_pack32(chunk: &[u64], rows: usize) -> [u64; 32] {
    assert!((1..=32).contains(&rows), "rows must be in 1..=32");
    assert!(
        chunk.len() <= 64,
        "a transpose block holds at most 64 words"
    );
    let src = |i: usize| chunk.get(i).copied().unwrap_or(0);
    let mut a = [0u64; 32];
    // Stride-32 stage fused with the load: only the low output rows are
    // kept, so each pair (k, k+32) of source words produces one block word.
    let m32: u64 = 0xFFFF_FFFF_0000_0000;
    for (k, word) in a.iter_mut().enumerate() {
        let x = src(k);
        let t = (x ^ (src(k + 32) << 32)) & m32;
        *word = x ^ t;
    }
    // Remaining ladder, pruned exactly as in [`transpose64_top`].
    let mut j = 16;
    let mut m: u64 = 0xFFFF_0000_FFFF_0000;
    while j != 0 {
        let needed = rows.div_ceil(j) * j;
        let mut k = 0;
        while k < needed {
            let t = (a[k] ^ (a[k | j] << j)) & m;
            a[k] ^= t;
            if (k | j) < needed {
                a[k | j] ^= t >> j;
            }
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m >> j;
    }
    a
}

struct IterWordOnes {
    word: u64,
    base: usize,
}

impl Iterator for IterWordOnes {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            None
        } else {
            let tz = self.word.trailing_zeros() as usize;
            self.word &= self.word - 1;
            Some(self.base + tz)
        }
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[")?;
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full 64-row transpose.
    fn transpose64(a: &mut [u64; 64]) {
        transpose64_top(a, 64);
    }

    #[test]
    fn zeros_is_empty_of_ones() {
        let b = BitVec::zeros(130);
        assert_eq!(b.len(), 130);
        assert_eq!(b.count_ones(), 0);
        assert!(b.is_zero());
    }

    #[test]
    fn set_get_roundtrip_across_word_boundary() {
        let mut b = BitVec::zeros(130);
        for idx in [0, 1, 63, 64, 65, 127, 128, 129] {
            b.set(idx, true);
            assert!(b.get(idx), "bit {idx} should be set");
        }
        assert_eq!(b.count_ones(), 8);
        b.set(64, false);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 7);
    }

    #[test]
    fn xor_with_combines() {
        let a = BitVec::from_bools([true, false, true, false]);
        let b = BitVec::from_bools([true, true, false, false]);
        let mut c = a.clone();
        c.xor_with(&b);
        assert_eq!(c, BitVec::from_bools([false, true, true, false]));
    }

    #[test]
    fn and_count_and_parity() {
        let a = BitVec::from_bools([true, true, true, false]);
        let b = BitVec::from_bools([true, true, false, true]);
        assert_eq!(a.and_popcount(&b), 2);
        assert!(!a.and_parity(&b));
        let c = BitVec::from_bools([true, false, false, false]);
        assert!(a.and_parity(&c));
    }

    #[test]
    fn iter_ones_yields_sorted_indices() {
        let mut b = BitVec::zeros(200);
        let idxs = [3, 64, 65, 150, 199];
        for &i in &idxs {
            b.set(i, true);
        }
        let collected: Vec<usize> = b.iter_ones().collect();
        assert_eq!(collected, idxs);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let b = BitVec::zeros(4);
        let _ = b.get(4);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn xor_length_mismatch_panics() {
        let mut a = BitVec::zeros(4);
        let b = BitVec::zeros(5);
        a.xor_with(&b);
    }

    #[test]
    fn clear_resets() {
        let mut b = BitVec::from_bools([true, true, true]);
        b.clear();
        assert!(b.is_zero());
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn and_count_across_word_boundaries() {
        let mut a = BitVec::zeros(130);
        let mut b = BitVec::zeros(130);
        for i in [0, 63, 64, 65, 127, 128, 129] {
            a.set(i, true);
        }
        for i in [63, 64, 100, 129] {
            b.set(i, true);
        }
        assert_eq!(a.and_popcount(&b), 3); // 63, 64, 129
        assert!(a.and_parity(&b));
    }

    #[test]
    fn xor_with_and_matches_bitwise_definition() {
        let a = BitVec::from_bools((0..100).map(|i| i % 3 == 0));
        let b = BitVec::from_bools((0..100).map(|i| i % 5 == 0));
        let mut s = BitVec::from_bools((0..100).map(|i| i % 7 == 0));
        let mut expected = s.clone();
        for i in 0..100 {
            expected.set(i, expected.get(i) ^ (a.get(i) & b.get(i)));
        }
        s.xor_with_and(&a, &b);
        assert_eq!(s, expected);
    }

    #[test]
    fn transpose64_moves_every_bit() {
        let mut a = [0u64; 64];
        let mut s = 0x1234_5678u64;
        for w in a.iter_mut() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *w = s;
        }
        let orig = a;
        transpose64(&mut a);
        for (i, &before) in orig.iter().enumerate() {
            for (j, &after) in a.iter().enumerate() {
                assert_eq!((after >> i) & 1, (before >> j) & 1, "entry ({i},{j})");
            }
        }
        transpose64(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn transpose64_top_matches_full_prefix_at_every_row_count() {
        let mut base = [0u64; 64];
        let mut s = 0x9e37_79b9u64;
        for w in base.iter_mut() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *w = s;
        }
        let mut full = base;
        transpose64(&mut full);
        for rows in 1..=64 {
            let mut partial = base;
            transpose64_top(&mut partial, rows);
            assert_eq!(partial[..rows], full[..rows], "rows = {rows}");
        }
    }

    #[test]
    fn transpose64_pack32_matches_full_at_every_row_count_and_chunk_len() {
        let mut base = [0u64; 64];
        let mut s = 0x51_7cc1u64;
        for w in base.iter_mut() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *w = s;
        }
        for chunk_len in [0usize, 1, 13, 31, 32, 33, 57, 63, 64] {
            let mut full = [0u64; 64];
            full[..chunk_len].copy_from_slice(&base[..chunk_len]);
            transpose64(&mut full);
            for rows in 1..=32 {
                let packed = transpose64_pack32(&base[..chunk_len], rows);
                assert_eq!(
                    packed[..rows],
                    full[..rows],
                    "chunk_len = {chunk_len}, rows = {rows}"
                );
            }
        }
    }

    #[test]
    fn flip_all_masks_the_tail() {
        let mut b = BitVec::zeros(70);
        b.set(3, true);
        b.set(69, true);
        b.flip_all();
        assert_eq!(b.count_ones(), 68);
        assert!(!b.get(3) && !b.get(69));
        assert!(b.get(0) && b.get(64) && b.get(68));
        // Double flip is the identity.
        b.flip_all();
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![3, 69]);
        // Word-aligned length: no tail to mask.
        let mut c = BitVec::zeros(64);
        c.flip_all();
        assert_eq!(c.count_ones(), 64);
    }

    #[test]
    fn and_popcount_matches_and_count() {
        let a = BitVec::from_bools((0..200).map(|i| i % 3 == 0));
        let b = BitVec::from_bools((0..200).map(|i| i % 4 == 0));
        let want = (0..200).filter(|i| i % 3 == 0 && i % 4 == 0).count();
        assert_eq!(a.and_popcount(&b), want);
    }

    #[test]
    fn xor_with_andnot_matches_bitwise_definition() {
        let a = BitVec::from_bools((0..100).map(|i| i % 3 == 0));
        let b = BitVec::from_bools((0..100).map(|i| i % 5 == 0));
        let mut s = BitVec::from_bools((0..100).map(|i| i % 7 == 0));
        let mut expected = s.clone();
        for i in 0..100 {
            expected.set(i, expected.get(i) ^ (a.get(i) & !b.get(i)));
        }
        s.xor_with_andnot(&a, &b);
        assert_eq!(s, expected);
        assert!(s.tail_is_clear());
    }

    #[test]
    fn tail_is_clear_tracks_padding() {
        let mut b = BitVec::zeros(70);
        assert!(b.tail_is_clear());
        b.set(69, true);
        assert!(b.tail_is_clear());
        b.words_mut()[1] |= 1 << 20; // bit 84: past len
        assert!(!b.tail_is_clear());
        // Word-aligned lengths have no padding to dirty.
        let mut c = BitVec::zeros(128);
        c.words_mut()[1] = u64::MAX;
        assert!(c.tail_is_clear());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "dirty tail word")]
    fn dirty_tail_is_caught_by_counting_ops() {
        let mut b = BitVec::zeros(70);
        b.words_mut()[1] |= 1 << 30;
        let _ = b.count_ones();
    }

    #[test]
    fn from_bools_empty() {
        let b = BitVec::from_bools(std::iter::empty());
        assert!(b.is_empty());
        assert!(b.is_zero());
    }
}
