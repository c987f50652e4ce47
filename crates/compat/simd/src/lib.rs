//! Offline stand-in for a portable-SIMD crate (`std::simd` / `wide`).
//!
//! The build environment of this repository has no network access (and the
//! stable toolchain has no `std::simd`), so this crate provides the small
//! SIMD surface the workspace's bit-plane kernels need: slice kernels
//! (`xor_into`, `and_popcount`, …) that walk a slice one lane of
//! [`LANE_WORDS`] consecutive `u64` words at a time, then finish the
//! remainder with a scalar tail loop.
//!
//! Nothing here uses intrinsics: a lane is a private `[u64; LANE_WORDS]`
//! and every operation is a fixed-length element-wise loop, which LLVM
//! reliably auto-vectorizes into SSE2/AVX2/NEON. The point of the
//! abstraction is to give the compiler *provably* unit-stride, fixed-trip
//! inner loops (and the optimizer a single obvious unroll factor) instead of
//! hoping it widens a `zip` over `Vec<u64>` by itself.
//!
//! # Examples
//!
//! ```
//! let mut dst = vec![0u64; 100];
//! let src = vec![u64::MAX; 100];
//! simd::xor_into(&mut dst, &src);
//! assert_eq!(simd::popcount(&dst), 100 * 64);
//! assert!(simd::LANE_WORDS.is_power_of_two());
//! ```

#![warn(missing_docs)]

use std::ops::{BitAnd, BitXor, BitXorAssign};

/// The lane width of the slice kernels, in 64-bit words (256-bit lanes).
pub const LANE_WORDS: usize = 4;

/// A fixed block of [`LANE_WORDS`] consecutive words treated as one wide
/// bitwise value. Kernels load one lane from a slice, combine lanes, and
/// store the result back.
#[derive(Clone, Copy)]
struct Lane([u64; LANE_WORDS]);

impl Lane {
    /// Loads the first `LANE_WORDS` words of `src`.
    #[inline]
    fn load(src: &[u64]) -> Self {
        let mut out = [0u64; LANE_WORDS];
        out.copy_from_slice(&src[..LANE_WORDS]);
        Lane(out)
    }

    /// Stores the lane into the first `LANE_WORDS` words of `dst`.
    #[inline]
    fn store(self, dst: &mut [u64]) {
        dst[..LANE_WORDS].copy_from_slice(&self.0);
    }

    /// Element-wise `f(self, other)`.
    #[inline]
    fn zip_with(self, other: Self, f: impl Fn(u64, u64) -> u64) -> Self {
        let mut out = self.0;
        for (o, &b) in out.iter_mut().zip(&other.0) {
            *o = f(*o, b);
        }
        Lane(out)
    }

    /// Element-wise `self & !other`.
    #[inline]
    fn andnot(self, other: Self) -> Self {
        self.zip_with(other, |a, b| a & !b)
    }

    /// Number of set bits across the whole lane.
    #[inline]
    fn popcount(self) -> u32 {
        let mut total = 0u32;
        for w in self.0 {
            total += w.count_ones();
        }
        total
    }
}

impl BitXor for Lane {
    type Output = Lane;

    #[inline]
    fn bitxor(self, rhs: Lane) -> Lane {
        self.zip_with(rhs, |a, b| a ^ b)
    }
}

impl BitAnd for Lane {
    type Output = Lane;

    #[inline]
    fn bitand(self, rhs: Lane) -> Lane {
        self.zip_with(rhs, |a, b| a & b)
    }
}

impl BitXorAssign for Lane {
    #[inline]
    fn bitxor_assign(&mut self, rhs: Lane) {
        for (o, r) in self.0.iter_mut().zip(&rhs.0) {
            *o ^= r;
        }
    }
}

// --- slice kernels ---------------------------------------------------------
//
// Every kernel walks the slices one lane at a time and finishes the
// remainder with a scalar loop, so any slice length — including lengths
// that are not a multiple of the lane width — is handled exactly. Every
// kernel is `#[inline]`: the workspace builds without LTO, and the callers
// in other crates run them on planes of a few words, where a call that
// cannot inline measurably slows the sweep.

/// `dst[i] ^= src[i]`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn xor_into(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len(), "xor_into length mismatch");
    let len = dst.len();
    let mut i = 0;
    while i + LANE_WORDS <= len {
        (Lane::load(&dst[i..]) ^ Lane::load(&src[i..])).store(&mut dst[i..]);
        i += LANE_WORDS;
    }
    while i < len {
        dst[i] ^= src[i];
        i += 1;
    }
}

/// `dst[i] ^= a[i] & b[i]` (the word-parallel sign-update primitive).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn xor_and_into(dst: &mut [u64], a: &[u64], b: &[u64]) {
    assert_eq!(dst.len(), a.len(), "xor_and_into length mismatch");
    assert_eq!(dst.len(), b.len(), "xor_and_into length mismatch");
    let len = dst.len();
    let mut i = 0;
    while i + LANE_WORDS <= len {
        let d = Lane::load(&dst[i..]);
        (d ^ (Lane::load(&a[i..]) & Lane::load(&b[i..]))).store(&mut dst[i..]);
        i += LANE_WORDS;
    }
    while i < len {
        dst[i] ^= a[i] & b[i];
        i += 1;
    }
}

/// `dst[i] ^= a[i] & !b[i]` (the sign-update primitive of the `S†`/`√X`
/// conjugation kernels).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn xor_andnot_into(dst: &mut [u64], a: &[u64], b: &[u64]) {
    assert_eq!(dst.len(), a.len(), "xor_andnot_into length mismatch");
    assert_eq!(dst.len(), b.len(), "xor_andnot_into length mismatch");
    let len = dst.len();
    let mut i = 0;
    while i + LANE_WORDS <= len {
        let d = Lane::load(&dst[i..]);
        (d ^ Lane::load(&a[i..]).andnot(Lane::load(&b[i..]))).store(&mut dst[i..]);
        i += LANE_WORDS;
    }
    while i < len {
        dst[i] ^= a[i] & !b[i];
        i += 1;
    }
}

/// XORs every source slice into `dst` in **one pass over `dst`**: each
/// destination lane is loaded once, combined with the matching lane of every
/// source, and stored once — `k` sources cost one read of each source plus a
/// single read-modify-write of the destination, instead of `k` full passes.
///
/// This is the inner step of the packed GF(2) mat-mul
/// (`Gf2Matrix::mul_planes`): an output plane is the XOR of the input planes
/// its matrix row selects.
///
/// # Panics
///
/// Panics if any source length differs from `dst.len()`.
#[inline]
pub fn xor_many_into(dst: &mut [u64], srcs: &[&[u64]]) {
    let len = dst.len();
    for s in srcs {
        assert_eq!(s.len(), len, "xor_many_into length mismatch");
    }
    let mut i = 0;
    while i + LANE_WORDS <= len {
        let mut acc = Lane::load(&dst[i..]);
        for s in srcs {
            acc ^= Lane::load(&s[i..]);
        }
        acc.store(&mut dst[i..]);
        i += LANE_WORDS;
    }
    while i < len {
        let mut acc = dst[i];
        for s in srcs {
            acc ^= s[i];
        }
        dst[i] = acc;
        i += 1;
    }
}

/// Total set bits of a slice.
#[inline]
#[must_use]
pub fn popcount(words: &[u64]) -> u64 {
    let len = words.len();
    let mut total = 0u64;
    let mut i = 0;
    while i + LANE_WORDS <= len {
        total += u64::from(Lane::load(&words[i..]).popcount());
        i += LANE_WORDS;
    }
    while i < len {
        total += u64::from(words[i].count_ones());
        i += 1;
    }
    total
}

/// Popcount of the element-wise AND of two slices (the symplectic-product /
/// commutation-check primitive), without materializing the AND.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
#[must_use]
pub fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len(), "and_popcount length mismatch");
    let len = a.len();
    let mut total = 0u64;
    let mut i = 0;
    while i + LANE_WORDS <= len {
        total += u64::from((Lane::load(&a[i..]) & Lane::load(&b[i..])).popcount());
        i += LANE_WORDS;
    }
    while i < len {
        total += u64::from((a[i] & b[i]).count_ones());
        i += 1;
    }
    total
}

/// Popcount of the XOR of all source slices, fused: no parity buffer is ever
/// materialized — each lane of every source is read once and the running
/// popcount lives in registers.
///
/// This is the batched expectation estimator (`ShotBatch::parity_expectation`):
/// the XOR of an observable's support planes is the per-shot parity and its
/// popcount counts the `−1` outcomes. `len` gives the slice length so an
/// empty selection (`srcs = []`, parity identically zero) is well-defined.
///
/// # Panics
///
/// Panics if any source length differs from `len`.
#[inline]
#[must_use]
pub fn xor_popcount(srcs: &[&[u64]], len: usize) -> u64 {
    for s in srcs {
        assert_eq!(s.len(), len, "xor_popcount length mismatch");
    }
    let Some((first, rest)) = srcs.split_first() else {
        return 0;
    };
    let mut total = 0u64;
    let mut i = 0;
    while i + LANE_WORDS <= len {
        let mut acc = Lane::load(&first[i..]);
        for s in rest {
            acc ^= Lane::load(&s[i..]);
        }
        total += u64::from(acc.popcount());
        i += LANE_WORDS;
    }
    while i < len {
        let mut acc = first[i];
        for s in rest {
            acc ^= s[i];
        }
        total += u64::from(acc.count_ones());
        i += 1;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(len: usize, seed: u64) -> Vec<u64> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                s
            })
            .collect()
    }

    #[test]
    fn lane_ops_match_wordwise() {
        let a = Lane([1, 2, 3, u64::MAX]);
        let b = Lane([3, 2, 1, 0]);
        assert_eq!((a ^ b).0, [2, 0, 2, u64::MAX]);
        assert_eq!((a & b).0, [1, 2, 1, 0]);
        assert_eq!(a.andnot(b).0, [0, 0, 2, u64::MAX]);
        assert_eq!(a.popcount(), 1 + 1 + 2 + 64);
        let mut c = a;
        c ^= b;
        assert_eq!(c.0, (a ^ b).0);
    }

    #[test]
    fn lane_load_store_roundtrip() {
        let src = data(6, 1);
        let lane = Lane::load(&src);
        let mut out = vec![0u64; 6];
        lane.store(&mut out);
        assert_eq!(&out[..LANE_WORDS], &src[..LANE_WORDS]);
        assert_eq!(&out[LANE_WORDS..], &[0, 0]);
    }

    /// Every kernel against a plain per-word loop, on lengths that leave
    /// every possible partial final lane.
    #[test]
    fn slice_kernels_match_scalar_at_odd_lengths() {
        for len in [0usize, 1, 3, 7, 8, 9, 31, 64, 65, 100] {
            let a = data(len, 7);
            let b = data(len, 11);
            let c = data(len, 13);
            let mut d = a.clone();
            xor_into(&mut d, &b);
            for i in 0..len {
                assert_eq!(d[i], a[i] ^ b[i]);
            }
            let mut d = a.clone();
            xor_and_into(&mut d, &b, &c);
            for i in 0..len {
                assert_eq!(d[i], a[i] ^ (b[i] & c[i]));
            }
            let mut d = a.clone();
            xor_andnot_into(&mut d, &b, &c);
            for i in 0..len {
                assert_eq!(d[i], a[i] ^ (b[i] & !c[i]));
            }
            let mut d = a.clone();
            xor_many_into(&mut d, &[&b, &c, &b]);
            for i in 0..len {
                assert_eq!(d[i], a[i] ^ c[i], "three sources, two cancel");
            }
            let want: u64 = a.iter().map(|w| u64::from(w.count_ones())).sum();
            assert_eq!(popcount(&a), want);
            let want: u64 = (0..len)
                .map(|i| u64::from((a[i] & b[i]).count_ones()))
                .sum();
            assert_eq!(and_popcount(&a, &b), want);
            let want: u64 = (0..len)
                .map(|i| u64::from((a[i] ^ b[i] ^ c[i]).count_ones()))
                .sum();
            assert_eq!(xor_popcount(&[&a, &b, &c], len), want);
            assert_eq!(xor_popcount(&[], len), 0);
        }
    }

    /// The kernels agree with each other across a length that is not a
    /// multiple of the configured lane width.
    #[test]
    fn default_kernels_use_the_configured_width() {
        assert!(LANE_WORDS.is_power_of_two());
        let len = 9 * LANE_WORDS + 1;
        let a = data(len, 3);
        let b = data(len, 5);
        let mut d = a.clone();
        xor_into(&mut d, &b);
        let mut m = a.clone();
        xor_many_into(&mut m, &[&b]);
        assert_eq!(m, d);
        assert_eq!(xor_popcount(&[&a, &b], len), popcount(&d));
        assert_eq!(xor_popcount(&[&a], len), popcount(&a));
        assert_eq!(and_popcount(&a, &a), popcount(&a));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut d = vec![0u64; 4];
        xor_into(&mut d, &[0u64; 5]);
    }
}
