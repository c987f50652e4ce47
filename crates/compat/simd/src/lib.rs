//! Offline stand-in for a portable-SIMD crate (`std::simd` / `wide`).
//!
//! The build environment of this repository has no network access (and the
//! stable toolchain has no `std::simd`), so this crate provides the small
//! SIMD surface the workspace's bit-plane kernels need: a [`Lane`] — a fixed
//! block of `W` consecutive `u64` words treated as one wide bitwise value —
//! plus slice kernels (`xor_into`, `and_popcount`, …) that walk a slice one
//! lane at a time with a scalar tail loop.
//!
//! Nothing here uses intrinsics: a `Lane` is a plain `[u64; W]` and every
//! operation is a fixed-length element-wise loop, which LLVM reliably
//! auto-vectorizes into SSE2/AVX2/NEON at `W ∈ {2, 4, 8}`. The point of the
//! abstraction is to give the compiler *provably* unit-stride, fixed-trip
//! inner loops (and the optimizer a single obvious unroll factor) instead of
//! hoping it widens a `zip` over `Vec<u64>` by itself.
//!
//! # Width
//!
//! The crate-level constant [`LANE_WORDS`] is 4 (256-bit lanes), and
//! [`DefaultLane`] is the corresponding `Lane` type. The default slice
//! kernels (`xor_into`, …) are monomorphized at `LANE_WORDS`; their `*_w`
//! variants take the width as a const generic so tests can compare **every**
//! width against the scalar (`W = 1`) oracle in one build.
//!
//! # Examples
//!
//! ```
//! use simd::{Lane, LANE_WORDS};
//!
//! let a = Lane::<4>::splat(0b1010);
//! let b = Lane::<4>::splat(0b0110);
//! assert_eq!((a ^ b).popcount(), 4 * 2);
//!
//! let mut dst = vec![0u64; 100];
//! let src = vec![u64::MAX; 100];
//! simd::xor_into(&mut dst, &src);
//! assert_eq!(simd::popcount(&dst), 100 * 64);
//! assert!(LANE_WORDS.is_power_of_two());
//! ```

#![warn(missing_docs)]

use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Not};

/// The lane width of the default kernels, in 64-bit words.
pub const LANE_WORDS: usize = 4;

/// The [`Lane`] type at the [`LANE_WORDS`] width.
pub type DefaultLane = Lane<LANE_WORDS>;

/// A fixed block of `W` consecutive `u64` words treated as one wide bitwise
/// value: `64·W` bits with element-wise XOR/AND/OR/NOT, a masked-update
/// helper and a popcount.
///
/// `Lane` is `Copy` and lives entirely in registers; kernels load one lane
/// from a slice, combine lanes, and store the result back
/// ([`Lane::load`]/[`Lane::store`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lane<const W: usize>(pub [u64; W]);

impl<const W: usize> Default for Lane<W> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const W: usize> Lane<W> {
    /// The all-zero lane.
    pub const ZERO: Self = Lane([0; W]);

    /// Broadcasts one word into every element of the lane.
    #[inline]
    #[must_use]
    pub fn splat(word: u64) -> Self {
        Lane([word; W])
    }

    /// Loads the first `W` words of `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() < W`.
    #[inline]
    #[must_use]
    pub fn load(src: &[u64]) -> Self {
        let mut out = [0u64; W];
        out.copy_from_slice(&src[..W]);
        Lane(out)
    }

    /// Stores the lane into the first `W` words of `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() < W`.
    #[inline]
    pub fn store(self, dst: &mut [u64]) {
        dst[..W].copy_from_slice(&self.0);
    }

    /// Element-wise `self & !other` (AND-NOT, the sign-update primitive of
    /// the `S†`/`√X` conjugation kernels).
    #[inline]
    #[must_use]
    pub fn andnot(self, other: Self) -> Self {
        let mut out = self.0;
        for (o, b) in out.iter_mut().zip(&other.0) {
            *o &= !b;
        }
        Lane(out)
    }

    /// Masked update: replaces the bits of `self` selected by `mask` with the
    /// corresponding bits of `other` (`(self & !mask) | (other & mask)`).
    #[inline]
    #[must_use]
    pub fn select(self, other: Self, mask: Self) -> Self {
        let mut out = self.0;
        for ((o, b), m) in out.iter_mut().zip(&other.0).zip(&mask.0) {
            *o = (*o & !m) | (b & m);
        }
        Lane(out)
    }

    /// Number of set bits across the whole lane.
    #[inline]
    #[must_use]
    pub fn popcount(self) -> u32 {
        let mut total = 0u32;
        for w in self.0 {
            total += w.count_ones();
        }
        total
    }

    /// Returns `true` if every bit of the lane is zero.
    #[inline]
    #[must_use]
    pub fn is_zero(self) -> bool {
        let mut acc = 0u64;
        for w in self.0 {
            acc |= w;
        }
        acc == 0
    }
}

macro_rules! lane_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $op:tt) => {
        impl<const W: usize> $trait for Lane<W> {
            type Output = Lane<W>;

            #[inline]
            fn $method(self, rhs: Lane<W>) -> Lane<W> {
                let mut out = self.0;
                for (o, r) in out.iter_mut().zip(&rhs.0) {
                    *o $op r;
                }
                Lane(out)
            }
        }

        impl<const W: usize> $assign_trait for Lane<W> {
            #[inline]
            fn $assign_method(&mut self, rhs: Lane<W>) {
                for (o, r) in self.0.iter_mut().zip(&rhs.0) {
                    *o $op r;
                }
            }
        }
    };
}

lane_binop!(BitXor, bitxor, BitXorAssign, bitxor_assign, ^=);
lane_binop!(BitAnd, bitand, BitAndAssign, bitand_assign, &=);
lane_binop!(BitOr, bitor, BitOrAssign, bitor_assign, |=);

impl<const W: usize> Not for Lane<W> {
    type Output = Lane<W>;

    #[inline]
    fn not(self) -> Lane<W> {
        let mut out = self.0;
        for o in out.iter_mut() {
            *o = !*o;
        }
        Lane(out)
    }
}

// --- slice kernels ---------------------------------------------------------
//
// Every kernel walks the slices one lane at a time (`W` words) and finishes
// the remainder with a scalar loop, so any slice length — including lengths
// that are not a multiple of the lane width — is handled exactly. The `_w`
// variants take the width as a const generic; the unsuffixed functions are
// the same kernels monomorphized at `LANE_WORDS`.

/// Asserts the shared length of a kernel's slices.
macro_rules! check_len {
    ($len:expr, $($s:expr),+) => {
        $(debug_assert_eq!($s.len(), $len, "simd kernel slice length mismatch");)+
    };
}

/// `dst[i] ^= src[i]` at lane width `W`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn xor_into_w<const W: usize>(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len(), "xor_into length mismatch");
    let len = dst.len();
    let mut i = 0;
    while i + W <= len {
        let a = Lane::<W>::load(&dst[i..]);
        let b = Lane::<W>::load(&src[i..]);
        (a ^ b).store(&mut dst[i..]);
        i += W;
    }
    while i < len {
        dst[i] ^= src[i];
        i += 1;
    }
}

/// `dst[i] &= src[i]` at lane width `W`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn and_into_w<const W: usize>(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len(), "and_into length mismatch");
    let len = dst.len();
    let mut i = 0;
    while i + W <= len {
        let a = Lane::<W>::load(&dst[i..]);
        let b = Lane::<W>::load(&src[i..]);
        (a & b).store(&mut dst[i..]);
        i += W;
    }
    while i < len {
        dst[i] &= src[i];
        i += 1;
    }
}

/// `dst[i] |= src[i]` at lane width `W`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn or_into_w<const W: usize>(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len(), "or_into length mismatch");
    let len = dst.len();
    let mut i = 0;
    while i + W <= len {
        let a = Lane::<W>::load(&dst[i..]);
        let b = Lane::<W>::load(&src[i..]);
        (a | b).store(&mut dst[i..]);
        i += W;
    }
    while i < len {
        dst[i] |= src[i];
        i += 1;
    }
}

/// `dst[i] ^= a[i] & b[i]` at lane width `W` (the word-parallel sign-update
/// primitive).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn xor_and_into_w<const W: usize>(dst: &mut [u64], a: &[u64], b: &[u64]) {
    assert_eq!(dst.len(), a.len(), "xor_and_into length mismatch");
    assert_eq!(dst.len(), b.len(), "xor_and_into length mismatch");
    let len = dst.len();
    let mut i = 0;
    while i + W <= len {
        let d = Lane::<W>::load(&dst[i..]);
        let la = Lane::<W>::load(&a[i..]);
        let lb = Lane::<W>::load(&b[i..]);
        (d ^ (la & lb)).store(&mut dst[i..]);
        i += W;
    }
    while i < len {
        dst[i] ^= a[i] & b[i];
        i += 1;
    }
}

/// `dst[i] ^= a[i] & !b[i]` at lane width `W`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn xor_andnot_into_w<const W: usize>(dst: &mut [u64], a: &[u64], b: &[u64]) {
    assert_eq!(dst.len(), a.len(), "xor_andnot_into length mismatch");
    assert_eq!(dst.len(), b.len(), "xor_andnot_into length mismatch");
    let len = dst.len();
    let mut i = 0;
    while i + W <= len {
        let d = Lane::<W>::load(&dst[i..]);
        let la = Lane::<W>::load(&a[i..]);
        let lb = Lane::<W>::load(&b[i..]);
        (d ^ la.andnot(lb)).store(&mut dst[i..]);
        i += W;
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
pub fn xor_many_into_w<const W: usize>(dst: &mut [u64], srcs: &[&[u64]]) {
    let len = dst.len();
    for s in srcs {
        assert_eq!(s.len(), len, "xor_many_into length mismatch");
    }
    let mut i = 0;
    while i + W <= len {
        let mut acc = Lane::<W>::load(&dst[i..]);
        for s in srcs {
            acc ^= Lane::<W>::load(&s[i..]);
        }
        acc.store(&mut dst[i..]);
        i += W;
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

/// Total set bits of a slice at lane width `W`.
#[must_use]
pub fn popcount_w<const W: usize>(words: &[u64]) -> u64 {
    let len = words.len();
    let mut total = 0u64;
    let mut i = 0;
    while i + W <= len {
        total += u64::from(Lane::<W>::load(&words[i..]).popcount());
        i += W;
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
#[must_use]
pub fn and_popcount_w<const W: usize>(a: &[u64], b: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len(), "and_popcount length mismatch");
    let len = a.len();
    let mut total = 0u64;
    let mut i = 0;
    while i + W <= len {
        let la = Lane::<W>::load(&a[i..]);
        let lb = Lane::<W>::load(&b[i..]);
        total += u64::from((la & lb).popcount());
        i += W;
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
#[must_use]
pub fn xor_popcount_w<const W: usize>(srcs: &[&[u64]], len: usize) -> u64 {
    for s in srcs {
        assert_eq!(s.len(), len, "xor_popcount length mismatch");
    }
    let Some((first, rest)) = srcs.split_first() else {
        return 0;
    };
    check_len!(len, first);
    let mut total = 0u64;
    let mut i = 0;
    while i + W <= len {
        let mut acc = Lane::<W>::load(&first[i..]);
        for s in rest {
            acc ^= Lane::<W>::load(&s[i..]);
        }
        total += u64::from(acc.popcount());
        i += W;
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

macro_rules! default_kernels {
    ($(
        $(#[$doc:meta])*
        fn $name:ident ( $($arg:ident : $ty:ty),* ) $(-> $ret:ty)? => $generic:ident;
    )+) => {
        $(
            $(#[$doc])*
            #[inline]
            pub fn $name($($arg: $ty),*) $(-> $ret)? {
                $generic::<LANE_WORDS>($($arg),*)
            }
        )+
    };
}

default_kernels! {
    /// [`xor_into_w`] at [`LANE_WORDS`].
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    fn xor_into(dst: &mut [u64], src: &[u64]) => xor_into_w;
    /// [`and_into_w`] at [`LANE_WORDS`].
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    fn and_into(dst: &mut [u64], src: &[u64]) => and_into_w;
    /// [`or_into_w`] at [`LANE_WORDS`].
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    fn or_into(dst: &mut [u64], src: &[u64]) => or_into_w;
    /// [`xor_and_into_w`] at [`LANE_WORDS`].
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    fn xor_and_into(dst: &mut [u64], a: &[u64], b: &[u64]) => xor_and_into_w;
    /// [`xor_andnot_into_w`] at [`LANE_WORDS`].
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    fn xor_andnot_into(dst: &mut [u64], a: &[u64], b: &[u64]) => xor_andnot_into_w;
    /// [`xor_many_into_w`] at [`LANE_WORDS`].
    ///
    /// # Panics
    ///
    /// Panics if any source length differs from `dst.len()`.
    fn xor_many_into(dst: &mut [u64], srcs: &[&[u64]]) => xor_many_into_w;
}

/// [`popcount_w`] at [`LANE_WORDS`].
#[inline]
#[must_use]
pub fn popcount(words: &[u64]) -> u64 {
    popcount_w::<LANE_WORDS>(words)
}

/// [`and_popcount_w`] at [`LANE_WORDS`].
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
#[must_use]
pub fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
    and_popcount_w::<LANE_WORDS>(a, b)
}

/// [`xor_popcount_w`] at [`LANE_WORDS`].
///
/// # Panics
///
/// Panics if any source length differs from `len`.
#[inline]
#[must_use]
pub fn xor_popcount(srcs: &[&[u64]], len: usize) -> u64 {
    xor_popcount_w::<LANE_WORDS>(srcs, len)
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

    /// Runs `check` at every supported lane width.
    macro_rules! every_width {
        ($w:ident => $body:block) => {{
            const $w: usize = 1;
            $body
        }
        {
            const $w: usize = 2;
            $body
        }
        {
            const $w: usize = 4;
            $body
        }
        {
            const $w: usize = 8;
            $body
        }};
    }

    #[test]
    fn lane_ops_match_wordwise() {
        let a = Lane::<4>([1, 2, 3, u64::MAX]);
        let b = Lane::<4>([3, 2, 1, 0]);
        assert_eq!((a ^ b).0, [2, 0, 2, u64::MAX]);
        assert_eq!((a & b).0, [1, 2, 1, 0]);
        assert_eq!((a | b).0, [3, 2, 3, u64::MAX]);
        assert_eq!((!Lane::<2>([0, u64::MAX])).0, [u64::MAX, 0]);
        assert_eq!(a.andnot(b).0, [0, 0, 2, u64::MAX]);
        assert_eq!(a.popcount(), 1 + 1 + 2 + 64);
        assert!(Lane::<3>::ZERO.is_zero());
        assert!(!a.is_zero());
        let mut c = a;
        c ^= b;
        assert_eq!(c, a ^ b);
    }

    #[test]
    fn lane_select_replaces_masked_bits() {
        let a = Lane::<2>::splat(0b1100);
        let b = Lane::<2>::splat(0b1010);
        let m = Lane::<2>::splat(0b0110);
        assert_eq!(a.select(b, m).0, [0b1010, 0b1010]);
    }

    #[test]
    fn lane_load_store_roundtrip() {
        let src = data(10, 1);
        let lane = Lane::<8>::load(&src);
        let mut out = vec![0u64; 10];
        lane.store(&mut out);
        assert_eq!(&out[..8], &src[..8]);
        assert_eq!(&out[8..], &[0, 0]);
    }

    #[test]
    fn slice_kernels_match_scalar_at_every_width_and_odd_lengths() {
        for len in [0usize, 1, 3, 7, 8, 9, 31, 64, 65, 100] {
            let a = data(len, 7);
            let b = data(len, 11);
            let c = data(len, 13);
            every_width!(W => {
                let mut d = a.clone();
                xor_into_w::<W>(&mut d, &b);
                for i in 0..len {
                    assert_eq!(d[i], a[i] ^ b[i]);
                }
                let mut d = a.clone();
                and_into_w::<W>(&mut d, &b);
                for i in 0..len {
                    assert_eq!(d[i], a[i] & b[i]);
                }
                let mut d = a.clone();
                or_into_w::<W>(&mut d, &b);
                for i in 0..len {
                    assert_eq!(d[i], a[i] | b[i]);
                }
                let mut d = a.clone();
                xor_and_into_w::<W>(&mut d, &b, &c);
                for i in 0..len {
                    assert_eq!(d[i], a[i] ^ (b[i] & c[i]));
                }
                let mut d = a.clone();
                xor_andnot_into_w::<W>(&mut d, &b, &c);
                for i in 0..len {
                    assert_eq!(d[i], a[i] ^ (b[i] & !c[i]));
                }
                let mut d = a.clone();
                xor_many_into_w::<W>(&mut d, &[&b, &c, &b]);
                for i in 0..len {
                    assert_eq!(d[i], a[i] ^ c[i], "three sources, two cancel");
                }
                let want: u64 = a.iter().map(|w| u64::from(w.count_ones())).sum();
                assert_eq!(popcount_w::<W>(&a), want);
                let want: u64 = (0..len).map(|i| u64::from((a[i] & b[i]).count_ones())).sum();
                assert_eq!(and_popcount_w::<W>(&a, &b), want);
                let want: u64 = (0..len)
                    .map(|i| u64::from((a[i] ^ b[i] ^ c[i]).count_ones()))
                    .sum();
                assert_eq!(xor_popcount_w::<W>(&[&a, &b, &c], len), want);
                assert_eq!(xor_popcount_w::<W>(&[], len), 0);
            });
        }
    }

    #[test]
    fn default_kernels_use_the_configured_width() {
        assert!(matches!(LANE_WORDS, 1 | 2 | 4 | 8));
        let a = data(37, 3);
        let b = data(37, 5);
        let mut d = a.clone();
        xor_into(&mut d, &b);
        let mut e = a.clone();
        xor_into_w::<LANE_WORDS>(&mut e, &b);
        assert_eq!(d, e);
        assert_eq!(popcount(&a), popcount_w::<1>(&a));
        assert_eq!(and_popcount(&a, &b), and_popcount_w::<1>(&a, &b));
        let mut m = a.clone();
        xor_many_into(&mut m, &[&b]);
        assert_eq!(m, d);
        assert_eq!(xor_popcount(&[&a, &b], 37), popcount(&d));
        let mut o = a.clone();
        or_into(&mut o, &b);
        let mut an = a.clone();
        and_into(&mut an, &b);
        let mut x1 = a.clone();
        xor_and_into(&mut x1, &b, &a);
        let mut x2 = a.clone();
        xor_andnot_into(&mut x2, &b, &a);
        for i in 0..37 {
            assert_eq!(o[i], a[i] | b[i]);
            assert_eq!(an[i], a[i] & b[i]);
            assert_eq!(x1[i], a[i] ^ (b[i] & a[i]));
            assert_eq!(x2[i], a[i] ^ (b[i] & !a[i]));
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut d = vec![0u64; 4];
        xor_into(&mut d, &[0u64; 5]);
    }
}
