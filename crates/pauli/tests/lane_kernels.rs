//! Scalar-oracle property tests for the wide-lane kernels.
//!
//! Every slice kernel of the `simd` shim is compared against a plain
//! per-word `u64` loop written here — the scalar oracle — on lengths that
//! leave every possible partial final lane. The `BitVec` layer is then
//! checked against a `Vec<bool>` oracle on lengths that are not multiples
//! of 64, so the masked final partial word and the tail-padding invariant
//! are exercised on every operation.

use proptest::prelude::*;
use quclear_pauli::BitVec;

fn bitvec(bools: &[bool]) -> BitVec {
    BitVec::from_bools(bools.iter().copied())
}

proptest! {
    /// Every slice kernel agrees with a per-word scalar loop, including on
    /// lengths with a partial final lane and on an empty source set.
    #[test]
    fn slice_kernels_match_scalar_oracle(
        data in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..131),
    ) {
        let a: Vec<u64> = data.iter().map(|t| t.0).collect();
        let b: Vec<u64> = data.iter().map(|t| t.1).collect();
        let c: Vec<u64> = data.iter().map(|t| t.2).collect();
        let len = a.len();
        let zip = |f: fn(u64, u64, u64) -> u64| -> Vec<u64> {
            (0..len).map(|i| f(a[i], b[i], c[i])).collect()
        };
        let count = |words: Vec<u64>| -> u64 { words.iter().map(|w| u64::from(w.count_ones())).sum() };

        let mut d = a.clone();
        simd::xor_into(&mut d, &b);
        prop_assert_eq!(&d, &zip(|a, b, _| a ^ b));
        let mut d = a.clone();
        simd::or_into(&mut d, &b);
        prop_assert_eq!(&d, &zip(|a, b, _| a | b));
        let mut d = a.clone();
        simd::xor_and_into(&mut d, &b, &c);
        prop_assert_eq!(&d, &zip(|a, b, c| a ^ (b & c)));
        let mut d = a.clone();
        simd::xor_andnot_into(&mut d, &b, &c);
        prop_assert_eq!(&d, &zip(|a, b, c| a ^ (b & !c)));
        let mut d = a.clone();
        simd::xor_many_into(&mut d, &[&b[..], &c[..], &b[..]]);
        prop_assert_eq!(&d, &zip(|a, b, c| a ^ b ^ c ^ b));

        prop_assert_eq!(simd::popcount(&a), count(a.clone()));
        prop_assert_eq!(simd::and_popcount(&a, &b), count(zip(|a, b, _| a & b)));
        prop_assert_eq!(simd::xor_popcount(&[&a, &b, &c], len), count(zip(|a, b, c| a ^ b ^ c)));
        // Empty source set: parity identically zero.
        prop_assert_eq!(simd::xor_popcount(&[], len), 0);
    }

    /// The `BitVec` bulk operations agree with a per-bit `Vec<bool>` oracle
    /// on lengths with a masked final partial word, and all of them preserve
    /// the tail-padding invariant.
    #[test]
    fn bitvec_ops_match_bool_oracle(
        pairs in prop::collection::vec((any::<bool>(), any::<bool>()), 0..200),
    ) {
        let ab: Vec<bool> = pairs.iter().map(|p| p.0).collect();
        let bb: Vec<bool> = pairs.iter().map(|p| p.1).collect();
        let len = ab.len();
        let a = bitvec(&ab);
        let b = bitvec(&bb);

        prop_assert_eq!(a.count_ones(), ab.iter().filter(|&&x| x).count());
        let and_want = (0..len).filter(|&i| ab[i] && bb[i]).count();
        prop_assert_eq!(a.and_popcount(&b), and_want);
        prop_assert_eq!(a.and_parity(&b), and_want % 2 == 1);

        let mut x = a.clone();
        x.xor_with(&b);
        prop_assert_eq!(&x, &bitvec(&(0..len).map(|i| ab[i] ^ bb[i]).collect::<Vec<_>>()));
        prop_assert!(x.tail_is_clear());

        let mut s = BitVec::zeros(len);
        s.xor_with_and(&a, &b);
        prop_assert_eq!(&s, &bitvec(&(0..len).map(|i| ab[i] & bb[i]).collect::<Vec<_>>()));
        let mut s = BitVec::zeros(len);
        s.xor_with_andnot(&a, &b);
        prop_assert_eq!(&s, &bitvec(&(0..len).map(|i| ab[i] & !bb[i]).collect::<Vec<_>>()));
        prop_assert!(s.tail_is_clear());

        let mut f = a.clone();
        f.flip_all();
        prop_assert_eq!(&f, &bitvec(&ab.iter().map(|&x| !x).collect::<Vec<_>>()));
        prop_assert!(f.tail_is_clear());
    }
}
