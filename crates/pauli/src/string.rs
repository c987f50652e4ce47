//! Multi-qubit Pauli strings in symplectic (bit-packed) representation.

use std::fmt;
use std::str::FromStr;

use crate::bits::BitVec;
use crate::op::PauliOp;
use crate::ParsePauliError;

/// A phase-free Pauli string over `n` qubits.
///
/// Qubit `0` is the **leftmost** character in the textual representation, so
/// `"XIZ"` means `X` on qubit 0, `I` on qubit 1 and `Z` on qubit 2. This
/// matches the ordering used in the QuCLEAR paper (`P1: YZXXYZZ` puts `Y` on
/// qubit 0).
///
/// The string is stored as two bit vectors (the X block and the Z block of
/// the symplectic representation), so products, commutation checks and
/// Clifford conjugation are word-parallel.
///
/// # Examples
///
/// ```
/// use quclear_pauli::{PauliOp, PauliString};
///
/// let p: PauliString = "XIZY".parse()?;
/// assert_eq!(p.num_qubits(), 4);
/// assert_eq!(p.op(0), PauliOp::X);
/// assert_eq!(p.op(3), PauliOp::Y);
/// assert_eq!(p.weight(), 3);
/// # Ok::<(), quclear_pauli::ParsePauliError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PauliString {
    n: usize,
    x: BitVec,
    z: BitVec,
}

impl PauliString {
    /// Creates the identity Pauli string on `n` qubits.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        PauliString {
            n,
            x: BitVec::zeros(n),
            z: BitVec::zeros(n),
        }
    }

    /// Builds a Pauli string from a slice of single-qubit operators.
    ///
    /// # Examples
    ///
    /// ```
    /// use quclear_pauli::{PauliOp, PauliString};
    /// let p = PauliString::from_ops(&[PauliOp::Z, PauliOp::I, PauliOp::Z]);
    /// assert_eq!(p.to_string(), "ZIZ");
    /// ```
    #[must_use]
    pub fn from_ops(ops: &[PauliOp]) -> Self {
        let mut p = PauliString::identity(ops.len());
        for (q, &op) in ops.iter().enumerate() {
            p.set_op(q, op);
        }
        p
    }

    /// Builds a Pauli string with a single non-identity operator.
    ///
    /// # Panics
    ///
    /// Panics if `qubit >= n`.
    #[must_use]
    pub fn single(n: usize, qubit: usize, op: PauliOp) -> Self {
        let mut p = PauliString::identity(n);
        p.set_op(qubit, op);
        p
    }

    /// Builds a Pauli string directly from its X and Z bit blocks.
    ///
    /// # Panics
    ///
    /// Panics if the two blocks have different lengths.
    #[must_use]
    pub fn from_xz(x: BitVec, z: BitVec) -> Self {
        assert_eq!(x.len(), z.len(), "X and Z blocks must have equal length");
        PauliString { n: x.len(), x, z }
    }

    /// Number of qubits the string is defined on.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The X block of the symplectic representation.
    #[must_use]
    pub fn x_bits(&self) -> &BitVec {
        &self.x
    }

    /// The Z block of the symplectic representation.
    #[must_use]
    pub fn z_bits(&self) -> &BitVec {
        &self.z
    }

    /// Mutable words of the X and Z blocks, for in-crate word-level writers.
    /// Callers must keep bits at positions `>= num_qubits()` zero.
    pub(crate) fn xz_words_mut(&mut self) -> (&mut [u64], &mut [u64]) {
        (self.x.words_mut(), self.z.words_mut())
    }

    /// Returns the operator acting on `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit >= self.num_qubits()`.
    #[must_use]
    pub fn op(&self, qubit: usize) -> PauliOp {
        PauliOp::from_xz(self.x.get(qubit), self.z.get(qubit))
    }

    /// Sets the operator acting on `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit >= self.num_qubits()`.
    pub fn set_op(&mut self, qubit: usize, op: PauliOp) {
        let (x, z) = op.xz();
        self.x.set(qubit, x);
        self.z.set(qubit, z);
    }

    /// Iterator over `(qubit, operator)` pairs for every qubit.
    pub fn ops(&self) -> impl Iterator<Item = (usize, PauliOp)> + '_ {
        (0..self.n).map(move |q| (q, self.op(q)))
    }

    /// Number of non-identity operators (the Pauli weight).
    #[must_use]
    pub fn weight(&self) -> usize {
        // The word sum counts padding bits too; writers keep them zero.
        debug_assert!(self.x.tail_is_clear() && self.z.tail_is_clear());
        self.x
            .words()
            .iter()
            .zip(self.z.words())
            .map(|(x, z)| (x | z).count_ones() as usize)
            .sum()
    }

    /// Returns the indices of qubits with a non-identity operator, ascending.
    #[must_use]
    pub fn support(&self) -> Vec<usize> {
        (0..self.n).filter(|&q| !self.op(q).is_identity()).collect()
    }

    /// Returns `true` if every operator is the identity.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.x.is_zero() && self.z.is_zero()
    }

    /// Returns `true` if every non-identity operator equals `op`
    /// (identity-only strings return `true` for any `op`).
    #[must_use]
    pub fn is_uniform(&self, op: PauliOp) -> bool {
        self.ops().all(|(_, o)| o.is_identity() || o == op)
    }

    /// Returns `true` if the two Pauli strings commute.
    ///
    /// Uses the symplectic criterion: `P` and `Q` commute iff
    /// `|{q : P_q and Q_q anticommute}|` is even.
    ///
    /// # Panics
    ///
    /// Panics if the strings act on a different number of qubits.
    #[must_use]
    pub fn commutes_with(&self, other: &PauliString) -> bool {
        assert_eq!(self.n, other.n, "qubit count mismatch in commutes_with");
        // Anticommuting positions are those where x1·z2 + z1·x2 is odd.
        let p1 = self.x.and_parity(&other.z);
        let p2 = self.z.and_parity(&other.x);
        p1 == p2
    }

    /// Multiplies two Pauli strings.
    ///
    /// Returns `(R, k)` such that `self · other = i^k · R` with `k` taken
    /// modulo 4.
    ///
    /// # Panics
    ///
    /// Panics if the strings act on a different number of qubits.
    #[must_use]
    pub fn mul(&self, other: &PauliString) -> (PauliString, u8) {
        assert_eq!(self.n, other.n, "qubit count mismatch in mul");
        // Word-parallel phase accumulation: the per-position Aaronson–
        // Gottesman `g` is +1 on cyclic pairs (X·Y, Y·Z, Z·X) and −1 on
        // anticyclic ones, so two popcounts per word give the exponent.
        let mut cyclic: i64 = 0;
        let mut anticyclic: i64 = 0;
        for (i, (ax, az)) in self.x.words().iter().zip(self.z.words()).enumerate() {
            let bx = other.x.words()[i];
            let bz = other.z.words()[i];
            let pos = (ax & !az & bx & bz) | (ax & az & !bx & bz) | (!ax & az & bx & !bz);
            let neg = (ax & !az & !bx & bz) | (ax & az & bx & !bz) | (!ax & az & bx & bz);
            cyclic += i64::from(pos.count_ones());
            anticyclic += i64::from(neg.count_ones());
        }
        let phase = (cyclic - anticyclic).rem_euclid(4) as u8;
        let mut x = self.x.clone();
        x.xor_with(&other.x);
        let mut z = self.z.clone();
        z.xor_with(&other.z);
        (PauliString { n: self.n, x, z }, phase)
    }

    /// Restricts the string to the given qubits, producing a smaller string
    /// whose qubit `i` is `self.op(qubits[i])`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    #[must_use]
    pub fn restrict(&self, qubits: &[usize]) -> PauliString {
        let ops: Vec<PauliOp> = qubits.iter().map(|&q| self.op(q)).collect();
        PauliString::from_ops(&ops)
    }

    /// Embeds the string into a larger register of `n` qubits, placing qubit
    /// `i` of `self` at position `positions[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `positions.len() != self.num_qubits()` or any position is out
    /// of range.
    #[must_use]
    pub fn embed(&self, n: usize, positions: &[usize]) -> PauliString {
        assert_eq!(positions.len(), self.n, "positions must match qubit count");
        let mut p = PauliString::identity(n);
        for (i, &pos) in positions.iter().enumerate() {
            p.set_op(pos, self.op(i));
        }
        p
    }

    /// Counts how many qubits carry each operator, returned as
    /// `(num_i, num_x, num_y, num_z)`.
    #[must_use]
    pub fn op_histogram(&self) -> (usize, usize, usize, usize) {
        let mut hist = (0usize, 0usize, 0usize, 0usize);
        for (_, op) in self.ops() {
            match op {
                PauliOp::I => hist.0 += 1,
                PauliOp::X => hist.1 += 1,
                PauliOp::Y => hist.2 += 1,
                PauliOp::Z => hist.3 += 1,
            }
        }
        hist
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for q in 0..self.n {
            write!(f, "{}", self.op(q).to_char())?;
        }
        Ok(())
    }
}

impl fmt::Debug for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PauliString(\"{self}\")")
    }
}

impl FromStr for PauliString {
    type Err = ParsePauliError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut ops = Vec::with_capacity(s.len());
        for c in s.chars() {
            let op = PauliOp::from_char(c).ok_or(ParsePauliError::InvalidCharacter(c))?;
            ops.push(op);
        }
        if ops.is_empty() {
            return Err(ParsePauliError::Empty);
        }
        Ok(PauliString::from_ops(&ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in ["XIZY", "IIII", "ZZZZZZZ", "Y"] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage_and_empty() {
        assert!(matches!(
            "XQZ".parse::<PauliString>(),
            Err(ParsePauliError::InvalidCharacter('Q'))
        ));
        assert!(matches!(
            "".parse::<PauliString>(),
            Err(ParsePauliError::Empty)
        ));
    }

    #[test]
    fn weight_and_support() {
        let s = p("XIZYI");
        assert_eq!(s.weight(), 3);
        assert_eq!(s.support(), vec![0, 2, 3]);
        assert!(p("IIII").is_identity());
        assert_eq!(p("IIII").weight(), 0);
        assert_eq!(p("YYYY").weight(), 4);
    }

    #[test]
    fn uniformity() {
        assert!(p("ZIZZ").is_uniform(PauliOp::Z));
        assert!(!p("ZIXZ").is_uniform(PauliOp::Z));
        assert!(p("IIII").is_uniform(PauliOp::X));
    }

    #[test]
    fn commutation_examples() {
        // ZZ and XX commute (two anticommuting positions).
        assert!(p("ZZ").commutes_with(&p("XX")));
        // ZI and XI anticommute.
        assert!(!p("ZI").commutes_with(&p("XI")));
        // Identity commutes with everything.
        assert!(p("II").commutes_with(&p("XY")));
        // The paper's example: ZZZZ and YYXX commute.
        assert!(p("ZZZZ").commutes_with(&p("YYXX")));
        // ...but ZZZZ and XXZZ also commute, while ZIII and XIII do not.
        assert!(!p("ZIII").commutes_with(&p("XIII")));
    }

    #[test]
    fn multiplication_matches_single_qubit_rules() {
        // (X ⊗ Z) · (Y ⊗ I) = (XY) ⊗ Z = iZ ⊗ Z
        let (r, k) = p("XZ").mul(&p("YI"));
        assert_eq!(r, p("ZZ"));
        assert_eq!(k, 1);
        // Self-product is the identity with no phase.
        let (r, k) = p("XYZ").mul(&p("XYZ"));
        assert!(r.is_identity());
        assert_eq!(k, 0);
    }

    #[test]
    fn multiplication_phase_accumulates() {
        // (X⊗X)·(Y⊗Y) = (iZ)⊗(iZ) = -(Z⊗Z)
        let (r, k) = p("XX").mul(&p("YY"));
        assert_eq!(r, p("ZZ"));
        assert_eq!(k, 2);
    }

    #[test]
    fn restrict_and_embed_are_inverse_on_support() {
        let s = p("XIZYI");
        let sup = s.support();
        let restricted = s.restrict(&sup);
        assert_eq!(restricted.to_string(), "XZY");
        let embedded = restricted.embed(5, &sup);
        assert_eq!(embedded, s);
    }

    #[test]
    fn op_histogram_counts() {
        assert_eq!(p("XXYZI").op_histogram(), (1, 2, 1, 1));
    }

    #[test]
    fn single_constructor() {
        let s = PauliString::single(4, 2, PauliOp::Y);
        assert_eq!(s.to_string(), "IIYI");
    }

    #[test]
    #[should_panic(expected = "qubit count mismatch")]
    fn mul_mismatched_sizes_panics() {
        let _ = p("XX").mul(&p("XXX"));
    }
}
