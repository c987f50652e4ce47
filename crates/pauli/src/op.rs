//! Single-qubit Pauli operators.

use std::fmt;

/// A single-qubit Pauli operator.
///
/// The symplectic encoding used throughout the workspace is
/// `(x, z)` with `I = (0,0)`, `X = (1,0)`, `Y = (1,1)`, `Z = (0,1)`,
/// i.e. `Y` stands for the literal Hermitian Pauli `Y = i·X·Z`.
///
/// # Examples
///
/// ```
/// use quclear_pauli::PauliOp;
///
/// assert_eq!(PauliOp::from_xz(true, true), PauliOp::Y);
/// assert_eq!(PauliOp::Y.xz(), (true, true));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum PauliOp {
    /// The identity operator.
    #[default]
    I,
    /// The Pauli X operator.
    X,
    /// The Pauli Y operator.
    Y,
    /// The Pauli Z operator.
    Z,
}

impl PauliOp {
    /// All four operators, in `I, X, Y, Z` order.
    pub const ALL: [PauliOp; 4] = [PauliOp::I, PauliOp::X, PauliOp::Y, PauliOp::Z];

    /// Builds an operator from its symplectic `(x, z)` bits.
    #[must_use]
    pub fn from_xz(x: bool, z: bool) -> Self {
        match (x, z) {
            (false, false) => PauliOp::I,
            (true, false) => PauliOp::X,
            (true, true) => PauliOp::Y,
            (false, true) => PauliOp::Z,
        }
    }

    /// Returns the symplectic `(x, z)` bits of the operator.
    #[must_use]
    pub const fn xz(self) -> (bool, bool) {
        match self {
            PauliOp::I => (false, false),
            PauliOp::X => (true, false),
            PauliOp::Y => (true, true),
            PauliOp::Z => (false, true),
        }
    }

    /// Returns `true` for the identity operator.
    #[must_use]
    pub fn is_identity(self) -> bool {
        self == PauliOp::I
    }

    /// Parses an operator from its single-character name.
    ///
    /// Accepts upper- or lower-case `I`, `X`, `Y`, `Z`. Returns `None` for any
    /// other character.
    #[must_use]
    pub const fn from_char(c: char) -> Option<Self> {
        match c.to_ascii_uppercase() {
            'I' => Some(PauliOp::I),
            'X' => Some(PauliOp::X),
            'Y' => Some(PauliOp::Y),
            'Z' => Some(PauliOp::Z),
            _ => None,
        }
    }

    /// Returns the single-character name of the operator.
    #[must_use]
    pub fn to_char(self) -> char {
        match self {
            PauliOp::I => 'I',
            PauliOp::X => 'X',
            PauliOp::Y => 'Y',
            PauliOp::Z => 'Z',
        }
    }
}

impl fmt::Display for PauliOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PauliString;

    #[test]
    fn xz_roundtrip() {
        for op in PauliOp::ALL {
            let (x, z) = op.xz();
            assert_eq!(PauliOp::from_xz(x, z), op);
        }
    }

    #[test]
    fn char_roundtrip() {
        for op in PauliOp::ALL {
            assert_eq!(PauliOp::from_char(op.to_char()), Some(op));
        }
        assert_eq!(PauliOp::from_char('x'), Some(PauliOp::X));
        assert_eq!(PauliOp::from_char('Q'), None);
    }

    /// `a · b` as one-qubit strings: the product and its i-exponent.
    fn mul(a: PauliOp, b: PauliOp) -> (PauliOp, u8) {
        let (product, k) = PauliString::from_ops(&[a]).mul(&PauliString::from_ops(&[b]));
        (product.op(0), k)
    }

    fn commutes(a: PauliOp, b: PauliOp) -> bool {
        PauliString::from_ops(&[a]).commutes_with(&PauliString::from_ops(&[b]))
    }

    #[test]
    fn commutation_table() {
        use PauliOp::*;
        assert!(commutes(X, X));
        assert!(commutes(I, Z));
        assert!(!commutes(X, Y));
        assert!(!commutes(Y, Z));
        assert!(!commutes(Z, X));
    }

    /// Check the full single-qubit multiplication table against the
    /// textbook relations.
    #[test]
    fn multiplication_table() {
        use PauliOp::*;
        // (a, b, result, i-exponent)
        let table = [
            (I, I, I, 0),
            (I, X, X, 0),
            (X, I, X, 0),
            (X, X, I, 0),
            (Y, Y, I, 0),
            (Z, Z, I, 0),
            (X, Y, Z, 1),
            (Y, X, Z, 3),
            (Y, Z, X, 1),
            (Z, Y, X, 3),
            (Z, X, Y, 1),
            (X, Z, Y, 3),
            (I, Y, Y, 0),
            (Y, I, Y, 0),
            (I, Z, Z, 0),
            (Z, I, Z, 0),
        ];
        for (a, b, want, phase) in table {
            assert_eq!(mul(a, b), (want, phase), "{a} * {b}");
        }
    }

    /// Anti-commutation: for distinct non-identity Paulis, P·Q = -Q·P.
    #[test]
    fn anticommutation_phases_are_opposite() {
        use PauliOp::*;
        for a in [X, Y, Z] {
            for b in [X, Y, Z] {
                if a == b {
                    continue;
                }
                let (r1, p1) = mul(a, b);
                let (r2, p2) = mul(b, a);
                assert_eq!(r1, r2);
                assert_eq!((p1 + 2) % 4, p2, "{a}{b} should anticommute");
            }
        }
    }

    #[test]
    fn default_is_identity() {
        assert_eq!(PauliOp::default(), PauliOp::I);
        assert!(PauliOp::I.is_identity());
        assert!(!PauliOp::X.is_identity());
    }
}
