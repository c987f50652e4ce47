//! Pauli strings with a ±1 sign.

use std::fmt;
use std::ops::Neg;
use std::str::FromStr;

use crate::{ParsePauliError, PauliString};

/// A Pauli string together with a ±1 sign, i.e. an element of the Hermitian
/// part of the Pauli group.
///
/// This is the natural result type of conjugating a Pauli string by a Clifford
/// unitary: `C† P C = ± P'`. The phase can only be ±1 (never ±i) because
/// conjugation preserves Hermiticity.
///
/// # Examples
///
/// ```
/// use quclear_pauli::SignedPauli;
///
/// let p: SignedPauli = "-XIZ".parse()?;
/// assert!(p.is_negative());
/// assert_eq!((-p.clone()).to_string(), "+XIZ");
/// # Ok::<(), quclear_pauli::ParsePauliError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SignedPauli {
    pauli: PauliString,
    negative: bool,
}

impl SignedPauli {
    /// Creates a signed Pauli with an explicit sign.
    #[must_use]
    pub fn new(pauli: PauliString, negative: bool) -> Self {
        SignedPauli { pauli, negative }
    }

    /// Creates a `+P` signed Pauli.
    #[must_use]
    pub fn positive(pauli: PauliString) -> Self {
        SignedPauli::new(pauli, false)
    }

    /// The positive identity on `n` qubits.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        SignedPauli::positive(PauliString::identity(n))
    }

    /// The underlying phase-free Pauli string.
    #[must_use]
    pub fn pauli(&self) -> &PauliString {
        &self.pauli
    }

    /// Consumes the value and returns the phase-free Pauli string.
    #[must_use]
    pub fn into_pauli(self) -> PauliString {
        self.pauli
    }

    /// Returns `true` if the sign is −1.
    #[must_use]
    pub fn is_negative(&self) -> bool {
        self.negative
    }

    /// Returns the sign as `+1.0` or `-1.0`.
    #[must_use]
    pub fn sign(&self) -> f64 {
        if self.negative {
            -1.0
        } else {
            1.0
        }
    }

    /// Number of qubits the Pauli acts on.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.pauli.num_qubits()
    }

    /// Pauli weight (number of non-identity factors).
    #[must_use]
    pub fn weight(&self) -> usize {
        self.pauli.weight()
    }

    /// Multiplies two signed Paulis.
    ///
    /// # Panics
    ///
    /// Panics if the product carries an imaginary phase (i.e. the operands
    /// anticommute at an odd number of positions), since `SignedPauli` can
    /// only represent Hermitian results, or if the qubit counts differ.
    #[must_use]
    pub fn mul(&self, other: &SignedPauli) -> SignedPauli {
        let (p, k) = self.pauli.mul(&other.pauli);
        assert!(
            k % 2 == 0,
            "product of signed Paulis has imaginary phase i^{k}; operands anticommute"
        );
        let negative = self.negative ^ other.negative ^ (k == 2);
        SignedPauli::new(p, negative)
    }

    /// Returns `true` if the two signed Paulis commute (signs are irrelevant).
    #[must_use]
    pub fn commutes_with(&self, other: &SignedPauli) -> bool {
        self.pauli.commutes_with(&other.pauli)
    }
}

impl Neg for SignedPauli {
    type Output = SignedPauli;

    fn neg(self) -> SignedPauli {
        SignedPauli {
            pauli: self.pauli,
            negative: !self.negative,
        }
    }
}

impl From<PauliString> for SignedPauli {
    fn from(pauli: PauliString) -> Self {
        SignedPauli::positive(pauli)
    }
}

impl fmt::Display for SignedPauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", if self.negative { '-' } else { '+' }, self.pauli)
    }
}

impl FromStr for SignedPauli {
    type Err = ParsePauliError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (negative, rest) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        Ok(SignedPauli::new(rest.parse()?, negative))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_with_and_without_sign() {
        let plus: SignedPauli = "XZ".parse().unwrap();
        let explicit_plus: SignedPauli = "+XZ".parse().unwrap();
        let minus: SignedPauli = "-XZ".parse().unwrap();
        assert_eq!(plus, explicit_plus);
        assert!(!plus.is_negative());
        assert!(minus.is_negative());
        assert_eq!(minus.pauli(), plus.pauli());
    }

    #[test]
    fn display_always_shows_sign() {
        let sp: SignedPauli = "XI".parse().unwrap();
        assert_eq!(sp.to_string(), "+XI");
        assert_eq!((-sp).to_string(), "-XI");
    }

    #[test]
    fn signed_multiplication() {
        let a: SignedPauli = "-ZI".parse().unwrap();
        let b: SignedPauli = "ZZ".parse().unwrap();
        let prod = a.mul(&b);
        assert_eq!(prod.to_string(), "-IZ");

        // (X⊗X)(Y⊗Y) = -(Z⊗Z): real phase, representable.
        let a: SignedPauli = "XX".parse().unwrap();
        let b: SignedPauli = "YY".parse().unwrap();
        assert_eq!(a.mul(&b).to_string(), "-ZZ");
    }

    #[test]
    #[should_panic(expected = "imaginary phase")]
    fn anticommuting_product_panics() {
        let a: SignedPauli = "X".parse().unwrap();
        let b: SignedPauli = "Y".parse().unwrap();
        let _ = a.mul(&b);
    }

    #[test]
    fn sign_value() {
        let a: SignedPauli = "-X".parse().unwrap();
        assert_eq!(a.sign(), -1.0);
        assert_eq!((-a).sign(), 1.0);
    }

    #[test]
    fn from_pauli_string_is_positive() {
        let p: PauliString = "XY".parse().unwrap();
        let sp = SignedPauli::from(p.clone());
        assert!(!sp.is_negative());
        assert_eq!(sp.into_pauli(), p);
    }
}
