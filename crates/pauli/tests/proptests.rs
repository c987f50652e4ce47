//! Property-based tests for the Pauli algebra.

use proptest::prelude::*;
use quclear_pauli::{ParsePauliError, PauliOp, PauliString, SignedPauli};

/// Strategy producing a random Pauli string on `n` qubits.
fn pauli_string(n: usize) -> impl Strategy<Value = PauliString> {
    prop::collection::vec(0u8..4, n).prop_map(|ops| {
        let ops: Vec<PauliOp> = ops
            .into_iter()
            .map(|v| match v {
                0 => PauliOp::I,
                1 => PauliOp::X,
                2 => PauliOp::Y,
                _ => PauliOp::Z,
            })
            .collect();
        PauliString::from_ops(&ops)
    })
}

/// The string on `qubits` alone: qubit `i` of the result is `p.op(qubits[i])`.
fn restrict(p: &PauliString, qubits: &[usize]) -> PauliString {
    let ops: Vec<PauliOp> = qubits.iter().map(|&q| p.op(q)).collect();
    PauliString::from_ops(&ops)
}

/// `p` placed into an `n`-qubit register, qubit `i` at `positions[i]`.
fn embed(p: &PauliString, n: usize, positions: &[usize]) -> PauliString {
    let mut out = PauliString::identity(n);
    for (i, &pos) in positions.iter().enumerate() {
        out.set_op(pos, p.op(i));
    }
    out
}

proptest! {
    /// Parsing the display form gives back the same Pauli string.
    #[test]
    fn display_parse_roundtrip(p in pauli_string(12)) {
        let parsed: PauliString = p.to_string().parse().unwrap();
        prop_assert_eq!(parsed, p);
    }

    /// The commutation relation is symmetric.
    #[test]
    fn commutation_is_symmetric(a in pauli_string(8), b in pauli_string(8)) {
        prop_assert_eq!(a.commutes_with(&b), b.commutes_with(&a));
    }

    /// Every Pauli commutes with itself and with the identity.
    #[test]
    fn commutes_with_self_and_identity(a in pauli_string(10)) {
        prop_assert!(a.commutes_with(&a));
        prop_assert!(a.commutes_with(&PauliString::identity(10)));
    }

    /// P·P = I with no phase.
    #[test]
    fn self_product_is_identity(a in pauli_string(9)) {
        let (prod, phase) = a.mul(&a);
        prop_assert!(prod.is_identity());
        prop_assert_eq!(phase, 0);
    }

    /// Multiplication is associative, including phases.
    #[test]
    fn multiplication_is_associative(
        a in pauli_string(6),
        b in pauli_string(6),
        c in pauli_string(6),
    ) {
        let (ab, k_ab) = a.mul(&b);
        let (ab_c, k_ab_c) = ab.mul(&c);
        let left_phase = (k_ab + k_ab_c) % 4;

        let (bc, k_bc) = b.mul(&c);
        let (a_bc, k_a_bc) = a.mul(&bc);
        let right_phase = (k_bc + k_a_bc) % 4;

        prop_assert_eq!(ab_c, a_bc);
        prop_assert_eq!(left_phase, right_phase);
    }

    /// Commutation matches the phase relation: A·B = ±B·A, with + iff they
    /// commute.
    #[test]
    fn commutation_matches_product_phases(a in pauli_string(7), b in pauli_string(7)) {
        let (p1, k1) = a.mul(&b);
        let (p2, k2) = b.mul(&a);
        prop_assert_eq!(p1, p2);
        if a.commutes_with(&b) {
            prop_assert_eq!(k1, k2);
        } else {
            prop_assert_eq!((k1 + 2) % 4, k2);
        }
    }

    /// Weight equals the size of the support and is bounded by qubit count.
    #[test]
    fn weight_equals_support_len(a in pauli_string(11)) {
        prop_assert_eq!(a.weight(), a.support().len());
        prop_assert!(a.weight() <= a.num_qubits());
    }

    /// The op histogram sums to the number of qubits.
    #[test]
    fn histogram_sums_to_qubits(a in pauli_string(13)) {
        let (i, x, y, z) = a.op_histogram();
        prop_assert_eq!(i + x + y + z, 13);
        prop_assert_eq!(x + y + z, a.weight());
    }

    /// Signed Pauli multiplication by the identity is a no-op.
    #[test]
    fn signed_identity_is_neutral(a in pauli_string(5), neg in any::<bool>()) {
        let sp = SignedPauli::new(a, neg);
        let id = SignedPauli::positive(PauliString::identity(5));
        prop_assert_eq!(sp.mul(&id), sp.clone());
        prop_assert_eq!(id.mul(&sp), sp);
    }

    /// Restricting to the support and re-embedding reproduces the string.
    #[test]
    fn restrict_embed_roundtrip(a in pauli_string(10)) {
        let sup = a.support();
        if !sup.is_empty() {
            let r = restrict(&a, &sup);
            prop_assert_eq!(embed(&r, 10, &sup), a);
        }
    }
}

/// The per-character parser the word-level `FromStr` replaced, kept as the
/// oracle: one `PauliOp::from_char` per character, then `from_ops`.
fn oracle_parse(s: &str) -> Result<PauliString, ParsePauliError> {
    let ops = s
        .chars()
        .map(|c| PauliOp::from_char(c).ok_or(ParsePauliError::InvalidCharacter(c)))
        .collect::<Result<Vec<PauliOp>, ParsePauliError>>()?;
    if ops.is_empty() {
        return Err(ParsePauliError::Empty);
    }
    Ok(PauliString::from_ops(&ops))
}

fn oracle_parse_signed(s: &str) -> Result<SignedPauli, ParsePauliError> {
    let (negative, rest) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s.strip_prefix('+').unwrap_or(s)),
    };
    Ok(SignedPauli::new(oracle_parse(rest)?, negative))
}

/// Lengths around the word boundaries, plus small ones.
const PARSE_LENGTHS: [usize; 12] = [0, 1, 2, 5, 63, 64, 65, 100, 127, 128, 129, 130];
const PARSE_LETTERS: [char; 8] = ['I', 'X', 'Y', 'Z', 'i', 'x', 'y', 'z'];
/// Characters the parser must reject, ASCII and not.
const PARSE_BAD: [char; 10] = ['+', '-', 'Q', 'q', ' ', '\0', 'é', '中', '😀', '\u{80}'];

/// A string of `len` letters with up to two characters swapped for rejected
/// ones, behind a `""`, `"+"`, `"-"` or `"+-"` prefix.
fn axis_text(
    prefix: u8,
    len: usize,
    letters: &[u8],
    bad: [(usize, usize); 2],
    bad_count: usize,
) -> String {
    let mut chars: Vec<char> = letters[..len]
        .iter()
        .map(|&l| PARSE_LETTERS[usize::from(l) % PARSE_LETTERS.len()])
        .collect();
    for &(at, which) in &bad[..bad_count] {
        if !chars.is_empty() {
            let at = at % chars.len();
            chars[at] = PARSE_BAD[which % PARSE_BAD.len()];
        }
    }
    let prefix = ["", "+", "-", "+-"][usize::from(prefix % 4)];
    prefix.chars().chain(chars).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The word-level parsers agree with the per-character oracle on value
    /// and on error: `Empty`, or `InvalidCharacter` of the first bad char.
    #[test]
    fn word_parser_matches_per_char_oracle(
        prefix in 0u8..4,
        len in 0usize..PARSE_LENGTHS.len(),
        letters in prop::collection::vec(any::<u8>(), 130),
        bad in ((any::<usize>(), any::<usize>()), (any::<usize>(), any::<usize>())),
        bad_count in 0usize..3,
    ) {
        let bad = [bad.0, bad.1];
        let text = axis_text(prefix, PARSE_LENGTHS[len], &letters, bad, bad_count);
        prop_assert_eq!(text.parse::<PauliString>(), oracle_parse(&text));
        prop_assert_eq!(text.parse::<SignedPauli>(), oracle_parse_signed(&text));
        if let Ok(p) = text.parse::<PauliString>() {
            // Bits past the last qubit stay clear.
            prop_assert!(p.x_bits().tail_is_clear() && p.z_bits().tail_is_clear());
        }
    }
}

#[test]
fn lone_signs_and_empty_strings_parse_like_the_oracle() {
    for text in [
        "", "+", "-", "++", "--", "+-", "-+", "-+X", "+-X", "x", "-i",
    ] {
        assert_eq!(text.parse::<PauliString>(), oracle_parse(text), "{text:?}");
        assert_eq!(
            text.parse::<SignedPauli>(),
            oracle_parse_signed(text),
            "{text:?}"
        );
    }
}
