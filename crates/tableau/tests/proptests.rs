//! Property-based tests for the Clifford tableau.

use proptest::prelude::*;
use quclear_circuit::{Circuit, Gate};
use quclear_pauli::{PauliFrame, PauliOp, PauliString, SignedPauli};
use quclear_tableau::{
    conjugate_all_by_gate, random_clifford_circuit, synthesize_clifford, CliffordTableau,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "support/scalar_rules.rs"]
mod scalar_rules;

use scalar_rules::conjugate_pauli_by_gate;

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

const N: usize = 5;

fn random_circuit(seed: u64, gates: usize) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    random_clifford_circuit(N, gates, &mut rng)
}

fn random_tableau(seed: u64, gates: usize) -> CliffordTableau {
    CliffordTableau::from_circuit(&random_circuit(seed, gates))
}

proptest! {
    /// Conjugation preserves Pauli weight parity of commutation: images
    /// commute exactly when the originals do.
    #[test]
    fn conjugation_preserves_commutation(
        seed in 0u64..256,
        a in pauli_string(N),
        b in pauli_string(N),
    ) {
        let t = random_tableau(seed, 30);
        let ia = t.apply(&a);
        let ib = t.apply(&b);
        prop_assert_eq!(a.commutes_with(&b), ia.pauli().commutes_with(ib.pauli()));
    }

    /// Conjugation preserves the group structure: M(A·B) = M(A)·M(B)
    /// whenever the product is Hermitian.
    #[test]
    fn conjugation_is_multiplicative(
        seed in 0u64..256,
        a in pauli_string(N),
        b in pauli_string(N),
    ) {
        prop_assume!(a.commutes_with(&b));
        let t = random_tableau(seed, 25);
        let (prod, phase) = a.mul(&b);
        prop_assert_eq!(phase % 2, 0);
        let mut lhs = t.apply(&prod);
        if phase == 2 {
            lhs = -lhs;
        }
        let rhs = t.apply(&a).mul(&t.apply(&b));
        prop_assert_eq!(lhs, rhs);
    }

    /// The Heisenberg map inverts the forward map: U†(U P U†)U = P
    /// including sign.
    #[test]
    fn inverse_roundtrip(seed in 0u64..256, p in pauli_string(N)) {
        let circuit = random_circuit(seed, 30);
        let t = CliffordTableau::from_circuit(&circuit);
        let inv = CliffordTableau::heisenberg_from_circuit(&circuit);
        let roundtrip = inv.apply_signed(&t.apply(&p));
        prop_assert_eq!(roundtrip.pauli(), &p);
        prop_assert!(!roundtrip.is_negative());
    }

    /// The identity never changes under conjugation.
    #[test]
    fn identity_is_fixed(seed in 0u64..256) {
        let t = random_tableau(seed, 40);
        let id = PauliString::identity(N);
        let image = t.apply(&id);
        prop_assert!(image.pauli().is_identity());
        prop_assert!(!image.is_negative());
    }

    /// Synthesis reproduces the tableau exactly (structure and signs).
    #[test]
    fn synthesis_roundtrip(seed in 0u64..128) {
        let t = random_tableau(seed, 35);
        let circuit = synthesize_clifford(&t);
        prop_assert_eq!(CliffordTableau::from_circuit(&circuit), t);
    }

    /// The tableau of two concatenated circuits matches applying the two
    /// circuits' tableaus in sequence.
    #[test]
    fn composition_matches_application(
        seed1 in 0u64..128,
        seed2 in 0u64..128,
        p in pauli_string(N),
    ) {
        let c1 = random_circuit(seed1, 20);
        let c2 = random_circuit(seed2.wrapping_add(1000), 20);
        let t1 = CliffordTableau::from_circuit(&c1);
        let t2 = CliffordTableau::from_circuit(&c2);
        let mut both = c1;
        both.append(&c2);
        let composed = CliffordTableau::from_circuit(&both);
        prop_assert_eq!(composed.apply(&p), t2.apply_signed(&t1.apply(&p)));
    }

    /// The bit-plane tableau is gate-for-gate equivalent to the reference
    /// `SignedPauli`-row implementation (the pre-bit-plane representation):
    /// generator images built by folding the scalar per-gate rule over the
    /// circuit match `x_image`/`z_image` exactly, signs included.
    #[test]
    fn bit_plane_generator_images_match_signed_row_reference(
        seed in 0u64..256,
        gates in 1usize..60,
    ) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(77).wrapping_add(3));
        let circuit = random_clifford_circuit(N, gates, &mut rng);
        let t = CliffordTableau::from_circuit(&circuit);
        let reference = RowTableau::from_circuit(&circuit);
        for q in 0..N {
            prop_assert_eq!(t.x_image(q), reference.x_rows[q].clone());
            prop_assert_eq!(t.z_image(q), reference.z_rows[q].clone());
        }
    }

    /// The word-parallel `apply` agrees with the reference row-by-row
    /// multiplication algorithm on arbitrary Pauli strings.
    #[test]
    fn bit_plane_apply_matches_signed_row_reference(
        seed in 0u64..256,
        gates in 1usize..60,
        p in pauli_string(N),
    ) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(131).wrapping_add(17));
        let circuit = random_clifford_circuit(N, gates, &mut rng);
        let t = CliffordTableau::from_circuit(&circuit);
        let reference = RowTableau::from_circuit(&circuit);
        prop_assert_eq!(t.apply(&p), reference.apply(&p));
    }

    /// Batched frame conjugation — the gate replay CA-Pre runs over an
    /// observable frame — stays row-for-row equal to the scalar rule across
    /// a whole random circuit: signed rows, an empty frame, and sign planes
    /// that cross word boundaries.
    #[test]
    fn frame_conjugation_matches_scalar_over_circuits(
        seed in 0u64..256,
        gates in 1usize..40,
        rows in prop::collection::vec((pauli_string(N), any::<bool>()), 0..140),
    ) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(211).wrapping_add(5));
        let circuit = random_clifford_circuit(N, gates, &mut rng);
        let signed: Vec<SignedPauli> = rows
            .into_iter()
            .map(|(p, neg)| SignedPauli::new(p, neg))
            .collect();
        let mut frame = PauliFrame::from_signed(N, &signed);
        let mut scalar = signed;
        for gate in circuit.gates() {
            conjugate_all_by_gate(&mut frame, gate);
            for row in &mut scalar {
                *row = conjugate_pauli_by_gate(row, gate);
            }
        }
        prop_assert_eq!(frame.num_rows(), scalar.len());
        for (i, row) in scalar.iter().enumerate() {
            prop_assert_eq!(&frame.get(i), row);
        }
    }
}

/// The batched frame conjugation must agree with the scalar rule on
/// every two-qubit signed Pauli for every Clifford gate.
#[test]
fn batched_conjugation_matches_scalar_rules() {
    let gates = [
        Gate::H(0),
        Gate::H(1),
        Gate::S(0),
        Gate::Sdg(1),
        Gate::X(0),
        Gate::Y(1),
        Gate::Z(0),
        Gate::SqrtX(1),
        Gate::SqrtXdg(0),
        Gate::Cx {
            control: 0,
            target: 1,
        },
        Gate::Cx {
            control: 1,
            target: 0,
        },
        Gate::Cz { a: 0, b: 1 },
        Gate::Swap { a: 0, b: 1 },
    ];
    // All 32 signed two-qubit Paulis.
    let mut rows: Vec<SignedPauli> = Vec::new();
    for a in "IXYZ".chars() {
        for b in "IXYZ".chars() {
            for sign in ["+", "-"] {
                rows.push(format!("{sign}{a}{b}").parse().unwrap());
            }
        }
    }
    for gate in gates {
        let mut frame = PauliFrame::from_signed(2, &rows);
        conjugate_all_by_gate(&mut frame, &gate);
        for (i, row) in rows.iter().enumerate() {
            let scalar = conjugate_pauli_by_gate(row, &gate);
            assert_eq!(frame.get(i), scalar, "gate {gate} on {row}");
        }
    }
}

/// The pre-bit-plane tableau representation, kept verbatim as a test oracle:
/// one `SignedPauli` row per generator image, updated by the scalar per-gate
/// conjugation rule, applied by row-by-row Pauli multiplication.
struct RowTableau {
    n: usize,
    x_rows: Vec<SignedPauli>,
    z_rows: Vec<SignedPauli>,
}

impl RowTableau {
    fn from_circuit(circuit: &quclear_circuit::Circuit) -> Self {
        let n = circuit.num_qubits();
        let mut x_rows: Vec<SignedPauli> = (0..n)
            .map(|q| SignedPauli::positive(PauliString::single(n, q, PauliOp::X)))
            .collect();
        let mut z_rows: Vec<SignedPauli> = (0..n)
            .map(|q| SignedPauli::positive(PauliString::single(n, q, PauliOp::Z)))
            .collect();
        for gate in circuit.gates() {
            for row in x_rows.iter_mut().chain(z_rows.iter_mut()) {
                *row = conjugate_pauli_by_gate(row, gate);
            }
        }
        RowTableau { n, x_rows, z_rows }
    }

    fn apply(&self, pauli: &PauliString) -> SignedPauli {
        let mut acc = PauliString::identity(self.n);
        let mut phase: u8 = 0;
        let mut y_count: usize = 0;
        for q in 0..self.n {
            let (x, z) = pauli.op(q).xz();
            if x && z {
                y_count += 1;
            }
            if x {
                let row = &self.x_rows[q];
                let (next, k) = acc.mul(row.pauli());
                phase = (phase + k + if row.is_negative() { 2 } else { 0 }) % 4;
                acc = next;
            }
            if z {
                let row = &self.z_rows[q];
                let (next, k) = acc.mul(row.pauli());
                phase = (phase + k + if row.is_negative() { 2 } else { 0 }) % 4;
                acc = next;
            }
        }
        let total = (phase + (y_count % 4) as u8) % 4;
        assert_eq!(total % 2, 0, "reference produced imaginary phase");
        SignedPauli::new(acc, total == 2)
    }
}
