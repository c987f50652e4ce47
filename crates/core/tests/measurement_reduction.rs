//! Property tests for the measurement-reduction pipeline: on random
//! commuting-closed observable sets (random Z-diagonal strings conjugated by
//! a random Clifford), the synthesized group diagonalizer must map every
//! member to a signed Z-diagonal Pauli. The tracked frame sign is
//! cross-checked against [`CliffordTableau`] conjugation, the shot-level
//! parity readout against a scalar oracle bit-for-bit, and the conjugation
//! identity `⟨ψ|P|ψ⟩ = ⟨Dψ|DPD†|Dψ⟩` against exact [`StateVector`]
//! expectations to 1e-9. The diagonalizer's shape is pinned too: a monomial
//! CX/S/CZ prefix, then one `H` per qubit of `A` with `|A|` the GF(2) rank
//! of the members' X-part, and the prefix's gather followed by those `H`
//! passes reproduces the gate-by-gate amplitudes exactly.

use proptest::prelude::*;
use quclear_circuit::{Circuit, Gate};
use quclear_core::{
    diagonalize_commuting_frame, Gf2Matrix, GroupDiagonalizer, MeasurementPlan, ShotBatch,
};
use quclear_pauli::{BitVec, PauliFrame, PauliOp, PauliString, SignedPauli};
use quclear_sim::StateVector;
use quclear_tableau::{random_clifford_circuit, CliffordTableau};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Member `i` after conjugation by the diagonalizer, as the signed
/// Z-diagonal Pauli its parity mask and composed sign describe.
fn diagonal_pauli(diag: &GroupDiagonalizer, i: usize) -> SignedPauli {
    let n = diag.num_qubits();
    let mut pauli = PauliString::identity(n);
    for q in (0..n).filter(|&q| diag.z_support(i).get(q)) {
        pauli.set_op(q, PauliOp::Z);
    }
    SignedPauli::new(pauli, diag.sign(i) < 0.0)
}

/// The composed affine readout `shot ↦ A·shot ⊕ b` applied to every shot at
/// once with the CA-Post bit-plane kernel: plane `i`, bit `s` is member
/// `i`'s outcome bit on shot `s` (0 ↦ eigenvalue `+1`). Members can
/// outnumber qubits, so the parity rows are packed into square n×n blocks.
fn outcome_planes(diag: &GroupDiagonalizer, shots: &ShotBatch) -> Vec<BitVec> {
    let n = diag.num_qubits();
    let mut planes: Vec<BitVec> = Vec::with_capacity(diag.len());
    for chunk in diag.z_supports().chunks(n.max(1)) {
        let mut rows: Vec<Vec<bool>> = chunk
            .iter()
            .map(|row| (0..n).map(|q| row.get(q)).collect())
            .collect();
        rows.resize(n, vec![false; n]);
        let produced = Gf2Matrix::from_rows(rows).mul_planes(shots.planes());
        planes.extend(produced.into_iter().take(chunk.len()));
    }
    for (i, plane) in planes.iter_mut().enumerate() {
        if diag.sign(i) < 0.0 {
            plane.flip_all();
        }
    }
    planes
}

/// Builds a mutually commuting signed-Pauli set on `n` qubits: Z-diagonal
/// strings from the given masks/signs, conjugated through a seeded random
/// Clifford. Conjugation preserves commutation, so the set stays
/// commuting-closed while gaining X/Y support.
fn commuting_set(n: usize, masks: &[u64], signs: u64, clifford_seed: u64) -> Vec<SignedPauli> {
    let mut rng = StdRng::seed_from_u64(clifford_seed);
    let clifford = random_clifford_circuit(n, 3 * n, &mut rng);
    let tableau = CliffordTableau::from_circuit(&clifford);
    masks
        .iter()
        .enumerate()
        .map(|(i, &mask)| {
            let mut pauli = PauliString::identity(n);
            for q in 0..n {
                if (mask >> q) & 1 == 1 {
                    pauli.set_op(q, PauliOp::Z);
                }
            }
            tableau.apply_signed(&SignedPauli::new(pauli, (signs >> i) & 1 == 1))
        })
        .collect()
}

fn is_z_diagonal(p: &SignedPauli) -> bool {
    (0..p.num_qubits()).all(|q| matches!(p.pauli().op(q), PauliOp::I | PauliOp::Z))
}

/// A non-stabilizer test state: seeded Clifford layer, a ladder of Rz
/// rotations, then a second Clifford layer.
fn prep_circuit(n: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut circuit = random_clifford_circuit(n, 2 * n, &mut rng);
    for q in 0..n {
        circuit.rz(q, 0.3 + 0.41 * q as f64 + (seed % 7) as f64 * 0.13);
    }
    circuit.extend(
        random_clifford_circuit(n, 2 * n, &mut rng)
            .gates()
            .iter()
            .copied(),
    );
    circuit
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every member of a commuting set diagonalizes to a signed Z-diagonal
    /// Pauli, and the frame-tracked sign agrees with conjugating the member
    /// through the synthesized circuit via the independent tableau path.
    #[test]
    fn diagonalizer_rows_are_signed_z_and_match_tableau(
        n in 2usize..=5,
        masks in prop::collection::vec(1u64..64, 1..=6),
        signs in any::<u64>(),
        clifford_seed in any::<u64>(),
    ) {
        let masks: Vec<u64> = masks.iter().map(|m| m % (1 << n)).collect();
        let members = commuting_set(n, &masks, signs, clifford_seed);
        let frame = PauliFrame::from_signed(n, &members);
        let diag = diagonalize_commuting_frame(&frame);
        let tableau = CliffordTableau::from_circuit(diag.circuit());
        for (i, member) in members.iter().enumerate() {
            let row = diagonal_pauli(&diag, i);
            prop_assert!(is_z_diagonal(&row), "row {i} not Z-diagonal: {row}");
            prop_assert!(row == tableau.apply_signed(member), "row {i}");
        }
    }

    /// The conjugation identity on exact statevectors: for every member,
    /// `⟨ψ|P_i|ψ⟩` equals the expectation of the diagonalized row on the
    /// rotated state `D|ψ⟩`, to 1e-9 — and equally for the full
    /// [`MeasurementPlan`] over the greedy groups.
    #[test]
    fn statevector_expectations_survive_diagonalization(
        n in 2usize..=5,
        masks in prop::collection::vec(1u64..64, 1..=6),
        signs in any::<u64>(),
        clifford_seed in any::<u64>(),
        prep_seed in any::<u64>(),
    ) {
        let masks: Vec<u64> = masks.iter().map(|m| m % (1 << n)).collect();
        let members = commuting_set(n, &masks, signs, clifford_seed);
        let frame = PauliFrame::from_signed(n, &members);
        let psi = StateVector::from_circuit(&prep_circuit(n, prep_seed));

        let diag = diagonalize_commuting_frame(&frame);
        let mut rotated = psi.clone();
        rotated.apply_circuit(diag.circuit());
        for (i, member) in members.iter().enumerate() {
            let direct = psi.expectation_signed(member);
            let via_diagonal = rotated.expectation_signed(&diagonal_pauli(&diag, i));
            prop_assert!(
                (direct - via_diagonal).abs() < 1e-9,
                "member {}: {} vs {}", i, direct, via_diagonal
            );
        }

        let plan = MeasurementPlan::from_frame(&frame);
        for group in plan.groups() {
            let mut grouped = psi.clone();
            grouped.apply_circuit(group.diagonalizer().circuit());
            for (slot, &member) in group.members().iter().enumerate() {
                let direct = psi.expectation_signed(&members[member]);
                let via_plan =
                    grouped.expectation_signed(&diagonal_pauli(group.diagonalizer(), slot));
                prop_assert!(
                    (direct - via_plan).abs() < 1e-9,
                    "planned member {}: {} vs {}", member, direct, via_plan
                );
            }
        }
    }

    /// Shot-level scalar oracle: on an arbitrary packed batch (including
    /// non-×64 shot counts), the plane-kernel expectations equal the naive
    /// per-shot sign·(-1)^popcount loop bit-for-bit, and the composed affine
    /// outcome planes carry exactly the same bits.
    #[test]
    fn plane_readout_matches_scalar_oracle(
        n in 2usize..=5,
        masks in prop::collection::vec(1u64..64, 1..=6),
        signs in any::<u64>(),
        clifford_seed in any::<u64>(),
        raw_shots in prop::collection::vec(any::<u64>(), 1..=150),
    ) {
        let masks: Vec<u64> = masks.iter().map(|m| m % (1 << n)).collect();
        let members = commuting_set(n, &masks, signs, clifford_seed);
        let diag = diagonalize_commuting_frame(&PauliFrame::from_signed(n, &members));
        let indices: Vec<u64> = raw_shots.iter().map(|s| s % (1 << n)).collect();
        let batch = ShotBatch::from_indices(n, &indices);

        let fast = diag.expectations(&batch);
        let planes = outcome_planes(&diag, &batch);
        for i in 0..diag.len() {
            let mask: u64 = (0..n)
                .filter(|&q| diag.z_support(i).get(q))
                .map(|q| 1u64 << q)
                .sum();
            let parity_sum: i64 = indices
                .iter()
                .map(|&shot| if (shot & mask).count_ones().is_multiple_of(2) { 1 } else { -1 })
                .sum();
            let oracle = diag.sign(i) * parity_sum as f64 / indices.len() as f64;
            prop_assert!(fast[i].to_bits() == oracle.to_bits(), "member {i}");
            for (s, &shot) in indices.iter().enumerate() {
                let bit = ((shot & mask).count_ones() % 2 == 1) ^ (diag.sign(i) < 0.0);
                prop_assert!(planes[i].get(s) == bit, "member {i} shot {s}");
            }
        }
    }
}

/// GF(2) rank of the members' X-parts.
fn x_rank(members: &[SignedPauli]) -> usize {
    let mut basis: Vec<u64> = Vec::new();
    for member in members {
        let mut x: u64 = (0..member.num_qubits())
            .filter(|&q| member.pauli().op(q).xz().0)
            .map(|q| 1u64 << q)
            .sum();
        for &b in &basis {
            x = x.min(x ^ b);
        }
        if x != 0 {
            basis.push(x);
            basis.sort_unstable_by(|a, b| b.cmp(a));
        }
    }
    basis.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `D` is a monomial CX/S/CZ prefix followed by `H` on `A`, one pass per
    /// pivot, with `|A|` the GF(2) rank of the X-part; gathering the prefix
    /// and then running the `H` passes gives amplitudes `==` (re and im) to
    /// running `D` gate by gate.
    #[test]
    fn diagonalizer_is_a_monomial_prefix_then_hadamards_and_gathers_exactly(
        n in 1usize..=10,
        masks in prop::collection::vec(0u64..1024, 1..=12),
        signs in any::<u64>(),
        clifford_seed in any::<u64>(),
        prep_seed in any::<u64>(),
    ) {
        let masks: Vec<u64> = masks.iter().map(|m| m % (1 << n)).collect();
        let members = commuting_set(n, &masks, signs, clifford_seed);
        let diag = diagonalize_commuting_frame(&PauliFrame::from_signed(n, &members));
        let gates = diag.circuit().gates();
        let hadamards = diag.hadamard_qubits();
        let prefix = diag.monomial_prefix();
        prop_assert!(prefix.len() + hadamards.len() == gates.len());
        prop_assert!(prefix == &gates[..prefix.len()]);
        prop_assert!(prefix
            .iter()
            .all(|g| matches!(g, Gate::Cx { .. } | Gate::S(_) | Gate::Cz { .. })));
        for (gate, &q) in gates[prefix.len()..].iter().zip(hadamards) {
            prop_assert!(*gate == Gate::H(q), "{gate} in the Hadamard layer");
        }
        let mut distinct = hadamards.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert!(distinct.len() == hadamards.len());
        prop_assert!(hadamards.len() == x_rank(&members));
        prop_assert!(diag.dense_passes() == 1 + hadamards.len());

        let psi = StateVector::from_circuit(&prep_circuit(n, prep_seed));
        let mut expected = psi.clone();
        expected.apply_circuit(diag.circuit());
        let mut gathered = StateVector::zero_state(n);
        gathered.gather(&psi, diag.monomial());
        for &q in hadamards {
            gathered.apply_gate(&Gate::H(q));
        }
        for (i, (a, b)) in gathered.amplitudes().iter().zip(expected.amplitudes()).enumerate() {
            prop_assert!(a.re == b.re && a.im == b.im, "amplitude {i}: {a:?} vs {b:?}");
        }
    }
}

/// Deterministic spot-check: a seeded sampled batch on a diagonalized state
/// reproduces exact statevector expectations within a 6-sigma sampling bound.
#[test]
fn sampled_estimates_converge_to_statevector() {
    let n = 4;
    let members = commuting_set(n, &[0b0011, 0b0110, 0b1100, 0b0101], 0b0100, 11);
    let frame = PauliFrame::from_signed(n, &members);
    let plan = MeasurementPlan::from_frame(&frame);
    assert!(plan.shot_budget_divisor() > 1.0);

    let psi = StateVector::from_circuit(&prep_circuit(n, 3));
    let shots = 40_000;
    let batches: Vec<ShotBatch> = plan
        .groups()
        .iter()
        .enumerate()
        .map(|(g, group)| {
            let mut rotated = psi.clone();
            rotated.apply_circuit(group.diagonalizer().circuit());
            let mut rng = StdRng::seed_from_u64(1000 + g as u64);
            ShotBatch::from_indices(n, &rotated.sample_indices(shots, &mut rng))
        })
        .collect();
    let estimates = plan.estimate(&batches);
    let bound = 6.0 / (shots as f64).sqrt();
    for (i, member) in members.iter().enumerate() {
        let exact = psi.expectation_signed(member);
        assert!(
            (estimates[i] - exact).abs() < bound,
            "member {i}: sampled {} vs exact {exact} (bound {bound})",
            estimates[i]
        );
    }
}
