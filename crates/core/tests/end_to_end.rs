//! End-to-end correctness of Clifford Extraction and Absorption, validated
//! against the dense state-vector simulator.

use proptest::prelude::*;
use quclear_circuit::Circuit;
use quclear_core::{
    basis_change_circuit, compile, expectation_from_probabilities, extract_clifford,
    ExtractionConfig, QuClearConfig,
};
use quclear_pauli::{PauliOp, PauliRotation, PauliString, SignedPauli};
use quclear_sim::StateVector;

/// Textbook (V-shaped) synthesis of a Pauli-rotation program, used as the
/// reference unitary.
fn naive_reference(rotations: &[PauliRotation], n: usize) -> Circuit {
    let mut qc = Circuit::new(n);
    for r in rotations {
        if r.is_trivial() {
            continue;
        }
        let basis = basis_change_circuit(n, r.pauli());
        let support = r.pauli().support();
        let mut ladder = Circuit::new(n);
        for pair in support.windows(2) {
            ladder.cx(pair[0], pair[1]);
        }
        qc.append(&basis);
        qc.append(&ladder);
        qc.rz(*support.last().unwrap(), r.angle());
        qc.append(&ladder.inverse());
        qc.append(&basis.inverse());
    }
    qc
}

fn rotation_strategy(n: usize, len: usize) -> impl Strategy<Value = Vec<PauliRotation>> {
    let single = (prop::collection::vec(0u8..4, n), -3.0f64..3.0).prop_map(move |(ops, angle)| {
        let ops: Vec<PauliOp> = ops
            .into_iter()
            .map(|v| match v {
                0 => PauliOp::I,
                1 => PauliOp::X,
                2 => PauliOp::Y,
                _ => PauliOp::Z,
            })
            .collect();
        PauliRotation::new(PauliString::from_ops(&ops), angle)
    });
    prop::collection::vec(single, 1..=len)
}

#[test]
fn paper_figure_2_example_full_equivalence() {
    // e^{iZZZZ t1} e^{iYYXX t2} with observable XXZZ: after extraction and
    // absorption, measuring the new observable on the optimized circuit gives
    // the same expectation value.
    let n = 4;
    let program = vec![
        PauliRotation::parse("ZZZZ", 0.37).unwrap(),
        PauliRotation::parse("YYXX", -0.91).unwrap(),
    ];
    let result = compile(&program, &QuClearConfig::default());

    let reference_state = StateVector::from_circuit(&naive_reference(&program, n));
    let optimized_state = StateVector::from_circuit(&result.optimized);

    // (1) The full circuit (optimized + extracted) is unitarily equivalent.
    let full_state = StateVector::from_circuit(&result.full_circuit());
    assert!(full_state.approx_eq_up_to_phase(&reference_state, 1e-9));

    // (2) Observable absorption: ⟨XXZZ⟩ original = sign·⟨P'⟩ optimized.
    let observable: SignedPauli = "XXZZ".parse().unwrap();
    let absorption = result.absorb_observables(std::slice::from_ref(&observable));
    let direct = reference_state.expectation_signed(&observable);
    let transformed = absorption.get(0);
    let measured = optimized_state.expectation(transformed.pauli());
    let via_absorption = absorption.original_expectation(0, measured);
    assert!(
        (direct - via_absorption).abs() < 1e-9,
        "direct {direct} vs absorbed {via_absorption}"
    );
}

#[test]
fn qaoa_probability_absorption_matches_distribution() {
    // A 4-qubit QAOA layer for MaxCut on a cycle: |+⟩ initialization is part
    // of QAOA, so prepend Hadamards to both circuits.
    let n = 4;
    let gamma = 0.63;
    let beta = 1.17;
    let mut program = Vec::new();
    for (a, b) in [(0usize, 1usize), (1, 2), (2, 3), (3, 0)] {
        let mut p = PauliString::identity(n);
        p.set_op(a, PauliOp::Z);
        p.set_op(b, PauliOp::Z);
        program.push(PauliRotation::new(p, gamma));
    }
    for q in 0..n {
        program.push(PauliRotation::new(
            PauliString::single(n, q, PauliOp::X),
            beta,
        ));
    }

    let result = compile(&program, &QuClearConfig::default());
    let absorber = result
        .probability_absorber()
        .expect("Proposition 1 applies");

    let mut plus_layer = Circuit::new(n);
    for q in 0..n {
        plus_layer.h(q);
    }

    // Reference distribution.
    let mut reference = plus_layer.clone();
    reference.append(&naive_reference(&program, n));
    let reference_probs = StateVector::from_circuit(&reference).probabilities();

    // Optimized execution: |+⟩ prep, optimized circuit, CA-Pre basis layer,
    // measurement, then classical CA-Post.
    let mut optimized = plus_layer;
    optimized.append(&result.optimized);
    optimized.append(&absorber.pre_circuit());
    let measured_probs = StateVector::from_circuit(&optimized).probabilities();
    let recovered = absorber.post_process_probabilities(&measured_probs);

    for (i, (a, b)) in reference_probs.iter().zip(&recovered).enumerate() {
        assert!(
            (a - b).abs() < 1e-9,
            "probability mismatch at basis state {i}: {a} vs {b}"
        );
    }
}

#[test]
fn uccsd_like_block_observable_absorption() {
    // A double-excitation block plus a couple of Hamiltonian observables.
    let n = 4;
    let paulis = [
        "XXXY", "XXYX", "XYXX", "YXXX", "YYYX", "YYXY", "YXYY", "XYYY",
    ];
    let program: Vec<PauliRotation> = paulis
        .iter()
        .enumerate()
        .map(|(i, p)| PauliRotation::parse(p, 0.1 + 0.07 * i as f64).unwrap())
        .collect();
    let result = compile(&program, &QuClearConfig::default());

    let reference_state = StateVector::from_circuit(&naive_reference(&program, n));
    let optimized_state = StateVector::from_circuit(&result.optimized);

    let observables: Vec<SignedPauli> = ["ZIII", "IZII", "ZZII", "XXII", "YYZZ"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let absorption = result.absorb_observables(&observables);
    for (i, obs) in observables.iter().enumerate() {
        let direct = reference_state.expectation_signed(obs);
        let measured = optimized_state.expectation(absorption.get(i).pauli());
        let recovered = absorption.original_expectation(i, measured);
        assert!(
            (direct - recovered).abs() < 1e-9,
            "observable {obs}: direct {direct} vs recovered {recovered}"
        );
    }
}

#[test]
fn measurement_basis_circuit_reproduces_expectations() {
    // Measuring ⟨P'⟩ through the basis-rotation circuit + Z-parity estimator
    // agrees with the exact expectation.
    let program = vec![
        PauliRotation::parse("ZZI", 0.81).unwrap(),
        PauliRotation::parse("IXX", -0.44).unwrap(),
        PauliRotation::parse("YZY", 0.29).unwrap(),
    ];
    let result = compile(&program, &QuClearConfig::default());
    let optimized_state = StateVector::from_circuit(&result.optimized);

    let observables: Vec<SignedPauli> = vec!["XYZ".parse().unwrap(), "ZZZ".parse().unwrap()];
    let absorption = result.absorb_observables(&observables);
    for i in 0..observables.len() {
        let transformed = absorption.get(i);
        let exact = optimized_state.expectation(transformed.pauli());

        let mut with_basis = result.optimized.clone();
        with_basis.append(&basis_change_circuit(3, transformed.pauli()));
        let probs = StateVector::from_circuit(&with_basis).probabilities();
        let estimated = expectation_from_probabilities(transformed.pauli(), &probs);
        assert!(
            (exact - estimated).abs() < 1e-9,
            "basis-rotated estimate {estimated} differs from exact {exact}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Extraction preserves the unitary for random rotation programs, for all
    /// four combinations of the recursion/reordering switches.
    #[test]
    fn extraction_preserves_unitary(
        program in rotation_strategy(4, 7),
        recursive in any::<bool>(),
        reorder in any::<bool>(),
    ) {
        let config = ExtractionConfig {
            recursive_tree: recursive,
            reorder_commuting: reorder,
            lookahead_depth: 8,
        };
        let result = extract_clifford(&program, &config);
        let reference = StateVector::from_circuit(&naive_reference(&program, 4));
        let full = StateVector::from_circuit(&result.full_circuit());
        prop_assert!(
            full.approx_eq_up_to_phase(&reference, 1e-8),
            "extraction changed the unitary (recursive={recursive}, reorder={reorder})"
        );
    }

    /// The full pipeline (extraction + peephole) preserves the unitary and
    /// observable expectations.
    #[test]
    fn pipeline_preserves_observables(program in rotation_strategy(4, 6)) {
        let result = compile(&program, &QuClearConfig::default());
        let reference = StateVector::from_circuit(&naive_reference(&program, 4));
        let optimized_state = StateVector::from_circuit(&result.optimized);

        let observables: Vec<SignedPauli> =
            vec!["ZIII".parse().unwrap(), "XXII".parse().unwrap(), "ZYXZ".parse().unwrap()];
        let absorption = result.absorb_observables(&observables);
        for (i, obs) in observables.iter().enumerate() {
            let direct = reference.expectation_signed(obs);
            let measured = optimized_state.expectation(absorption.get(i).pauli());
            let recovered = absorption.original_expectation(i, measured);
            prop_assert!((direct - recovered).abs() < 1e-8,
                "observable {} mismatch: {} vs {}", obs, direct, recovered);
        }
    }

    /// Structural invariants: the optimized circuit carries at most one Rz
    /// per input rotation and the extracted part is always pure Clifford.
    #[test]
    fn structural_invariants(program in rotation_strategy(5, 8)) {
        let result = extract_clifford(&program, &ExtractionConfig::default());
        let rz_count = result
            .optimized
            .gates()
            .iter()
            .filter(|g| matches!(g, quclear_circuit::Gate::Rz { .. }))
            .count();
        prop_assert!(rz_count <= program.len());
        prop_assert!(result.extracted.is_clifford());
    }
}
