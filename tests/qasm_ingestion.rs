//! End-to-end QASM ingestion: textual circuits enter the engine through
//! parse → lift → template cache → bind, and both the optimized circuits and
//! the absorbed expectation values match the native Pauli-rotation path.

use quclear::core::{compile, lift_qasm, QuClearConfig};
use quclear::prelude::*;
use quclear::sim::StateVector;
use quclear::workloads::{hardware_efficient_qasm, zz_chain_qasm};
use quclear_circuit::qasm::from_qasm;

/// Observables exercising single- and two-qubit supports on `n` qubits.
fn test_observables(n: usize) -> Vec<SignedPauli> {
    let mut obs = Vec::new();
    for q in 0..n - 1 {
        let mut zz = vec!['I'; n];
        zz[q] = 'Z';
        zz[q + 1] = 'Z';
        obs.push(zz.iter().collect::<String>().parse().unwrap());
    }
    for q in 0..n {
        let mut x = vec!['I'; n];
        x[q] = 'X';
        obs.push(x.iter().collect::<String>().parse().unwrap());
    }
    // One negatively signed, mixed-basis observable.
    let mut s = vec!['I'; n];
    s[0] = 'Y';
    s[n - 1] = 'Z';
    obs.push(
        format!("-{}", s.iter().collect::<String>())
            .parse()
            .unwrap(),
    );
    obs
}

/// The lift recognizes the generator's ladder structure: the lifted program
/// equals the hand-written native rotation program term for term.
#[test]
fn lifted_ansatz_matches_the_native_program_termwise() {
    let ansatz = zz_chain_qasm(5, 2, 23);
    let lifted = lift_qasm(&ansatz.qasm).unwrap();
    assert_eq!(lifted.rotations.len(), ansatz.program.len());
    assert!(lifted.trailing_clifford.is_identity());
    for (got, want) in lifted.rotations.iter().zip(&ansatz.program) {
        assert_eq!(got.pauli(), want.pauli());
        assert!((got.angle() - want.angle()).abs() < 1e-12);
    }
}

/// Acceptance criterion: `Engine::compile_qasm` on a textual Rz/CX-ladder
/// ansatz is simulator-equivalent to native `compile` on the corresponding
/// rotation program, and the absorbed VQE expectation values agree to 1e-9.
#[test]
fn engine_compile_qasm_matches_native_compile_and_expectations() {
    let n = 6;
    let ansatz = zz_chain_qasm(n, 2, 91);
    let engine = Engine::new(16);

    let from_qasm_result = engine.compile_qasm(&ansatz.qasm).unwrap();
    let native_result = compile(&ansatz.program, &QuClearConfig::default());

    // Both full circuits implement the ansatz unitary.
    let qasm_state = StateVector::from_circuit(&from_qasm_result.full_circuit());
    let native_state = StateVector::from_circuit(&native_result.full_circuit());
    assert!(qasm_state.approx_eq_up_to_phase(&native_state, 1e-9));

    // Reference: exact rotation-product state.
    let mut reference = StateVector::zero_state(n);
    reference.apply_rotations(&ansatz.program);
    assert!(qasm_state.approx_eq_up_to_phase(&reference, 1e-9));

    // VQE expectations through CA-Pre on both paths, against the reference.
    let observables = test_observables(n);
    let qasm_opt = StateVector::from_circuit(&from_qasm_result.optimized);
    let native_opt = StateVector::from_circuit(&native_result.optimized);
    let qasm_absorbed = from_qasm_result.absorb_observables(&observables);
    let native_absorbed = native_result.absorb_observables(&observables);
    for (i, observable) in observables.iter().enumerate() {
        let truth = reference.expectation_signed(observable);
        let via_qasm = qasm_absorbed
            .original_expectation(i, qasm_opt.expectation(qasm_absorbed.get(i).pauli()));
        let via_native = native_absorbed
            .original_expectation(i, native_opt.expectation(native_absorbed.get(i).pauli()));
        assert!(
            (truth - via_qasm).abs() < 1e-9,
            "observable {observable}: QASM path {via_qasm} vs reference {truth}"
        );
        assert!(
            (via_qasm - via_native).abs() < 1e-9,
            "observable {observable}: QASM path {via_qasm} vs native path {via_native}"
        );
    }
}

/// Structures are fingerprinted and cached: re-ingesting the same ansatz
/// with different angles hits the template cache, and `bind_qasm` overrides
/// the textual angles through the same template.
#[test]
fn qasm_ingestion_hits_the_template_cache() {
    let engine = Engine::new(16);
    let a = zz_chain_qasm(5, 2, 1);
    let b = zz_chain_qasm(5, 2, 2); // same structure, different angles

    engine.compile_qasm(&a.qasm).unwrap();
    engine.compile_qasm(&b.qasm).unwrap();
    let stats = engine.stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));

    // bind_qasm with b's native angles must equal compile_qasm of b.
    let lifted_b = lift_qasm(&b.qasm).unwrap();
    let bound = engine.bind_qasm(&a.qasm, lifted_b.native_angles()).unwrap();
    let direct = engine.compile_qasm(&b.qasm).unwrap();
    assert_eq!(bound.optimized.gates(), direct.optimized.gates());
    assert_eq!(bound.extracted.gates(), direct.extracted.gates());
}

/// A hardware-efficient ansatz (entangling chain *not* uncomputed) exercises
/// a non-trivial trailing Clifford end to end: the composed result still
/// implements the parsed circuit, and absorbed expectations remain exact.
#[test]
fn non_trivial_trailing_clifford_composes_through_the_engine() {
    let n = 5;
    let ansatz = hardware_efficient_qasm(n, 2, 77);
    let engine = Engine::new(16);

    let result = engine.compile_qasm(&ansatz.qasm).unwrap();
    let lifted = lift_qasm(&ansatz.qasm).unwrap();
    assert!(!lifted.trailing_clifford.is_identity());

    let parsed = from_qasm(&ansatz.qasm).unwrap();
    let reference = StateVector::from_circuit(&parsed);
    let via_engine = StateVector::from_circuit(&result.full_circuit());
    assert!(via_engine.approx_eq_up_to_phase(&reference, 1e-9));

    // Absorbed expectations against the raw parsed circuit.
    let observables = test_observables(n);
    let optimized = StateVector::from_circuit(&result.optimized);
    let absorbed = result.absorb_observables(&observables);
    for (i, observable) in observables.iter().enumerate() {
        let truth = reference.expectation_signed(observable);
        let recovered =
            absorbed.original_expectation(i, optimized.expectation(absorbed.get(i).pauli()));
        assert!(
            (truth - recovered).abs() < 1e-9,
            "observable {observable}: {recovered} vs {truth}"
        );
    }
}

/// Clifford-only QASM circuits ingest cleanly: the rotation program is
/// empty and the whole circuit lands in the extracted Clifford.
#[test]
fn clifford_only_qasm_is_fully_absorbed() {
    let qasm = "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0], q[1];\ncx q[1], q[2];\ns q[2];\n";
    let engine = Engine::new(4);
    let result = engine.compile_qasm(qasm).unwrap();
    assert!(result.optimized.is_empty());
    assert_eq!(result.extracted.len(), 4);

    let reference = StateVector::from_circuit(&from_qasm(qasm).unwrap());
    let via_engine = StateVector::from_circuit(&result.full_circuit());
    assert!(via_engine.approx_eq_up_to_phase(&reference, 1e-9));
}

/// `t`/`tdg` enter the pipeline as π/4 rotations; expectation values (which
/// are phase-blind) match the parsed circuit exactly.
#[test]
fn t_gates_ingest_as_rotations() {
    let qasm = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nt q[0];\ncx q[0], q[1];\ntdg q[1];\nh q[1];\n";
    let engine = Engine::new(4);
    let result = engine.compile_qasm(qasm).unwrap();
    let reference = StateVector::from_circuit(&from_qasm(qasm).unwrap());
    let via_engine = StateVector::from_circuit(&result.full_circuit());
    assert!(via_engine.approx_eq_up_to_phase(&reference, 1e-9));
}
