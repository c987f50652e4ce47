//! Integration tests for the extension features: multi-layer QAOA
//! absorption, measurement grouping, and QASM round-trips.

use quclear::baselines::synthesize_naive;
use quclear::circuit::qasm::{from_qasm, to_qasm};
use quclear::core::{compile, group_qubitwise_commuting, QuClearConfig};
use quclear::prelude::*;
use quclear::sim::StateVector;
use quclear::workloads::{maxcut_qaoa, qaoa_initial_layer, Benchmark, Graph, Molecule};

/// Proposition 1 extends to multi-layer QAOA: with two layers the extracted
/// Clifford is still a basis layer plus a CNOT network, and the recovered
/// distribution is exact.
#[test]
fn two_layer_qaoa_probability_absorption_is_exact() {
    let graph = Graph::regular(5, 2, 4);
    let program = maxcut_qaoa(&graph, 2, 0.45, 0.85);
    let result = compile(&program, &QuClearConfig::default());
    let absorber = result
        .probability_absorber()
        .expect("two-layer QAOA must still satisfy Proposition 1");

    let n = graph.num_vertices();
    let mut reference = qaoa_initial_layer(n);
    reference.append(&synthesize_naive(&program));
    let expected = StateVector::from_circuit(&reference).probabilities();

    let mut optimized = qaoa_initial_layer(n);
    optimized.append(&result.optimized);
    optimized.append(&absorber.pre_circuit());
    let recovered =
        absorber.post_process_probabilities(&StateVector::from_circuit(&optimized).probabilities());
    for (a, b) in expected.iter().zip(&recovered) {
        assert!((a - b).abs() < 1e-9);
    }
}

/// Measurement grouping applies equally well to the absorbed observables:
/// every group member must be qubit-wise consistent with the group basis and
/// the groups must cover all observables exactly once.
#[test]
fn grouping_absorbed_lih_observables() {
    let molecule = Molecule::LiH;
    let program: Vec<PauliRotation> = molecule.trotter_step(0.3).into_iter().take(25).collect();
    let result = compile(&program, &QuClearConfig::default());
    let observables = molecule.observables();
    let absorption = result.absorb_observables(&observables);

    let groups = group_qubitwise_commuting(&absorption.to_vec());
    let covered: usize = groups.iter().map(|g| g.members.len()).sum();
    assert_eq!(covered, observables.len());
    assert!(
        groups.len() < observables.len(),
        "grouping should reduce the number of measurement settings ({} vs {})",
        groups.len(),
        observables.len()
    );
    for group in &groups {
        for &member in &group.members {
            assert!(quclear::core::qubit_wise_commute(
                &group.basis,
                absorption.get(member).pauli()
            ));
        }
    }
}

/// The optimized circuit survives a QASM round-trip unchanged (gate counts
/// and simulated state).
#[test]
fn optimized_circuit_qasm_roundtrip() {
    let program = Benchmark::Ucc(2, 4).rotations();
    let result = compile(&program, &QuClearConfig::default());
    let text = to_qasm(&result.optimized);
    let parsed = from_qasm(&text).expect("exported QASM must parse back");
    assert_eq!(parsed.cnot_count(), result.optimized.cnot_count());
    let a = StateVector::from_circuit(&result.optimized);
    let b = StateVector::from_circuit(&parsed);
    assert!(a.approx_eq_up_to_phase(&b, 1e-9));
}

/// LABS programs (multi-qubit Z terms + X mixer) also go through the full
/// probability-absorption path.
#[test]
fn labs_probability_absorption_is_exact_for_small_n() {
    let program = quclear::workloads::labs_qaoa(6, 1, 0.5, 0.8);
    let result = compile(&program, &QuClearConfig::default());
    let absorber = result
        .probability_absorber()
        .expect("LABS satisfies Proposition 1");

    let mut reference = qaoa_initial_layer(6);
    reference.append(&synthesize_naive(&program));
    let expected = StateVector::from_circuit(&reference).probabilities();

    let mut optimized = qaoa_initial_layer(6);
    optimized.append(&result.optimized);
    optimized.append(&absorber.pre_circuit());
    let recovered =
        absorber.post_process_probabilities(&StateVector::from_circuit(&optimized).probabilities());
    for (a, b) in expected.iter().zip(&recovered) {
        assert!((a - b).abs() < 1e-9);
    }
}
