//! VQE-style chemistry workload: compile a UCCSD ansatz with QuCLEAR and
//! measure Hamiltonian observables through Clifford Absorption.
//!
//! This mirrors the paper's UCC-(2,4) benchmark (the H₂ active space): the
//! ansatz is compiled once, every Pauli observable of the (synthetic)
//! Hamiltonian is rewritten through the extracted Clifford, and the energy is
//! evaluated on the *optimized* circuit only.
//!
//! Run with `cargo run --example vqe_chemistry`.

use quclear::baselines::synthesize_naive;
use quclear::core::{compile, QuClearConfig};
use quclear::prelude::*;
use quclear::sim::StateVector;
use quclear::workloads::{synthetic_molecular_hamiltonian, Uccsd};

fn main() {
    // UCC-(2,4): two electrons in four spin orbitals.
    let ansatz = Uccsd::new(2, 4);
    let program = ansatz.rotations();
    let n = ansatz.num_qubits();

    let naive = synthesize_naive(&program);
    let result = compile(&program, &QuClearConfig::default());
    println!(
        "UCC-(2,4): {} Pauli rotations on {} qubits",
        program.len(),
        n
    );
    println!(
        "  native circuit:   {} CNOTs, depth {}",
        naive.cnot_count(),
        naive.entangling_depth()
    );
    println!(
        "  QuCLEAR circuit:  {} CNOTs, depth {}",
        result.cnot_count(),
        result.entangling_depth()
    );

    // A synthetic molecular Hamiltonian on the same register provides the
    // measurement observables (CA-Pre rewrites them, CA-Post maps them back).
    let hamiltonian = synthetic_molecular_hamiltonian(n, 15, 42);
    let observables: Vec<SignedPauli> = hamiltonian
        .iter()
        .map(|(coeff, pauli)| SignedPauli::new(pauli.clone(), *coeff < 0.0))
        .collect();
    let absorption = result.absorb_observables(&observables);

    // Evaluate the energy two ways: directly on the unoptimized circuit and
    // through absorption on the optimized circuit.
    let reference_state = StateVector::from_circuit(&naive);
    let optimized_state = StateVector::from_circuit(&result.optimized);
    let mut direct_energy = 0.0;
    let mut absorbed_energy = 0.0;
    for (i, (coeff, pauli)) in hamiltonian.iter().enumerate() {
        direct_energy += coeff.abs() * reference_state.expectation_signed(&observables[i]);
        let measured = optimized_state.expectation(absorption.get(i).pauli());
        absorbed_energy += coeff.abs() * absorption.original_expectation(i, measured);
        let _ = pauli;
    }
    println!("  energy (direct):    {direct_energy:.8}");
    println!("  energy (absorbed):  {absorbed_energy:.8}");
    assert!((direct_energy - absorbed_energy).abs() < 1e-8);
    println!("  energies agree ✔");
}
