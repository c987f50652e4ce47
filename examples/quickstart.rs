//! Quickstart: optimize the paper's motivating example with QuCLEAR.
//!
//! The circuit implements `e^{-i·t1/2·ZZZZ} · e^{-i·t2/2·YYXX}` and measures
//! the observable `XXZZ` (Figure 2 of the paper). QuCLEAR extracts the
//! Clifford halves of both rotation blocks to the end of the circuit and
//! absorbs them into the observable, cutting the CNOT count from 12 to 4.
//!
//! Run with `cargo run --example quickstart`.

use quclear::core::{compile, QuClearConfig};
use quclear::prelude::*;
use quclear::sim::StateVector;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The input program: a sequence of exponentiated Pauli strings.
    let program = vec![
        PauliRotation::parse("ZZZZ", 0.37)?,
        PauliRotation::parse("YYXX", -0.91)?,
    ];
    let native_cnots: usize = program.iter().map(PauliRotation::native_cnot_cost).sum();

    // Compile with QuCLEAR: Clifford Extraction + local clean-up.
    let result = compile(&program, &QuClearConfig::default());
    println!("native CNOT count:    {native_cnots}");
    println!("QuCLEAR CNOT count:   {}", result.cnot_count());
    println!("entangling depth:     {}", result.entangling_depth());
    println!(
        "extracted Clifford:   {} gates (never executed)",
        result.extracted.len()
    );

    // Clifford Absorption: measure the rewritten observable instead.
    let observable: SignedPauli = "XXZZ".parse()?;
    let absorption = result.absorb_observables(std::slice::from_ref(&observable));
    println!("observable {observable} becomes {}", absorption.get(0));

    // Check the answer against the dense simulator.
    let optimized_state = StateVector::from_circuit(&result.optimized);
    let measured = optimized_state.expectation(absorption.get(0).pauli());
    let recovered = absorption.original_expectation(0, measured);

    let reference_state = StateVector::from_circuit(&result.full_circuit());
    let direct = reference_state.expectation_signed(&observable);
    println!("⟨XXZZ⟩ via absorption: {recovered:.6}");
    println!("⟨XXZZ⟩ directly:       {direct:.6}");
    assert!((recovered - direct).abs() < 1e-9);
    println!("results agree ✔");
    Ok(())
}
