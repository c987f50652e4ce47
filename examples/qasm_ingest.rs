//! Ingesting QASM: paste a gate-level circuit, get optimized circuits and
//! expectation values.
//!
//! External workloads arrive as OpenQASM text, not Pauli-rotation programs.
//! `Engine::compile_qasm` parses the text, lifts it into a rotation program
//! (Rz/CX ladders collapse to multi-qubit rotations automatically), runs
//! Clifford Extraction through the template cache, and folds every trailing
//! Clifford into the measurement observables.
//!
//! Run with `cargo run --example qasm_ingest`.

use quclear::prelude::*;
use quclear::sim::StateVector;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A VQE-style ansatz as it would arrive from any external front-end:
    // two ZZ interaction gadgets, a transverse-field layer, and a basis
    // change. (`t` and parameter expressions like `pi/4` are accepted.)
    let qasm = "
        OPENQASM 2.0;
        include \"qelib1.inc\";
        qreg q[3];
        cx q[0], q[1]; rz(0.83) q[1]; cx q[0], q[1];
        cx q[1], q[2]; rz(-0.4) q[2]; cx q[1], q[2];
        rx(pi/4) q[0]; rx(pi/4) q[1]; rx(pi/4) q[2];
        h q[0]; t q[2];
    ";

    // Parse + lift + extract, served through the engine's template cache.
    let engine = Engine::new(64);
    let result = engine.compile_qasm(qasm)?;
    println!(
        "optimized circuit:  {} gates, {} CNOTs",
        result.optimized.len(),
        result.cnot_count()
    );
    println!(
        "absorbed Clifford:  {} gates (never executed)",
        result.extracted.len()
    );

    // Expectation values of the original observables, measured on the
    // *optimized* circuit only: CA-Pre rewrites the observables through the
    // absorbed Clifford.
    let observables: Vec<SignedPauli> = vec!["ZZI".parse()?, "IZZ".parse()?, "XXX".parse()?];
    let absorbed = result.absorb_observables(&observables);
    let state = StateVector::from_circuit(&result.optimized);
    for (i, observable) in observables.iter().enumerate() {
        let measured = state.expectation(absorbed.get(i).pauli());
        let value = absorbed.original_expectation(i, measured);
        println!("⟨{observable}⟩ = {value:+.6}");
    }

    // Re-bind the same textual structure to new angles: the second
    // compilation is a cache hit (no re-extraction).
    let sweep = engine.bind_qasm(qasm, &[1.2, 0.7, 0.1, 0.1, 0.1, 0.5])?;
    println!(
        "rebound sweep point: {} CNOTs (cache hits: {})",
        sweep.cnot_count(),
        engine.stats().hits
    );
    Ok(())
}
