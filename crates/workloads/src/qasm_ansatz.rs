//! Gate-level (QASM-textual) ansatz generators.
//!
//! The other workload generators produce Pauli-rotation programs directly;
//! these produce the *gate-level* form real workloads arrive in — OpenQASM
//! 2.0 text built from `Rz`/`CX` ladders and basis changes — **together
//! with** the rotation program the text encodes. That pairing is what the
//! QASM-ingestion tests, benches and examples need: lift the text, compile
//! it, and compare against the native program.

use std::fmt::Write as _;

use quclear_pauli::{PauliOp, PauliRotation, PauliString};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A gate-level ansatz in OpenQASM 2.0 text, paired with the Pauli-rotation
/// program it encodes.
///
/// `qasm` and `program` describe the same unitary (up to the global phase of
/// `t`/`tdg` translation, when present): compiling the lifted text and
/// compiling `program` natively must agree on every observable.
#[derive(Clone, Debug)]
pub struct QasmAnsatz {
    /// Descriptive name.
    pub name: String,
    /// The OpenQASM 2.0 source text.
    pub qasm: String,
    /// The Pauli-rotation program the text encodes, in lift order.
    pub program: Vec<PauliRotation>,
    /// Register size.
    pub num_qubits: usize,
}

/// Generates a VQE/QAOA-style ansatz as QASM text: `layers` repetitions of
/// nearest-neighbour `CX·Rz·CX` ZZ-interaction gadgets, per-qubit `rx`
/// mixers, and one full-register `Rz`/`CX` ladder whose rotation spans all
/// `n` qubits. Angles are drawn deterministically from `seed`.
///
/// The returned [`QasmAnsatz::program`] lists the corresponding rotations —
/// `ZZ` terms, `X` mixers and one `Z…Z` term per layer — in the order the
/// lift pass discovers them, so
/// `quclear_core::lift(&from_qasm(&ansatz.qasm)?).rotations` matches it
/// rotation for rotation.
///
/// # Panics
///
/// Panics if `n < 2`.
///
/// # Examples
///
/// ```
/// use quclear_workloads::zz_chain_qasm;
///
/// let ansatz = zz_chain_qasm(4, 2, 7);
/// assert!(ansatz.qasm.contains("cx q[0], q[1];"));
/// // 3 ZZ terms + 4 mixers + 1 ZZZZ ladder term, per layer.
/// assert_eq!(ansatz.program.len(), 2 * (3 + 4 + 1));
/// ```
#[must_use]
pub fn zz_chain_qasm(n: usize, layers: usize, seed: u64) -> QasmAnsatz {
    assert!(n >= 2, "the ZZ-chain ansatz needs at least two qubits");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut qasm = String::new();
    qasm.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    let _ = writeln!(qasm, "qreg q[{n}];");
    let mut program = Vec::new();

    let zz =
        |qasm: &mut String, program: &mut Vec<PauliRotation>, a: usize, b: usize, theta: f64| {
            let _ = writeln!(qasm, "cx q[{a}], q[{b}];");
            let _ = writeln!(qasm, "rz({theta:.17}) q[{b}];");
            let _ = writeln!(qasm, "cx q[{a}], q[{b}];");
            let mut pauli = PauliString::identity(n);
            pauli.set_op(a, PauliOp::Z);
            pauli.set_op(b, PauliOp::Z);
            program.push(PauliRotation::new(pauli, theta));
        };

    for _ in 0..layers {
        // Nearest-neighbour ZZ interactions.
        for a in 0..n - 1 {
            let theta = rng.gen_range(-1.5..1.5);
            zz(&mut qasm, &mut program, a, a + 1, theta);
        }
        // Transverse-field mixers.
        for q in 0..n {
            let phi = rng.gen_range(-1.5..1.5);
            let _ = writeln!(qasm, "rx({phi:.17}) q[{q}];");
            program.push(PauliRotation::new(
                PauliString::single(n, q, PauliOp::X),
                phi,
            ));
        }
        // A full-register ladder: lifts to one weight-n Z…Z rotation.
        let theta = rng.gen_range(-1.5..1.5);
        for a in 0..n - 1 {
            let _ = writeln!(qasm, "cx q[{}], q[{}];", a, a + 1);
        }
        let _ = writeln!(qasm, "rz({theta:.17}) q[{}];", n - 1);
        for a in (0..n - 1).rev() {
            let _ = writeln!(qasm, "cx q[{}], q[{}];", a, a + 1);
        }
        program.push(PauliRotation::new(
            PauliString::from_ops(&vec![PauliOp::Z; n]),
            theta,
        ));
    }

    QasmAnsatz {
        name: format!("zz-chain-{n}q-{layers}l"),
        qasm,
        program,
        num_qubits: n,
    }
}

/// Generates a hardware-efficient ansatz as QASM text: `layers` of per-qubit
/// `ry`/`rz` rotations followed by a `cx` entangling chain, the shape most
/// variational front-ends emit by default.
///
/// Unlike [`zz_chain_qasm`], the entangling chain is *not* uncomputed, so
/// the lifted axes grow through the accumulated Clifford — the stress
/// pattern for the lift pass. [`QasmAnsatz::program`] is left empty here
/// (there is no natural hand-written rotation form); callers compare against
/// the lifted program itself.
///
/// # Panics
///
/// Panics if `n < 2`.
#[must_use]
pub fn hardware_efficient_qasm(n: usize, layers: usize, seed: u64) -> QasmAnsatz {
    assert!(
        n >= 2,
        "the hardware-efficient ansatz needs at least two qubits"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut qasm = String::new();
    qasm.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    let _ = writeln!(qasm, "qreg q[{n}];");
    for _ in 0..layers {
        for q in 0..n {
            let _ = writeln!(qasm, "ry({:.17}) q[{q}];", rng.gen_range(-1.5..1.5));
            let _ = writeln!(qasm, "rz({:.17}) q[{q}];", rng.gen_range(-1.5..1.5));
        }
        for a in 0..n - 1 {
            let _ = writeln!(qasm, "cx q[{}], q[{}];", a, a + 1);
        }
    }
    QasmAnsatz {
        name: format!("hardware-efficient-{n}q-{layers}l"),
        qasm,
        program: Vec::new(),
        num_qubits: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zz_chain_counts_add_up() {
        let ansatz = zz_chain_qasm(5, 3, 11);
        assert_eq!(ansatz.program.len(), 3 * ((5 - 1) + 5 + 1));
        assert_eq!(ansatz.num_qubits, 5);
        // Deterministic in the seed.
        assert_eq!(zz_chain_qasm(5, 3, 11).qasm, ansatz.qasm);
        assert_ne!(zz_chain_qasm(5, 3, 12).qasm, ansatz.qasm);
    }

    #[test]
    fn hardware_efficient_emits_rotations_and_chains() {
        let ansatz = hardware_efficient_qasm(4, 2, 3);
        assert_eq!(ansatz.qasm.matches("ry(").count(), 8);
        assert_eq!(ansatz.qasm.matches("cx ").count(), 6);
    }
}
