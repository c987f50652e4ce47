//! Random programs shared by the unit tests of this crate.

use quclear_circuit::Gate;
use quclear_pauli::{PauliFrame, PauliOp, PauliRotation, PauliString};
use quclear_tableau::conjugate_all_by_gate;

/// A random string on `n` qubits whose operators are drawn from
/// `palette` (repeats weight the draw).
pub(crate) fn random_pauli(
    rng: &mut proptest::TestRng,
    n: usize,
    palette: &[PauliOp],
) -> PauliString {
    let ops: Vec<PauliOp> = (0..n)
        .map(|_| palette[(rng.next_u64() % palette.len() as u64) as usize])
        .collect();
    PauliString::from_ops(&ops)
}

/// A random program of `rows` rotations on `n` qubits in one to three
/// runs, each a set of commuting strings: random {I, Z} strings,
/// conjugated through a random Clifford circuit of its own unless
/// `diagonal`.
pub(crate) fn random_blocks(
    rng: &mut proptest::TestRng,
    n: usize,
    rows: usize,
    diagonal: bool,
) -> Vec<PauliRotation> {
    let runs = 1 + (rng.next_u64() % 3) as usize;
    let mut rotations = Vec::new();
    for run in 0..runs {
        let len = rows * (run + 1) / runs - rows * run / runs;
        let strings: Vec<PauliString> = (0..len)
            .map(|_| random_pauli(rng, n, &[PauliOp::I, PauliOp::Z]))
            .collect();
        let mut frame = PauliFrame::from_paulis(n, &strings);
        for _ in 0..if diagonal { 0 } else { 4 * n } {
            let q = (rng.next_u64() % n as u64) as usize;
            let gate = match rng.next_u64() % 3 {
                0 => Gate::H(q),
                1 => Gate::S(q),
                _ if n > 1 => Gate::Cx {
                    control: q,
                    target: (q + 1 + (rng.next_u64() % (n as u64 - 1)) as usize) % n,
                },
                _ => Gate::H(q),
            };
            conjugate_all_by_gate(&mut frame, &gate);
        }
        rotations.extend(
            (0..len).map(|i| PauliRotation::new(frame.row_pauli(i), 0.1 + 0.01 * i as f64)),
        );
    }
    rotations
}
