//! Scalar oracles for the state-vector kernels.
//!
//! `scalar_apply_gate` is the dense kernel `StateVector::apply_gate` used
//! before the block kernels, kept verbatim: a scan over every index with a
//! branch per amplitude and a full 2×2 complex product per pair. The block
//! kernels may only drop terms of that product that are exactly ±0 or
//! multiplications by exactly ±1, so every amplitude must stay `==` to the
//! oracle's — not merely close — and sampling from the two states with one
//! seed must draw the same indices.
//!
//! `scalar_apply_rotation` is the allocate-and-combine formula
//! `StateVector::apply_rotation` used before the in-place pivot kernel:
//! build `P|ψ⟩` in a fresh vector, then combine `c·ψ − i·s·P|ψ⟩` with full
//! complex products. The in-place kernel multiplies in a different order,
//! so its contract is `1e-12` per amplitude, not `==`.

use std::f64::consts::PI;

use proptest::prelude::*;
use quclear_circuit::math::{single_qubit_matrix, C64};
use quclear_circuit::{Circuit, Gate};
use quclear_pauli::{PauliOp, PauliRotation, PauliString};
use quclear_sim::StateVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The dense per-gate kernel the block kernels replaced.
fn scalar_apply_gate(amps: &mut [C64], gate: &Gate) {
    match *gate {
        Gate::Cx { control, target } => {
            let cm = 1usize << control;
            let tm = 1usize << target;
            for i in 0..amps.len() {
                if i & cm != 0 && i & tm == 0 {
                    amps.swap(i, i | tm);
                }
            }
        }
        Gate::Cz { a, b } => {
            let am = 1usize << a;
            let bm = 1usize << b;
            for (i, amp) in amps.iter_mut().enumerate() {
                if i & am != 0 && i & bm != 0 {
                    *amp = -*amp;
                }
            }
        }
        Gate::Swap { a, b } => {
            let am = 1usize << a;
            let bm = 1usize << b;
            for i in 0..amps.len() {
                if i & am != 0 && i & bm == 0 {
                    amps.swap(i, (i & !am) | bm);
                }
            }
        }
        ref g => {
            let q = g.qubits()[0];
            let u = single_qubit_matrix(g);
            let qm = 1usize << q;
            for i in 0..amps.len() {
                if i & qm == 0 {
                    let a0 = amps[i];
                    let a1 = amps[i | qm];
                    amps[i] = u.m[0][0] * a0 + u.m[0][1] * a1;
                    amps[i | qm] = u.m[1][0] * a0 + u.m[1][1] * a1;
                }
            }
        }
    }
}

/// The allocate-and-combine rotation formula the in-place kernel replaced:
/// `exp(−i·θ/2·P)` as `c·ψ − i·s·P|ψ⟩`, the identity as a global phase, a
/// zero angle as nothing.
fn scalar_apply_rotation(amps: &mut [C64], rotation: &PauliRotation) {
    let pauli = rotation.pauli();
    let c = (rotation.angle() / 2.0).cos();
    let s = (rotation.angle() / 2.0).sin();
    if rotation.is_trivial() && !pauli.is_identity() {
        return;
    }
    if pauli.is_identity() {
        let phase = C64::new(c, -s);
        amps.iter_mut().for_each(|a| *a = phase * *a);
        return;
    }
    let (mut x_mask, mut z_mask, mut y_count) = (0usize, 0usize, 0u32);
    for (q, op) in pauli.ops() {
        let (x, z) = op.xz();
        x_mask |= usize::from(x) << q;
        z_mask |= usize::from(z) << q;
        y_count += u32::from(x && z);
    }
    let global = [C64::ONE, C64::I, -C64::ONE, -C64::I][(y_count % 4) as usize];
    let mut p_psi = vec![C64::ZERO; amps.len()];
    for (i, amp) in amps.iter().enumerate() {
        let phase = if (i & z_mask).count_ones() % 2 == 1 {
            -C64::ONE
        } else {
            C64::ONE
        };
        p_psi[i ^ x_mask] = global * phase * *amp;
    }
    let minus_i_s = C64::new(0.0, -s);
    for (amp, p_amp) in amps.iter_mut().zip(&p_psi) {
        *amp = amp.scale(c) + minus_i_s * *p_amp;
    }
}

/// `StateVector::sample_indices`' inverse-CDF draw over raw amplitudes.
fn scalar_sample_indices(amps: &[C64], shots: usize, rng: &mut StdRng) -> Vec<u64> {
    let mut cdf = Vec::with_capacity(amps.len());
    let mut acc = 0.0f64;
    for amp in amps {
        acc += amp.norm_sq();
        cdf.push(acc);
    }
    if let Some(last) = cdf.last_mut() {
        *last = f64::max(*last, 1.0);
    }
    (0..shots)
        .map(|_| {
            let draw: f64 = rng.gen_range(0.0..1.0);
            cdf.partition_point(|&c| c <= draw) as u64
        })
        .collect()
}

/// Number of `Gate` kinds `gate_of_kind` spans.
const KINDS: usize = 14;

/// Gate kind `kind` on qubit `a` (single-qubit kinds) or on `(a, b)` in
/// that order (two-qubit kinds).
fn gate_of_kind(kind: usize, a: usize, b: usize, angle: f64) -> Gate {
    match kind {
        0 => Gate::H(a),
        1 => Gate::S(a),
        2 => Gate::Sdg(a),
        3 => Gate::X(a),
        4 => Gate::Y(a),
        5 => Gate::Z(a),
        6 => Gate::SqrtX(a),
        7 => Gate::SqrtXdg(a),
        8 => Gate::Rz { qubit: a, angle },
        9 => Gate::Rx { qubit: a, angle },
        10 => Gate::Ry { qubit: a, angle },
        11 => Gate::Cx {
            control: a,
            target: b,
        },
        12 => Gate::Cz { a, b },
        _ => Gate::Swap { a, b },
    }
}

/// A seeded circuit on `n` qubits: a generic dense starting state, then
/// every kind on the edge qubits 0 and `n − 1` (two-qubit kinds in both
/// orders), then random gates anywhere — coinciding two-qubit operands
/// included, which `Circuit` accepts.
fn random_circuit(n: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut circuit = Circuit::new(n);
    for q in 0..n {
        circuit.ry(q, rng.gen_range(0.1..3.0));
        circuit.rz(q, rng.gen_range(-PI..PI));
    }
    for kind in 0..KINDS {
        for (a, b) in [(0, n - 1), (n - 1, 0)] {
            circuit.push(gate_of_kind(kind, a, b, rng.gen_range(-PI..PI)));
        }
    }
    for _ in 0..64 {
        let kind = rng.gen_range(0..KINDS);
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        circuit.push(gate_of_kind(kind, a, b, rng.gen_range(-PI..PI)));
    }
    circuit
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After every gate, every amplitude's `re` and `im` are `==` to the
    /// scalar oracle's; `apply_circuit` lands on the same state; and both
    /// states sample the same indices from one seed.
    #[test]
    fn block_kernels_match_the_scalar_oracle_exactly(n in 1usize..=10, seed in any::<u64>()) {
        let circuit = random_circuit(n, seed);
        let mut state = StateVector::zero_state(n);
        let mut oracle = state.amplitudes().to_vec();
        for (g, gate) in circuit.gates().iter().enumerate() {
            state.apply_gate(gate);
            scalar_apply_gate(&mut oracle, gate);
            for (i, (a, b)) in state.amplitudes().iter().zip(&oracle).enumerate() {
                prop_assert!(
                    a.re == b.re && a.im == b.im,
                    "n = {n}, gate {g} ({gate}), amplitude {i}: {a:?} vs oracle {b:?}"
                );
            }
        }
        prop_assert!(StateVector::from_circuit(&circuit).amplitudes() == oracle.as_slice());

        let shots = 700;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A3F);
        let drawn = state.sample_indices(shots, &mut rng);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A3F);
        prop_assert_eq!(drawn, scalar_sample_indices(&oracle, shots, &mut rng));
    }
}

/// A seeded rotation sequence on `n` qubits covering the kernel's cases:
/// the identity, pure-Z strings, X on qubit 0 and on qubit `n − 1` (the
/// lowest and highest pivots), all-Y strings, trivial angles, then random
/// strings (each site Y-biased) with random angles.
fn random_rotations(n: usize, seed: u64) -> Vec<PauliRotation> {
    let mut rng = StdRng::seed_from_u64(seed);
    let single = |q: usize, op: PauliOp| {
        let mut p = PauliString::identity(n);
        p.set_op(q, op);
        p
    };
    let mut all_z = PauliString::identity(n);
    let mut all_y = PauliString::identity(n);
    for q in 0..n {
        all_z.set_op(q, PauliOp::Z);
        all_y.set_op(q, PauliOp::Y);
    }
    let mut rotations: Vec<PauliRotation> = [
        PauliString::identity(n),
        all_z,
        single(0, PauliOp::Z),
        single(0, PauliOp::X),
        single(n - 1, PauliOp::X),
        single(n - 1, PauliOp::Y),
        all_y.clone(),
    ]
    .into_iter()
    .map(|p| PauliRotation::new(p, rng.gen_range(-PI..PI)))
    .collect();
    rotations.push(PauliRotation::new(all_y, 0.0));
    rotations.push(PauliRotation::new(single(n - 1, PauliOp::X), 0.0));
    rotations.push(PauliRotation::new(PauliString::identity(n), 0.0));
    for _ in 0..48 {
        let mut p = PauliString::identity(n);
        for q in 0..n {
            let op = [PauliOp::I, PauliOp::X, PauliOp::Y, PauliOp::Y, PauliOp::Z];
            p.set_op(q, op[rng.gen_range(0..op.len())]);
        }
        rotations.push(PauliRotation::new(p, rng.gen_range(-PI..PI)));
    }
    rotations
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// From a generic dense state, every rotation keeps every amplitude
    /// within `1e-12` of the allocate-and-combine oracle.
    #[test]
    fn rotation_kernel_matches_the_scalar_oracle(n in 1usize..=10, seed in any::<u64>()) {
        let mut prep = Circuit::new(n);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
        for q in 0..n {
            prep.ry(q, rng.gen_range(0.1..3.0));
            prep.rz(q, rng.gen_range(-PI..PI));
        }
        let mut state = StateVector::from_circuit(&prep);
        let mut oracle = state.amplitudes().to_vec();
        for (k, rotation) in random_rotations(n, seed).iter().enumerate() {
            state.apply_rotation(rotation);
            scalar_apply_rotation(&mut oracle, rotation);
            for (i, (a, b)) in state.amplitudes().iter().zip(&oracle).enumerate() {
                prop_assert!(
                    (*a - *b).norm() <= 1e-12,
                    "n = {n}, rotation {k} ({rotation:?}), amplitude {i}: {a:?} vs oracle {b:?}"
                );
            }
        }
    }
}
