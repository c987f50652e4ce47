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
//! `scalar_sample_indices` is the binary-search draw `sample_indices` used
//! before its guide table: one `partition_point` over the CDF per shot. The
//! guide table must land on the same index for every draw and consume the
//! same random words, on dense, skewed, one-hot and sparse states and on
//! CDFs whose total is off 1 by `1e-12` either way.
//!
//! `StateVector::gather` runs a monomial layer (`CX` gates, then `S` and
//! `CZ` gates) as one pass; its amplitudes must be bit for bit what the
//! layer's gates give through the block kernels.
//!
//! `scalar_apply_rotation` is the allocate-and-combine formula
//! `StateVector::apply_rotation` used before the in-place pivot kernel:
//! build `P|ψ⟩` in a fresh vector, then combine `c·ψ − i·s·P|ψ⟩` with full
//! complex products. The in-place kernel multiplies in a different order,
//! so its contract is `1e-12` per amplitude, not `==`. The fused kernel
//! (`StateVector::apply_rotation_run`, one pass per run of commuting
//! same-X rotations) answers to the same oracle run one rotation at a time,
//! within the same `1e-12`.

use std::f64::consts::PI;

use proptest::prelude::*;
use quclear_circuit::math::{single_qubit_matrix, C64};
use quclear_circuit::{Circuit, Gate, MonomialMap};
use quclear_pauli::{BitVec, PauliOp, PauliRotation, PauliString};
use quclear_sim::{RotationRun, StateVector};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

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
            let q = g.qubit_list().as_slice()[0];
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

/// The binary-search inverse-CDF draw over raw amplitudes.
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

/// The `n`-qubit Pauli string with X mask `x` and Z mask `z`.
fn axis(n: usize, x: usize, z: usize) -> PauliString {
    let bits = |mask: usize| BitVec::from_bools((0..n).map(|q| mask >> q & 1 == 1));
    PauliString::from_xz(bits(x), bits(z))
}

/// `|v|` mod 2.
fn odd(v: usize) -> bool {
    v.count_ones() % 2 == 1
}

/// A seeded program on `n` qubits built from segments that exercise the
/// fused kernel: families of 2 or 8 commuting strings on one X mask (the
/// shape of UCC excitations), each with a reference Y count of every
/// residue mod 4 that the mask allows; long Z-only stretches that cross
/// the rank cap; identity axes; zero angles; and same-X neighbours that
/// anticommute with the family before them.
fn run_program(n: usize, seed: u64) -> Vec<PauliRotation> {
    let mut rng = StdRng::seed_from_u64(seed);
    let full = (1usize << n) - 1;
    let mut axes: Vec<(usize, usize)> = Vec::new();
    for segment in 0..12 {
        match rng.gen_range(0..4) {
            0 | 1 => {
                let x = rng.gen_range(1..=full);
                // Reference Z: `segment % 4` Y sites inside x when x has
                // that many, anything outside it.
                let mut z = rng.gen_range(0..=full) & !x;
                let sites: Vec<usize> = (0..n).filter(|&q| x >> q & 1 == 1).collect();
                let want = (segment % 4).min(sites.len());
                for &q in &sites[..want] {
                    z |= 1 << q;
                }
                let members = if rng.gen_bool(0.5) { 2 } else { 8 };
                for _ in 0..members {
                    // Any d with an even overlap with x commutes.
                    let mut d = rng.gen_range(0..=full);
                    if odd(d & x) {
                        d ^= 1 << sites[rng.gen_range(0..sites.len())];
                    }
                    axes.push((x, z ^ d));
                }
                if rng.gen_bool(0.5) {
                    // An anticommuting same-X neighbour.
                    axes.push((x, z ^ (1 << sites[0])));
                }
            }
            2 => {
                for _ in 0..rng.gen_range(5..12) {
                    axes.push((0, rng.gen_range(0..=full)));
                }
            }
            _ => axes.push((0, 0)),
        }
    }
    axes.into_iter()
        .map(|(x, z)| {
            let angle = if rng.gen_bool(0.1) {
                0.0
            } else {
                rng.gen_range(-PI..PI)
            };
            PauliRotation::new(axis(n, x, z), angle)
        })
        .collect()
}

/// The masks of an axis.
fn xz(rotation: &PauliRotation) -> (usize, usize) {
    let mask = |bits: &BitVec| {
        (0..bits.len())
            .filter(|&q| bits.get(q))
            .map(|q| 1 << q)
            .sum()
    };
    (
        mask(rotation.pauli().x_bits()),
        mask(rotation.pauli().z_bits()),
    )
}

/// Rank over GF(2) of a set of masks.
fn rank(masks: impl IntoIterator<Item = usize>) -> usize {
    let mut rows: Vec<usize> = Vec::new();
    for mut v in masks {
        for &row in &rows {
            v = v.min(v ^ row);
        }
        if v != 0 {
            rows.push(v);
            rows.sort_unstable_by(|a, b| b.cmp(a));
        }
    }
    rows.len()
}

/// The rank of a run's key: the span of its members' Z masks relative to
/// the reference (the first member's, or none for an X-free run).
fn run_rank(members: &[PauliRotation]) -> usize {
    let (x, z1) = xz(&members[0]);
    let reference = if x == 0 { 0 } else { z1 };
    rank(members.iter().map(|r| xz(r).1 ^ reference))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The runs partition the program into maximal same-X commuting runs of
    /// key rank at most 6, and one fused pass per run keeps every amplitude
    /// within `1e-12` of the allocate-and-combine oracle run one rotation
    /// at a time.
    #[test]
    fn fused_runs_match_the_per_rotation_oracle(n in 1usize..=10, seed in any::<u64>()) {
        let program = run_program(n, seed);
        let runs = RotationRun::plan(&program);
        prop_assert_eq!(runs.first().map(|run| run.range().start), Some(0));
        prop_assert_eq!(runs.last().map(|run| run.range().end), Some(program.len()));
        for (run, next) in runs.iter().zip(runs.iter().skip(1)) {
            prop_assert_eq!(run.range().end, next.range().start);
            let members = &program[run.range()];
            let (x, _) = xz(&members[0]);
            for member in members {
                prop_assert_eq!(xz(member).0, x);
                prop_assert!(member.pauli().commutes_with(members[0].pauli()));
            }
            prop_assert!(run_rank(members) <= 6);
            // The next rotation was refused for a reason.
            let refused = &program[next.range().start];
            let mut grown = members.to_vec();
            grown.push(refused.clone());
            prop_assert!(
                xz(refused).0 != x
                    || !refused.pauli().commutes_with(members[0].pauli())
                    || run_rank(&grown) > 6,
                "rotation {} could have joined its run", next.range().start
            );
        }

        let mut prep = Circuit::new(n);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF05E);
        for q in 0..n {
            prep.ry(q, rng.gen_range(0.1..3.0));
            prep.rz(q, rng.gen_range(-PI..PI));
        }
        let mut state = StateVector::from_circuit(&prep);
        let mut oracle = state.amplitudes().to_vec();
        for (k, run) in runs.iter().enumerate() {
            state.apply_rotation_run(run, &program[run.range()]);
            for rotation in &program[run.range()] {
                scalar_apply_rotation(&mut oracle, rotation);
            }
            for (i, (a, b)) in state.amplitudes().iter().zip(&oracle).enumerate() {
                prop_assert!(
                    (*a - *b).norm() <= 1e-12,
                    "n = {n}, run {k} ({:?}), amplitude {i}: {a:?} vs oracle {b:?}",
                    run.range()
                );
            }
        }
    }
}

/// A seeded state of one of four shapes, its CDF total then scaled by
/// `1 − 1e-12`, `1` or `1 + 1e-12`:
/// 0. a dense state after random rotations (continuous, skewed weights);
/// 1. a one-hot basis state (also shape 0 on zero qubits);
/// 2. random amplitudes on aligned runs, with long all-zero runs between;
/// 3. a few large weights among many tiny ones.
fn sampling_state(n: usize, seed: u64) -> StateVector {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = 1usize << n;
    let amps: Vec<C64> = match seed % 4 {
        0 if n > 0 => {
            let mut state = StateVector::zero_state(n);
            for q in 0..n {
                state.apply_gate(&Gate::Ry {
                    qubit: q,
                    angle: rng.gen_range(0.1..3.0),
                });
            }
            state.apply_rotations(&random_rotations(n, seed));
            state.amplitudes().to_vec()
        }
        0 | 1 => {
            let mut amps = vec![C64::ZERO; len];
            amps[rng.gen_range(0..len)] = C64::ONE;
            amps
        }
        2 => {
            let run = 1usize << rng.gen_range(0..n.max(1));
            let keep = rng.gen_range(1u64..u64::MAX);
            (0..len)
                .map(|i| {
                    if (keep >> ((i / run) % 64)) & 1 == 1 {
                        C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
                    } else {
                        C64::ZERO
                    }
                })
                .collect()
        }
        _ => (0..len)
            .map(|_| {
                let scale = if rng.gen_bool(0.05) { 1.0 } else { 1e-4 };
                C64::new(scale * rng.gen_range(0.0..1.0), 0.0)
            })
            .collect(),
    };
    let total: f64 = amps.iter().map(|a| a.norm_sq()).sum();
    let target = [1.0 - 1e-12, 1.0, 1.0 + 1e-12][rng.gen_range(0..3usize)];
    let factor = (target / total).sqrt();
    StateVector::from_amplitudes(amps.iter().map(|a| a.scale(factor)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The guide-table draw picks the binary search's index for every shot
    /// and leaves the generator where one `next_u64` per shot leaves it.
    #[test]
    fn guide_table_draws_match_binary_search(
        n in 0usize..=10,
        seed in any::<u64>(),
        shots in 1usize..=2000,
    ) {
        let state = sampling_state(n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD4A3);
        let drawn = state.sample_indices(shots, &mut rng);
        let mut oracle_rng = StdRng::seed_from_u64(seed ^ 0xD4A3);
        let oracle = scalar_sample_indices(state.amplitudes(), shots, &mut oracle_rng);
        prop_assert!(drawn == oracle, "n = {n}, shape {}: indices differ", seed % 4);
        prop_assert_eq!(rng.next_u64(), oracle_rng.next_u64());
    }
}

/// A seeded monomial layer: random `CX` gates, then random `S` and `CZ`
/// gates, on distinct qubits (`n >= 2`).
fn random_monomial_layer(n: usize, seed: u64) -> Vec<Gate> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pair = || {
        let a = rng.gen_range(0..n);
        (a, (a + rng.gen_range(1..n)) % n)
    };
    let mut gates: Vec<Gate> = (0..4 * n)
        .map(|_| {
            let (control, target) = pair();
            Gate::Cx { control, target }
        })
        .collect();
    for k in 0..4 * n {
        let (a, b) = pair();
        gates.push(if k % 3 == 0 {
            Gate::S(a)
        } else {
            Gate::Cz { a, b }
        });
    }
    gates
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One gather of a monomial layer is `==`, component for component, to
    /// the layer's gates run one by one on a generic dense state.
    #[test]
    fn gather_matches_the_gate_kernels_exactly(n in 2usize..=10, seed in any::<u64>()) {
        let gates = random_monomial_layer(n, seed);
        let base = StateVector::from_circuit(&random_circuit(n, seed ^ 0x6A7E));
        let mut expected = base.clone();
        gates.iter().for_each(|gate| expected.apply_gate(gate));
        let mut gathered = StateVector::zero_state(n);
        gathered.gather(&base, &MonomialMap::from_gates(n, &gates));
        for (i, (a, b)) in gathered.amplitudes().iter().zip(expected.amplitudes()).enumerate() {
            prop_assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "n = {n}, amplitude {i}: {a:?} vs gate kernels {b:?}"
            );
        }
    }
}
