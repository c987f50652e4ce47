//! The one-pass peephole against the multi-round pass it replaced.
//!
//! The oracle below is the earlier peephole kept verbatim: three sub-passes
//! (inverse cancellation with a bounded commutation lookback, rotation
//! merging, single-qubit Clifford fusion), each rebuilding the circuit,
//! repeated up to a fixpoint of at most eight rounds. `optimize` must
//! preserve the unitary, never spend more CNOTs than the oracle, and on the
//! Table II extraction outputs spend exactly as many CNOTs and no more gates.

use std::f64::consts::{FRAC_PI_2, PI};

use proptest::prelude::*;
use quclear::baselines::synthesize_naive;
use quclear::circuit::math::{single_qubit_matrix, zyz_decompose, Mat2};
use quclear::circuit::{optimize, Circuit, Gate, QubitList};
use quclear::core::{extract_clifford, ExtractionConfig};
use quclear::sim::StateVector;
use quclear::workloads::Benchmark;

mod oracle {
    use super::*;

    const MAX_PASSES: usize = 8;
    const LOOKBACK: usize = 128;
    const ANGLE_TOLERANCE: f64 = 1e-10;

    pub fn optimize(circuit: &Circuit) -> Circuit {
        let mut current = circuit.clone();
        for _ in 0..MAX_PASSES {
            let mut changed = false;
            let (next, c) = cancel_inverse_pairs(&current);
            current = next;
            changed |= c;
            let (next, c) = merge_rotations(&current);
            current = next;
            changed |= c;
            let (next, c) = fuse_single_qubit_runs(&current);
            current = next;
            changed |= c;
            if !changed {
                break;
            }
        }
        current
    }

    fn gates_commute(a: &Gate, b: &Gate) -> bool {
        let qa = a.qubit_list();
        let qb = b.qubit_list();
        if qa.is_disjoint(qb) {
            return true;
        }
        if a.is_diagonal() && b.is_diagonal() {
            return true;
        }
        let cx_commutes = |cx_control: usize, cx_target: usize, other: &Gate| -> bool {
            match other {
                Gate::Cx { control, target } => {
                    (*control == cx_control
                        && *target != cx_target
                        && !qb_overlap(*target, cx_control, *control, cx_target))
                        || (*target == cx_target && *control != cx_control)
                }
                g if g.qubit_list() == QubitList::one(cx_control) => g.is_diagonal(),
                g if g.qubit_list() == QubitList::one(cx_target) => {
                    matches!(
                        g,
                        Gate::X(_) | Gate::Rx { .. } | Gate::SqrtX(_) | Gate::SqrtXdg(_)
                    )
                }
                _ => false,
            }
        };
        match (a, b) {
            (Gate::Cx { control, target }, other) => cx_commutes(*control, *target, other),
            (other, Gate::Cx { control, target }) => cx_commutes(*control, *target, other),
            _ => false,
        }
    }

    fn qb_overlap(
        other_target: usize,
        my_control: usize,
        other_control: usize,
        my_target: usize,
    ) -> bool {
        other_target == my_control || other_control == my_target
    }

    fn cancel_inverse_pairs(circuit: &Circuit) -> (Circuit, bool) {
        let gates = circuit.gates();
        let mut live: Vec<Option<Gate>> = gates.iter().copied().map(Some).collect();
        let mut changed = false;

        for i in 0..live.len() {
            let Some(current) = live[i] else { continue };
            let mut steps = 0usize;
            let mut j = i;
            while j > 0 && steps < LOOKBACK {
                j -= 1;
                let Some(prev) = live[j] else { continue };
                steps += 1;
                if prev == current.inverse() && prev.qubit_list() == current.qubit_list() {
                    live[i] = None;
                    live[j] = None;
                    changed = true;
                    break;
                }
                if !gates_commute(&prev, &current) {
                    break;
                }
            }
        }

        let kept: Vec<Gate> = live.into_iter().flatten().collect();
        (Circuit::from_gates(circuit.num_qubits(), kept), changed)
    }

    fn z_axis_view(gate: &Gate) -> Option<(usize, f64, bool)> {
        match *gate {
            Gate::Rz { qubit, angle } => Some((qubit, angle, true)),
            Gate::S(q) => Some((q, FRAC_PI_2, false)),
            Gate::Sdg(q) => Some((q, -FRAC_PI_2, false)),
            Gate::Z(q) => Some((q, PI, false)),
            _ => None,
        }
    }

    fn merge_rotations(circuit: &Circuit) -> (Circuit, bool) {
        let gates = circuit.gates();
        let mut live: Vec<Option<Gate>> = gates.iter().copied().map(Some).collect();
        let mut changed = false;

        for i in 0..live.len() {
            let Some(current) = live[i] else { continue };
            let (kind, qubit, angle, current_is_rz) = match current {
                Gate::Rz { qubit, angle } => (0u8, qubit, angle, true),
                Gate::Rx { qubit, angle } => (1u8, qubit, angle, true),
                Gate::Ry { qubit, angle } => (2u8, qubit, angle, true),
                Gate::S(_) | Gate::Sdg(_) | Gate::Z(_) => {
                    let (qubit, angle, _) = z_axis_view(&current).expect("Z-axis gate");
                    (0u8, qubit, angle, false)
                }
                _ => continue,
            };
            if current_is_rz && is_zero_angle(angle) {
                live[i] = None;
                changed = true;
                continue;
            }
            let mut steps = 0usize;
            let mut j = i;
            while j > 0 && steps < LOOKBACK {
                j -= 1;
                let Some(prev) = live[j] else { continue };
                steps += 1;
                let merged = match (kind, prev) {
                    (0, _) => match z_axis_view(&prev) {
                        Some((q, a, prev_is_rz)) if q == qubit && (prev_is_rz || current_is_rz) => {
                            Some(Gate::Rz {
                                qubit,
                                angle: a + angle,
                            })
                        }
                        _ => None,
                    },
                    (1, Gate::Rx { qubit: q, angle: a }) if q == qubit => Some(Gate::Rx {
                        qubit,
                        angle: a + angle,
                    }),
                    (2, Gate::Ry { qubit: q, angle: a }) if q == qubit => Some(Gate::Ry {
                        qubit,
                        angle: a + angle,
                    }),
                    _ => None,
                };
                if let Some(m) = merged {
                    live[j] = if is_zero_angle(merged_angle(&m)) {
                        None
                    } else {
                        Some(m)
                    };
                    live[i] = None;
                    changed = true;
                    break;
                }
                if !gates_commute(&prev, &current) {
                    break;
                }
            }
        }

        let kept: Vec<Gate> = live.into_iter().flatten().collect();
        (Circuit::from_gates(circuit.num_qubits(), kept), changed)
    }

    fn merged_angle(gate: &Gate) -> f64 {
        match gate {
            Gate::Rz { angle, .. } | Gate::Rx { angle, .. } | Gate::Ry { angle, .. } => *angle,
            _ => f64::NAN,
        }
    }

    fn is_zero_angle(angle: f64) -> bool {
        let two_pi = 2.0 * PI;
        let reduced = angle.rem_euclid(two_pi);
        reduced < ANGLE_TOLERANCE || (two_pi - reduced) < ANGLE_TOLERANCE
    }

    fn flush_run(run: &mut Vec<Gate>, q: usize, out: &mut Vec<Gate>) -> bool {
        let rewritten = run.len() > 1 && fuse_run(run, q, out);
        if !rewritten {
            out.append(run);
        }
        run.clear();
        rewritten
    }

    fn fuse_run(run: &[Gate], q: usize, out: &mut Vec<Gate>) -> bool {
        let mut u = Mat2::identity();
        for g in run {
            u = single_qubit_matrix(g).mul(&u);
        }
        if u.is_identity_up_to_phase(ANGLE_TOLERANCE.max(1e-9)) {
            return true;
        }
        let (alpha, beta, gamma) = zyz_decompose(&u);
        let fused: Vec<Gate> = [
            Gate::Rz {
                qubit: q,
                angle: gamma,
            },
            Gate::Ry {
                qubit: q,
                angle: beta,
            },
            Gate::Rz {
                qubit: q,
                angle: alpha,
            },
        ]
        .into_iter()
        .filter(|g| !is_zero_angle(merged_angle(g)))
        .collect();
        if fused.len() < run.len() {
            out.extend(fused);
            true
        } else {
            false
        }
    }

    fn fuse_single_qubit_runs(circuit: &Circuit) -> (Circuit, bool) {
        let n = circuit.num_qubits();
        let mut pending: Vec<Vec<Gate>> = vec![Vec::new(); n];
        let mut out: Vec<Gate> = Vec::with_capacity(circuit.len());
        let mut changed = false;

        for gate in circuit.gates() {
            if gate.is_two_qubit() {
                for &q in gate.qubit_list().as_slice() {
                    changed |= flush_run(&mut pending[q], q, &mut out);
                }
                out.push(*gate);
            } else if matches!(gate, Gate::Rz { .. } | Gate::Rx { .. } | Gate::Ry { .. }) {
                let q = gate.qubit_list().as_slice()[0];
                changed |= flush_run(&mut pending[q], q, &mut out);
                out.push(*gate);
            } else {
                pending[gate.qubit_list().as_slice()[0]].push(*gate);
            }
        }
        for (q, run) in pending.iter_mut().enumerate() {
            changed |= flush_run(run, q, &mut out);
        }

        (Circuit::from_gates(n, out), changed)
    }
}

/// Angle pool with exact negations, so exact-inverse cancellations and
/// zero-sum merges occur, plus the Clifford angles ±π/2 and π.
const ANGLES: [f64; 7] = [0.3, -0.3, 1.1, -1.1, FRAC_PI_2, -FRAC_PI_2, PI];

/// Builds a circuit on `n` qubits from `(kind, a, b, angle)` draws over the
/// full gate set.
fn random_circuit(n: usize, draws: &[(u8, usize, usize, usize)]) -> Circuit {
    let mut c = Circuit::new(n);
    for &(kind, a, b, angle) in draws {
        let q = a % n;
        let r = (q + 1 + b % (n - 1)) % n;
        let angle = ANGLES[angle % ANGLES.len()];
        c.push(match kind % 14 {
            0 => Gate::H(q),
            1 => Gate::S(q),
            2 => Gate::Sdg(q),
            3 => Gate::X(q),
            4 => Gate::Y(q),
            5 => Gate::Z(q),
            6 => Gate::SqrtX(q),
            7 => Gate::SqrtXdg(q),
            8 => Gate::Rz { qubit: q, angle },
            9 => Gate::Rx { qubit: q, angle },
            10 => Gate::Ry { qubit: q, angle },
            11 => Gate::Cx {
                control: q,
                target: r,
            },
            12 => Gate::Cz { a: q, b: r },
            _ => Gate::Swap { a: q, b: r },
        });
    }
    c
}

/// A fixed entangled, non-stabilizer state on which two circuits are
/// compared up to global phase.
fn probe_state(n: usize) -> StateVector {
    let mut prep = Circuit::new(n);
    for q in 0..n {
        prep.ry(q, 0.37 + 0.61 * q as f64);
        prep.rz(q, 0.23 + 0.47 * q as f64);
    }
    for q in 0..n - 1 {
        prep.cx(q, q + 1);
    }
    for q in 0..n {
        prep.rx(q, 0.19 + 0.29 * q as f64);
    }
    StateVector::from_circuit(&prep)
}

fn same_state(a: &Circuit, b: &Circuit) -> bool {
    let mut sa = probe_state(a.num_qubits());
    sa.apply_circuit(a);
    let mut sb = probe_state(b.num_qubits());
    sb.apply_circuit(b);
    sa.approx_eq_up_to_phase(&sb, 1e-9)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn one_pass_preserves_the_unitary_and_never_spends_more_cnots_than_the_oracle(
        n in 2usize..=5,
        draws in prop::collection::vec((0u8..14, 0usize..5, 0usize..4, 0usize..7), 0..=40),
    ) {
        let circuit = random_circuit(n, &draws);
        let optimized = optimize(&circuit);
        let reference = oracle::optimize(&circuit);
        prop_assert!(same_state(&circuit, &optimized), "state changed:\n{circuit}\n→\n{optimized}");
        prop_assert!(same_state(&circuit, &reference), "oracle changed the state");
        prop_assert!(optimized.cnot_count() <= circuit.cnot_count());
        prop_assert!(
            optimized.cnot_count() <= reference.cnot_count(),
            "{} CNOTs, oracle {}:\n{circuit}",
            optimized.cnot_count(),
            reference.cnot_count()
        );
    }
}

/// On every Table II extraction output the one pass spends exactly the
/// oracle's CNOTs, no more gates, and is its own fixpoint.
#[test]
fn table2_extraction_outputs_match_the_oracle() {
    for bench in Benchmark::all() {
        let name = bench.name();
        let raw = extract_clifford(&bench.rotations(), &ExtractionConfig::default()).optimized;
        let optimized = optimize(&raw);
        let reference = oracle::optimize(&raw);
        assert_eq!(
            optimized.cnot_count(),
            reference.cnot_count(),
            "{name}: CNOTs"
        );
        assert!(
            optimized.len() <= reference.len(),
            "{name}: {} gates, oracle {}",
            optimized.len(),
            reference.len()
        );
        assert_eq!(optimize(&optimized), optimized, "{name}: not idempotent");
    }
}

/// On the naive ladders (where cancellation and fusion both fire) the one
/// pass spends no more gates or CNOTs than the oracle.
#[test]
fn naive_ladders_are_no_worse_than_the_oracle() {
    for bench in Benchmark::small_suite() {
        let name = bench.name();
        let naive = synthesize_naive(&bench.rotations());
        let optimized = optimize(&naive);
        let reference = oracle::optimize(&naive);
        assert!(
            optimized.cnot_count() <= reference.cnot_count(),
            "{name}: {} CNOTs, oracle {}",
            optimized.cnot_count(),
            reference.cnot_count()
        );
        assert!(
            optimized.len() <= reference.len(),
            "{name}: {} gates, oracle {}",
            optimized.len(),
            reference.len()
        );
    }
}
