//! Peephole circuit optimization.
//!
//! This module plays the role that "Qiskit optimization level 3" plays in the
//! QuCLEAR paper: a local-rewriting clean-up pass applied to synthesized
//! circuits. It is intentionally a *local* optimizer — it cancels inverse
//! pairs (with commutation-aware lookback), merges adjacent rotations and
//! fuses runs of single-qubit gates — and does not understand Pauli-level
//! structure; that is the job of the QuCLEAR core and the baselines.

use crate::gate::QubitList;
use crate::math::{single_qubit_matrix, zyz_decompose, Mat2};
use crate::{Circuit, Gate};

/// Options controlling [`optimize_with`].
#[derive(Clone, Copy, Debug)]
pub struct OptimizeOptions {
    /// Cancel gate/inverse pairs, looking backwards past commuting gates.
    pub cancel_inverses: bool,
    /// Merge adjacent rotations of the same kind on the same qubit.
    pub merge_rotations: bool,
    /// Fuse runs of single-qubit gates into at most three Euler rotations.
    pub fuse_single_qubit: bool,
    /// Maximum number of fixpoint iterations over all passes.
    pub max_passes: usize,
    /// How many earlier gates the cancellation pass may look back through.
    pub lookback: usize,
    /// Angles smaller than this (mod 2π) are treated as zero.
    pub angle_tolerance: f64,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions {
            cancel_inverses: true,
            merge_rotations: true,
            fuse_single_qubit: true,
            max_passes: 8,
            lookback: 128,
            angle_tolerance: 1e-10,
        }
    }
}

/// Optimizes a circuit with the default options.
///
/// The result implements the same unitary as the input (this is checked
/// end-to-end by the simulator-backed tests in `quclear-sim` and the
/// workspace integration tests).
///
/// # Examples
///
/// ```
/// use quclear_circuit::{optimize, Circuit};
///
/// let mut qc = Circuit::new(2);
/// qc.cx(0, 1);
/// qc.cx(0, 1);
/// qc.h(0);
/// qc.h(0);
/// let opt = optimize(&qc);
/// assert!(opt.is_empty());
/// ```
#[must_use]
pub fn optimize(circuit: &Circuit) -> Circuit {
    optimize_with(circuit, &OptimizeOptions::default())
}

/// Optimizes a circuit with explicit options.
#[must_use]
pub fn optimize_with(circuit: &Circuit, options: &OptimizeOptions) -> Circuit {
    let mut current = circuit.clone();
    for _ in 0..options.max_passes {
        let mut changed = false;
        if options.cancel_inverses {
            let (next, c) = cancel_inverse_pairs(&current, options);
            current = next;
            changed |= c;
        }
        if options.merge_rotations {
            let (next, c) = merge_rotations(&current, options);
            current = next;
            changed |= c;
        }
        if options.fuse_single_qubit {
            let (next, c) = fuse_single_qubit_runs(&current, options);
            current = next;
            changed |= c;
        }
        if !changed {
            break;
        }
    }
    current
}

/// Conservative test whether two gates commute; used to look backwards past
/// unrelated gates during cancellation.
fn gates_commute(a: &Gate, b: &Gate) -> bool {
    let qa = a.qubit_list();
    let qb = b.qubit_list();
    if qa.is_disjoint(qb) {
        return true;
    }
    // Both diagonal in the computational basis.
    if a.is_diagonal() && b.is_diagonal() {
        return true;
    }
    // CNOT commutes with diagonal gates on its control and X-like gates on
    // its target; two CNOTs commute when they share only a control or only a
    // target.
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

/// Helper guarding against the CX/CX case where the "other" CNOT's target is
/// our control (those do not commute).
fn qb_overlap(
    other_target: usize,
    my_control: usize,
    other_control: usize,
    my_target: usize,
) -> bool {
    other_target == my_control || other_control == my_target
}

/// Pass 1: cancel gate/inverse pairs, looking backwards through commuting
/// gates. Returns the new circuit and whether anything changed.
fn cancel_inverse_pairs(circuit: &Circuit, options: &OptimizeOptions) -> (Circuit, bool) {
    let gates = circuit.gates();
    let mut live: Vec<Option<Gate>> = gates.iter().copied().map(Some).collect();
    let mut changed = false;

    for i in 0..live.len() {
        let Some(current) = live[i] else { continue };
        // Walk backwards looking for a cancelling partner.
        let mut steps = 0usize;
        let mut j = i;
        while j > 0 && steps < options.lookback {
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

/// The Z-axis "rotation view" of a gate: `Some((qubit, angle, is_rz))` for
/// gates diagonal on one qubit up to global phase (`S = Rz(π/2)`,
/// `S† = Rz(−π/2)`, `Z = Rz(π)`, `Rz`), `None` otherwise.
fn z_axis_view(gate: &Gate) -> Option<(usize, f64, bool)> {
    use std::f64::consts::{FRAC_PI_2, PI};
    match *gate {
        Gate::Rz { qubit, angle } => Some((qubit, angle, true)),
        Gate::S(q) => Some((q, FRAC_PI_2, false)),
        Gate::Sdg(q) => Some((q, -FRAC_PI_2, false)),
        Gate::Z(q) => Some((q, PI, false)),
        _ => None,
    }
}

/// Pass 2: merge adjacent rotations of the same kind on the same qubit and
/// drop rotations with (near-)zero angle. Z-axis Clifford gates (`S`, `S†`,
/// `Z`) merge into adjacent `Rz` gates as fixed-angle rotations — this is
/// what keeps `S·Rz(θ) → Rz(θ+π/2)` working even though parameterized
/// rotations never enter single-qubit fusion runs.
fn merge_rotations(circuit: &Circuit, options: &OptimizeOptions) -> (Circuit, bool) {
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
        if current_is_rz && is_zero_angle(angle, options.angle_tolerance) {
            live[i] = None;
            changed = true;
            continue;
        }
        let mut steps = 0usize;
        let mut j = i;
        while j > 0 && steps < options.lookback {
            j -= 1;
            let Some(prev) = live[j] else { continue };
            steps += 1;
            let merged = match (kind, prev) {
                (0, _) => match z_axis_view(&prev) {
                    // Merge only when an actual Rz is involved: pure
                    // Clifford phase-gate runs belong to the fusion pass.
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
                live[j] = if is_zero_angle(merged_angle(&m), options.angle_tolerance) {
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

/// Returns `true` when `angle` is within `tol` of a multiple of 2π — the
/// exact predicate the peephole uses to drop rotations. Public so that
/// callers replaying peephole fixpoints (the engine's template bind path)
/// can pre-check whether a zero-angle rewrite could fire at all.
#[must_use]
pub fn is_zero_rotation(angle: f64, tol: f64) -> bool {
    let two_pi = 2.0 * std::f64::consts::PI;
    let reduced = angle.rem_euclid(two_pi);
    reduced < tol || (two_pi - reduced) < tol
}

fn is_zero_angle(angle: f64, tol: f64) -> bool {
    is_zero_rotation(angle, tol)
}

/// Emits the pending single-qubit run on qubit `q` into `out` and clears
/// it, fused into at most three Euler rotations (`Rz·Ry·Rz`) when that is
/// shorter, or dropped when it multiplies to the identity. Returns whether
/// the run was rewritten.
fn flush_run(
    run: &mut Vec<Gate>,
    q: usize,
    options: &OptimizeOptions,
    out: &mut Vec<Gate>,
) -> bool {
    let rewritten = run.len() > 1 && fuse_run(run, q, options, out);
    if !rewritten {
        out.append(run);
    }
    run.clear();
    rewritten
}

/// Pushes the fused form of `run` onto `out` and returns `true`, or pushes
/// nothing and returns `false` when fusion would not shorten the run.
fn fuse_run(run: &[Gate], q: usize, options: &OptimizeOptions, out: &mut Vec<Gate>) -> bool {
    // Multiply matrices in time order: U = g_k · … · g_1.
    let mut u = Mat2::identity();
    for g in run {
        u = single_qubit_matrix(g).mul(&u);
    }
    if u.is_identity_up_to_phase(options.angle_tolerance.max(1e-9)) {
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
    .filter(|g| !is_zero_angle(merged_angle(g), options.angle_tolerance))
    .collect();
    if fused.len() < run.len() {
        out.extend(fused);
        true
    } else {
        false
    }
}

/// Pass 3: fuse maximal runs of single-qubit *Clifford* gates into at most
/// three Euler rotations (`Rz·Ry·Rz`), dropping runs that multiply to the
/// identity. Two-qubit gates and parameterized rotations break runs; keeping
/// rotations out makes every fusion decision angle-independent, which is
/// what lets a compiled template patch new angles into its optimized
/// skeleton.
fn fuse_single_qubit_runs(circuit: &Circuit, options: &OptimizeOptions) -> (Circuit, bool) {
    let n = circuit.num_qubits();
    let mut pending: Vec<Vec<Gate>> = vec![Vec::new(); n];
    let mut out: Vec<Gate> = Vec::with_capacity(circuit.len());
    let mut changed = false;

    for gate in circuit.gates() {
        if gate.is_two_qubit() {
            for &q in gate.qubit_list().as_slice() {
                changed |= flush_run(&mut pending[q], q, options, &mut out);
            }
            out.push(*gate);
        } else if matches!(gate, Gate::Rz { .. } | Gate::Rx { .. } | Gate::Ry { .. }) {
            // Parameterized rotations act as run barriers: runs stay
            // Clifford-only. Rotation-rotation simplification is the job of
            // the merge/cancel passes.
            let q = gate.qubit_list().as_slice()[0];
            changed |= flush_run(&mut pending[q], q, options, &mut out);
            out.push(*gate);
        } else {
            pending[gate.qubit_list().as_slice()[0]].push(*gate);
        }
    }
    for (q, run) in pending.iter_mut().enumerate() {
        changed |= flush_run(run, q, options, &mut out);
    }

    (Circuit::from_gates(n, out), changed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancels_adjacent_cx_pairs() {
        let mut c = Circuit::new(3);
        c.cx(0, 1);
        c.cx(0, 1);
        c.cx(1, 2);
        let opt = optimize(&c);
        assert_eq!(opt.cnot_count(), 1);
    }

    #[test]
    fn cancels_through_commuting_gates() {
        // Rz on the control commutes with the CX, so the two CX cancel.
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        c.rz(0, 0.4);
        c.cx(0, 1);
        let opt = optimize(&c);
        assert_eq!(opt.cnot_count(), 0);
        assert_eq!(opt.single_qubit_count(), 1);
    }

    #[test]
    fn does_not_cancel_through_blocking_gates() {
        // H on the control does not commute with CX; nothing may cancel.
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        c.h(0);
        c.cx(0, 1);
        let opt = optimize(&c);
        assert_eq!(opt.cnot_count(), 2);
    }

    #[test]
    fn merges_rotations_and_drops_zero() {
        let mut c = Circuit::new(1);
        c.rz(0, 0.3);
        c.rz(0, -0.3);
        let opt = optimize(&c);
        assert!(opt.is_empty());

        let mut c = Circuit::new(1);
        c.rz(0, 0.25);
        c.rz(0, 0.5);
        let opt = optimize(&c);
        assert_eq!(opt.len(), 1);
        assert_eq!(
            opt.gates()[0],
            Gate::Rz {
                qubit: 0,
                angle: 0.75
            }
        );
    }

    #[test]
    fn fuses_single_qubit_runs() {
        // H S H Sdg H ... collapses to at most 3 rotations.
        let mut c = Circuit::new(1);
        c.h(0);
        c.s(0);
        c.h(0);
        c.sdg(0);
        c.h(0);
        c.s(0);
        let opt = optimize(&c);
        assert!(
            opt.len() <= 3,
            "expected at most 3 gates, got {}",
            opt.len()
        );
    }

    #[test]
    fn fusion_drops_identity_runs() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.h(0);
        c.s(1);
        c.sdg(1);
        let opt = optimize(&c);
        assert!(opt.is_empty());
    }

    #[test]
    fn ladder_cancellation_between_gadgets() {
        // Two identical ZZ gadgets back to back: the inner CX pair cancels.
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        c.rz(1, 0.1);
        c.cx(0, 1);
        c.cx(0, 1);
        c.rz(1, 0.2);
        c.cx(0, 1);
        let opt = optimize(&c);
        assert_eq!(opt.cnot_count(), 2);
        // Once the inner CX pair is gone the two Rz become adjacent and merge.
        assert_eq!(opt.single_qubit_count(), 1);
    }

    #[test]
    fn swap_pairs_cancel() {
        let mut c = Circuit::new(2);
        c.swap(0, 1);
        c.swap(0, 1);
        let opt = optimize(&c);
        assert!(opt.is_empty());
    }

    #[test]
    fn optimize_is_idempotent() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.rz(1, 0.7);
        c.cx(0, 1);
        c.cx(1, 2);
        let once = optimize(&c);
        let twice = optimize(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn custom_options_disable_passes() {
        let mut c = Circuit::new(1);
        c.h(0);
        c.h(0);
        let opts = OptimizeOptions {
            cancel_inverses: false,
            fuse_single_qubit: false,
            merge_rotations: false,
            ..OptimizeOptions::default()
        };
        let opt = optimize_with(&c, &opts);
        assert_eq!(opt.len(), 2);
    }
}
