//! Peephole circuit optimization.
//!
//! [`optimize`] plays the role that "Qiskit optimization level 3" plays in
//! the QuCLEAR paper: a local clean-up of synthesized circuits, blind to
//! Pauli-level structure. It is **one forward pass over per-qubit wires**:
//! each incoming gate walks back along its qubits, past the gates it
//! commutes with, to the first gate it cancels or merges with. It cancels
//! gate/inverse pairs, merges same-axis rotations (`S`, `S†` and `Z` merge
//! into an `Rz`), drops zero rotations, and fuses runs of single-qubit
//! Cliffords into at most three Euler rotations (`Rz·Ry·Rz`) when that is
//! shorter, or into nothing when they multiply to the identity.
//!
//! A removal uncovers the gates behind it: the single-qubit Cliffords left at
//! the end of a touched wire reopen into that qubit's run, so the runs on
//! both sides of a cancelled pair fuse as one. That is why one pass suffices,
//! and why the pass has no options: no round count, lookback window or
//! per-rewrite switch.
//!
//! Every structural decision is angle-independent: runs only hold Cliffords
//! and commutation is decided by gate kind. Only zero-angle drops and
//! exact-inverse cancellations look at angle values. A compiled template
//! relies on this when it patches real angles into the pass's output on
//! marker angles.

use std::f64::consts::{FRAC_PI_2, PI};

use crate::gate::QubitList;
use crate::math::{single_qubit_matrix, zyz_decompose, Mat2};
use crate::{Circuit, Gate};

/// Angles within this distance of a multiple of 2π count as zero.
const ANGLE_TOLERANCE: f64 = 1e-10;

/// Optimizes a circuit with one forward peephole pass.
///
/// The result implements the same unitary as the input up to global phase
/// (this is checked end-to-end by the simulator-backed tests in
/// `quclear-sim` and the workspace integration tests).
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
    let n = circuit.num_qubits();
    let mut pass = Pass {
        out: Vec::with_capacity(circuit.len()),
        wires: vec![Vec::new(); n],
        runs: vec![Vec::new(); n],
    };
    for gate in circuit.gates() {
        pass.push(*gate);
    }
    for q in 0..n {
        pass.close(q);
    }
    Circuit::from_gates(n, pass.out.into_iter().flatten().collect())
}

/// Returns `true` when `angle` is within 1e-10 of a multiple of 2π — the
/// exact predicate the peephole uses to drop rotations. Public so that
/// callers patching angles into an optimized skeleton (the engine's template
/// bind path) can pre-check whether a zero-angle rewrite could fire at all.
#[must_use]
pub fn is_zero_rotation(angle: f64) -> bool {
    let two_pi = 2.0 * PI;
    let reduced = angle.rem_euclid(two_pi);
    reduced < ANGLE_TOLERANCE || (two_pi - reduced) < ANGLE_TOLERANCE
}

/// The state of the forward pass.
struct Pass {
    /// Emitted gates; `None` marks a gate a later one cancelled or merged
    /// away.
    out: Vec<Option<Gate>>,
    /// Per qubit, the indices into `out` of its gates, oldest first.
    wires: Vec<Vec<usize>>,
    /// Per qubit, the open run of single-qubit Cliffords not yet emitted;
    /// it follows every gate on the qubit's wire.
    runs: Vec<Vec<Gate>>,
}

impl Pass {
    fn push(&mut self, mut gate: Gate) {
        let qubits = gate.qubit_list();
        let q = qubits.as_slice()[0];
        if let &[a, b] = qubits.as_slice() {
            // Try through the open runs first; closing them (which may fuse
            // them away) only helps when there is a run to close.
            let cancelled = self.cancel_pair(gate, a, b) || {
                let runs_open = !(self.runs[a].is_empty() && self.runs[b].is_empty());
                self.close(a);
                self.close(b);
                runs_open && self.cancel_pair(gate, a, b)
            };
            if cancelled {
                self.reopen(a);
                self.reopen(b);
            } else {
                self.emit(gate);
            }
        } else if is_rotation(&gate) {
            // An Rz takes in the phase gates that end the run, as it would
            // merge with them once they were emitted.
            if let Gate::Rz { angle, .. } = &mut gate {
                let run = &mut self.runs[q];
                let phases = run.iter().rev().take_while(|g| g.is_diagonal()).count();
                let tail = run.drain(run.len() - phases..);
                *angle += tail.filter_map(|g| axis_view(&g)).map(|v| v.2).sum::<f64>();
            }
            self.close(q);
            self.place(gate);
            self.reopen(q);
        } else if self.runs[q].last() == Some(&gate.inverse()) {
            self.runs[q].pop();
        } else if self.runs[q].is_empty() && self.place(gate) {
            self.reopen(q);
        } else {
            self.runs[q].push(gate);
        }
    }

    /// Cancels the two-qubit `gate` on `a` and `b` against the same inverse
    /// gate reached along both wires. Returns whether it did.
    fn cancel_pair(&mut self, gate: Gate, a: usize, b: usize) -> bool {
        let inverse = gate.inverse();
        let hit = |p: &Gate| (*p == inverse).then_some(None);
        match self.walk(a, &gate, hit) {
            Some((i, _)) if self.walk(b, &gate, hit).is_some_and(|(j, _)| j == i) => {
                self.out[i] = None;
                true
            }
            _ => false,
        }
    }

    /// Places a single-qubit gate on a qubit with an empty run: it is dropped
    /// if it is a zero rotation, cancels an exact inverse, or merges into the
    /// first same-axis rotation it reaches. A rotation that does none of
    /// these is emitted; a Clifford is left to the caller. Returns whether
    /// the gate was consumed.
    fn place(&mut self, gate: Gate) -> bool {
        if is_rotation(&gate) && axis_view(&gate).is_some_and(|v| is_zero_rotation(v.2)) {
            return true;
        }
        let q = gate.qubit_list().as_slice()[0];
        let inverse = gate.inverse();
        let found = self
            .walk(q, &gate, |p| (*p == inverse).then_some(None))
            .or_else(|| self.walk(q, &gate, |p| merge(p, &gate)));
        if let Some((i, rewritten)) = found {
            self.out[i] = rewritten;
        } else if is_rotation(&gate) {
            self.emit(gate);
        } else {
            return false;
        }
        true
    }

    /// Walks back along qubit `q`, passing only gates that commute with
    /// `gate`, to the first live gate `meet` rewrites, and returns its index
    /// in `out` with what it becomes. The open run comes first: `gate` must
    /// commute with all of it.
    fn walk(
        &self,
        q: usize,
        gate: &Gate,
        meet: impl Fn(&Gate) -> Option<Option<Gate>>,
    ) -> Option<(usize, Option<Gate>)> {
        if !self.runs[q].iter().all(|r| gates_commute(r, gate)) {
            return None;
        }
        for &i in self.wires[q].iter().rev() {
            let Some(prev) = &self.out[i] else { continue };
            if let Some(rewritten) = meet(prev) {
                return Some((i, rewritten));
            }
            if !gates_commute(prev, gate) {
                return None;
            }
        }
        None
    }

    /// Appends `gate` to the output and to the wires of its qubits.
    fn emit(&mut self, gate: Gate) {
        let index = self.out.len();
        self.out.push(Some(gate));
        for &q in gate.qubit_list().as_slice() {
            self.wires[q].push(index);
        }
    }

    /// Moves the single-qubit Cliffords left at the end of `q`'s wire back
    /// to the front of its open run, so that they fuse with it.
    fn reopen(&mut self, q: usize) {
        let run = &mut self.runs[q];
        let len = run.len();
        while let Some(&i) = self.wires[q].last() {
            match self.out[i] {
                Some(g) if g.is_two_qubit() || is_rotation(&g) => break,
                Some(g) => {
                    run.push(g);
                    self.out[i] = None;
                }
                None => {}
            }
            self.wires[q].pop();
        }
        // The tail was collected newest first; put it oldest first, ahead
        // of the gates already in the run.
        let reopened = run.len() - len;
        run[len..].reverse();
        run.rotate_right(reopened);
    }

    /// Emits `q`'s open run and clears it: fused into at most three Euler
    /// rotations (`Rz·Ry·Rz`) when that is shorter, dropped when it
    /// multiplies to the identity, and as-is otherwise. Fused rotations are
    /// placed like any other rotation.
    fn close(&mut self, q: usize) {
        let mut run = std::mem::take(&mut self.runs[q]);
        match fuse(&run, q) {
            Some(fused) => {
                for gate in fused {
                    self.place(gate);
                }
            }
            None => {
                for &gate in &run {
                    self.emit(gate);
                }
            }
        }
        // Hand the buffer back so the next run on `q` reuses it.
        run.clear();
        self.runs[q] = run;
    }
}

/// Returns `true` for the parameterized rotations `Rz`, `Rx` and `Ry`.
fn is_rotation(gate: &Gate) -> bool {
    matches!(gate, Gate::Rz { .. } | Gate::Rx { .. } | Gate::Ry { .. })
}

/// The rotation view of a gate: `(axis, qubit, angle)` with axis 0, 1, 2
/// for Z, X, Y. `S`, `S†` and `Z` are Z rotations by π/2, −π/2 and π (up to
/// global phase).
fn axis_view(gate: &Gate) -> Option<(u8, usize, f64)> {
    match *gate {
        Gate::Rz { qubit, angle } => Some((0, qubit, angle)),
        Gate::S(q) => Some((0, q, FRAC_PI_2)),
        Gate::Sdg(q) => Some((0, q, -FRAC_PI_2)),
        Gate::Z(q) => Some((0, q, PI)),
        Gate::Rx { qubit, angle } => Some((1, qubit, angle)),
        Gate::Ry { qubit, angle } => Some((2, qubit, angle)),
        _ => None,
    }
}

/// The rotation about `axis` (as in [`axis_view`]).
fn rotation(axis: u8, qubit: usize, angle: f64) -> Gate {
    match axis {
        0 => Gate::Rz { qubit, angle },
        1 => Gate::Rx { qubit, angle },
        _ => Gate::Ry { qubit, angle },
    }
}

/// What `prev` becomes when `gate`, on the same qubit, merges into it
/// (`None` for a zero angle): they merge when they share an axis and at
/// least one is a rotation. Two Cliffords never merge; runs fuse them.
fn merge(prev: &Gate, gate: &Gate) -> Option<Option<Gate>> {
    let (axis, qubit, a) = axis_view(prev)?;
    let (other, _, b) = axis_view(gate)?;
    let merges = axis == other && (is_rotation(prev) || is_rotation(gate));
    merges.then(|| (!is_zero_rotation(a + b)).then(|| rotation(axis, qubit, a + b)))
}

/// Conservative test whether two gates commute; used to walk back past
/// unrelated gates.
fn gates_commute(a: &Gate, b: &Gate) -> bool {
    if a.qubit_list().is_disjoint(b.qubit_list()) {
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
                (*control == cx_control && *target != cx_target)
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

/// The fused form of a single-qubit Clifford run on qubit `q`: `Some` of at
/// most three Euler rotations (none when the run multiplies to the
/// identity) when that is shorter than the run, `None` otherwise.
fn fuse(run: &[Gate], q: usize) -> Option<Vec<Gate>> {
    if run.len() < 2 {
        return None;
    }
    // Multiply matrices in time order: U = g_k · … · g_1.
    let mut u = Mat2::identity();
    for g in run {
        u = single_qubit_matrix(g).mul(&u);
    }
    if u.is_identity_up_to_phase(1e-9) {
        return Some(Vec::new());
    }
    let (alpha, beta, gamma) = zyz_decompose(&u);
    let fused: Vec<Gate> = [(0, gamma), (2, beta), (0, alpha)]
        .into_iter()
        .filter(|&(_, angle)| !is_zero_rotation(angle))
        .map(|(axis, angle)| rotation(axis, q, angle))
        .collect();
    (fused.len() < run.len()).then_some(fused)
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

        // An inverse pair inside a run cancels before the run is closed, so
        // what is left stays as it was instead of fusing into rotations.
        let mut c = Circuit::new(1);
        c.sdg(0);
        c.s(0);
        c.push(Gate::SqrtX(0));
        assert_eq!(optimize(&c).gates(), &[Gate::SqrtX(0)]);
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
    fn cancellation_reopens_the_runs_on_both_sides() {
        // Once the CX pair cancels, the S·H before it and the S·H after it
        // form one four-gate run, which fuses into at most three rotations.
        let mut c = Circuit::new(2);
        c.s(0);
        c.h(0);
        c.cx(0, 1);
        c.cx(0, 1);
        c.s(0);
        c.h(0);
        let opt = optimize(&c);
        assert_eq!(opt.cnot_count(), 0);
        assert!(opt.len() < 4, "{opt}");
    }

    #[test]
    fn closing_a_run_can_clear_the_way_for_a_cancellation() {
        // X·Y on the control blocks the CX pair until the run fuses into a
        // Z rotation, which commutes with the control.
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        c.x(0);
        c.y(0);
        c.cx(0, 1);
        let opt = optimize(&c);
        assert_eq!(opt.cnot_count(), 0);
        assert_eq!(opt.len(), 1);
    }

    #[test]
    fn phase_gates_fold_into_rotations() {
        // S† walks back past the CX control into the Rz.
        let mut c = Circuit::new(2);
        c.rz(0, 0.4);
        c.cx(0, 1);
        c.sdg(0);
        let opt = optimize(&c);
        assert_eq!(opt.len(), 2);
        assert_eq!(
            opt.gates()[0],
            Gate::Rz {
                qubit: 0,
                angle: 0.4 - std::f64::consts::FRAC_PI_2
            }
        );

        // An Rz takes in the phase gates that end its qubit's open run
        // before the run fuses: here Z·Rz(−π) vanishes and X is left.
        let mut c = Circuit::new(1);
        c.x(0);
        c.z(0);
        c.rz(0, -std::f64::consts::PI);
        assert_eq!(optimize(&c).gates(), &[Gate::X(0)]);
    }
}
