//! Measurement grouping of Pauli observables.
//!
//! After Clifford Absorption a VQE workload still has to measure one Pauli
//! observable per term. Section VI-A of the paper notes that because Clifford
//! conjugation preserves commutation relations, the transformed observables
//! can be grouped for simultaneous measurement exactly like the originals
//! (citing the O(n³) measurement-reduction technique). This module provides
//! the standard *qubit-wise commuting* (QWC) grouping: observables in one
//! group share a single measurement-basis circuit, so the number of circuit
//! executions drops from one per observable to one per group.
//!
//! It also provides the *general*-commuting composition step: for each group
//! from [`group_commuting_frame`], [`diagonalize_commuting_frame`] synthesizes
//! a Clifford `D = H_A · Phase · CX` that conjugates every member to a signed
//! Z-diagonal Pauli. Its CX/S/CZ prefix only permutes and phases basis
//! states, so a dense state runs `D` as one gather plus `|A|` Hadamard
//! passes ([`GroupDiagonalizer::monomial`]). Appending `D` to the circuit
//! and reading the packed shot planes through the composed affine map —
//! rows are Z-supports, offsets are tracked signs — estimates **all**
//! members of a group from one shot batch via the CA-Post bit-plane kernel
//! [`ShotBatch::parity_expectations`].
//! [`MeasurementPlan`] bundles the full pipeline for an absorbed observable
//! batch.

use std::sync::OnceLock;

use crate::absorb::AbsorbedObservables;
use crate::shots::ShotBatch;
use quclear_circuit::{Circuit, Gate, MonomialMap};
use quclear_pauli::{BitVec, PauliFrame, PauliOp, PauliString, SignedPauli};
use quclear_tableau::conjugate_all_by_gate;

/// A group of qubit-wise commuting observables together with the shared
/// measurement basis.
#[derive(Clone, Debug)]
pub struct MeasurementGroup {
    /// Indices (into the original observable list) of the group's members.
    pub members: Vec<usize>,
    /// Per-qubit measurement basis: the non-identity operator measured on
    /// each qubit (identity where no member touches the qubit).
    pub basis: PauliString,
}

/// Returns `true` if two Pauli strings commute *qubit-wise*: on every qubit
/// their operators are equal or at least one is the identity.
#[must_use]
pub fn qubit_wise_commute(a: &PauliString, b: &PauliString) -> bool {
    a.ops().all(|(q, op_a)| {
        let op_b = b.op(q);
        op_a.is_identity() || op_b.is_identity() || op_a == op_b
    })
}

/// Greedily partitions observables into qubit-wise commuting groups
/// (first-fit on the shared basis). Observables within one group can be
/// estimated from the same set of measurement shots.
///
/// # Examples
///
/// ```
/// use quclear_core::group_qubitwise_commuting;
/// use quclear_pauli::SignedPauli;
///
/// let observables: Vec<SignedPauli> =
///     vec!["ZZI".parse()?, "ZIZ".parse()?, "XXI".parse()?];
/// let groups = group_qubitwise_commuting(&observables);
/// assert_eq!(groups.len(), 2); // {ZZI, ZIZ} and {XXI}
/// # Ok::<(), quclear_pauli::ParsePauliError>(())
/// ```
#[must_use]
pub fn group_qubitwise_commuting(observables: &[SignedPauli]) -> Vec<MeasurementGroup> {
    let mut groups: Vec<MeasurementGroup> = Vec::new();
    for (idx, observable) in observables.iter().enumerate() {
        let pauli = observable.pauli();
        let slot = groups.iter_mut().find(|g| compatible(&g.basis, pauli));
        match slot {
            Some(group) => {
                merge_into_basis(&mut group.basis, pauli);
                group.members.push(idx);
            }
            None => groups.push(MeasurementGroup {
                members: vec![idx],
                basis: pauli.clone(),
            }),
        }
    }
    groups
}

/// Greedily partitions Pauli strings into *generally* commuting sets:
/// first-fit into the first group whose every member commutes with the
/// candidate. The pairwise test is the bitwise symplectic product
/// (`x_a·z_b ⊕ z_a·x_b` as two AND-popcount parities over the packed
/// symplectic words), so each comparison costs `O(n/64)` word operations.
///
/// General commutation is strictly coarser than qubit-wise commutation
/// (`ZZ` and `XX` commute globally but not qubit-wise), so these groups are
/// never more numerous than [`group_qubitwise_commuting`]'s — at the price
/// of needing an entangling basis-change circuit per group to measure.
///
/// # Examples
///
/// ```
/// use quclear_core::group_commuting;
/// use quclear_pauli::PauliString;
///
/// let paulis: Vec<PauliString> = vec!["ZZ".parse()?, "XX".parse()?, "XI".parse()?];
/// // ZZ and XX commute; XI anticommutes with ZZ.
/// assert_eq!(group_commuting(&paulis), vec![vec![0, 1], vec![2]]);
/// # Ok::<(), quclear_pauli::ParsePauliError>(())
/// ```
#[must_use]
pub fn group_commuting(paulis: &[PauliString]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (idx, pauli) in paulis.iter().enumerate() {
        let slot = groups
            .iter_mut()
            .find(|g| g.iter().all(|&m| paulis[m].commutes_with(pauli)));
        match slot {
            Some(group) => group.push(idx),
            None => groups.push(vec![idx]),
        }
    }
    groups
}

/// [`group_commuting`] over the rows of a [`PauliFrame`] (e.g. a CA-Pre
/// rewritten observable batch); signs are irrelevant to commutation and are
/// ignored.
#[must_use]
pub fn group_commuting_frame(frame: &PauliFrame) -> Vec<Vec<usize>> {
    let paulis: Vec<PauliString> = (0..frame.num_rows()).map(|i| frame.row_pauli(i)).collect();
    group_commuting(&paulis)
}

/// A Clifford circuit `D` that conjugates every row of a mutually commuting
/// [`PauliFrame`] to a signed Z-diagonal Pauli, together with the composed
/// classical readout map.
///
/// Appending [`Self::circuit`] to a state-preparation circuit and measuring
/// in the computational basis turns every member `P_i` of the group into a
/// parity observable: `⟨P_i⟩ = s_i · E[(-1)^{⟨m_i, shot⟩}]` where `m_i` is
/// the Z-support of `D·P_i·D†` ([`Self::z_support`]) and `s_i = ±1` its
/// tracked sign ([`Self::sign`]). The signs compose the input frame's signs
/// (e.g. CA-Pre absorption signs) with the conjugation phases picked up
/// during diagonalization, so [`Self::expectations`] reports expectations of
/// the *original* observables directly.
///
/// `D` has the canonical form `H_A · M`: a monomial prefix `M` of CX, S and
/// CZ gates ([`Self::monomial_prefix`]) followed by one `H` on each qubit of
/// `A` ([`Self::hadamard_qubits`]), where `|A|` is the GF(2) rank of the
/// rows' X-part. A dense state therefore runs `D` as one gather
/// ([`Self::monomial`]) plus `|A|` Hadamard passes.
#[derive(Clone, Debug)]
pub struct GroupDiagonalizer {
    circuit: Circuit,
    hadamards: Vec<usize>,
    monomial: OnceLock<MonomialMap>,
    diagonal: PauliFrame,
    z_supports: Vec<BitVec>,
}

/// Synthesizes a diagonalizing Clifford `D = H_A · Phase · CX` for a frame
/// of mutually commuting Pauli rows.
///
/// 1. **CX**: Gaussian elimination of the rows' X-part by column
///    operations. A row whose X-part reaches a qubit `p` that is not yet a
///    pivot takes the first such qubit as its pivot, and CXs from `p` onto
///    every other qubit of its X-part make that X-part exactly `e_p`
///    (earlier pivot rows have no X at `p`, so they keep theirs). The
///    pivots `A` number the GF(2) rank of the X-part.
/// 2. **Phase**: the pivot rows' Z-part restricted to `A` is a symmetric
///    matrix (the rows commute); an `S` clears each diagonal one and a `CZ`
///    each off-diagonal pair.
/// 3. **H** on every pivot. Pivot rows are now `X_p` times Z's off `A`, and
///    every other row has its X-part inside `A` and, commuting with the
///    pivot rows, no Z on `A`; the `H` layer turns all of them Z-diagonal.
///
/// # Panics
///
/// Panics if any two rows anticommute (no common eigenbasis exists), or —
/// defensively — if the sweep fails to reach a fully Z-diagonal frame.
#[must_use]
pub fn diagonalize_commuting_frame(frame: &PauliFrame) -> GroupDiagonalizer {
    let n = frame.num_qubits();
    let rows = frame.num_rows();
    let paulis: Vec<PauliString> = (0..rows).map(|i| frame.row_pauli(i)).collect();
    for i in 0..rows {
        for j in (i + 1)..rows {
            assert!(
                paulis[i].commutes_with(&paulis[j]),
                "diagonalize_commuting_frame: rows {i} and {j} anticommute"
            );
        }
    }
    let mut work = frame.clone();
    let mut circuit = Circuit::new(n);
    let emit = |work: &mut PauliFrame, circuit: &mut Circuit, gate: Gate| {
        conjugate_all_by_gate(work, &gate);
        circuit.push(gate);
    };
    // (pivot qubit, its row), in elimination order.
    let mut pivots: Vec<(usize, usize)> = Vec::new();
    let mut is_pivot = vec![false; n];
    for i in 0..rows {
        let x_support = work.row_x_support(i);
        let Some(pivot) = (0..n).find(|&q| x_support.get(q) && !is_pivot[q]) else {
            continue; // X-part already spanned by the pivots so far
        };
        for q in (0..n).filter(|&q| q != pivot && x_support.get(q)) {
            emit(
                &mut work,
                &mut circuit,
                Gate::Cx {
                    control: pivot,
                    target: q,
                },
            );
        }
        is_pivot[pivot] = true;
        pivots.push((pivot, i));
    }
    for (k, &(p, i)) in pivots.iter().enumerate() {
        if work.z_plane(p).get(i) {
            emit(&mut work, &mut circuit, Gate::S(p));
        }
        for &(other, _) in &pivots[k + 1..] {
            if work.z_plane(other).get(i) {
                emit(&mut work, &mut circuit, Gate::Cz { a: p, b: other });
            }
        }
    }
    for &(p, _) in &pivots {
        emit(&mut work, &mut circuit, Gate::H(p));
    }
    for q in 0..n {
        assert_eq!(
            work.x_plane(q).count_ones(),
            0,
            "diagonalization sweep left X-support on qubit {q}"
        );
    }
    let z_supports: Vec<BitVec> = (0..rows).map(|i| work.row_z_support(i)).collect();
    GroupDiagonalizer {
        circuit,
        hadamards: pivots.iter().map(|&(p, _)| p).collect(),
        monomial: OnceLock::new(),
        diagonal: work,
        z_supports,
    }
}

impl GroupDiagonalizer {
    /// Register width in qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.diagonal.num_qubits()
    }

    /// Number of diagonalized rows (group members).
    #[must_use]
    pub fn len(&self) -> usize {
        self.diagonal.num_rows()
    }

    /// `true` if the group has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The diagonalizing Clifford circuit `D`; append it to the
    /// state-preparation circuit before sampling computational-basis shots.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The gates of `D` before its Hadamard layer: CX, S and CZ only, so
    /// they permute and phase basis states.
    #[must_use]
    pub fn monomial_prefix(&self) -> &[Gate] {
        let gates = self.circuit.gates();
        &gates[..gates.len() - self.hadamards.len()]
    }

    /// The qubits `A` of `D`'s closing Hadamard layer, one per pivot; `|A|`
    /// is the GF(2) rank of the group's X-part.
    #[must_use]
    pub fn hadamard_qubits(&self) -> &[usize] {
        &self.hadamards
    }

    /// [`Self::monomial_prefix`] as a gather map, built on first use and
    /// kept with the diagonalizer (and so with a cached plan).
    ///
    /// # Panics
    ///
    /// Panics if the register is wider than 30 qubits.
    #[must_use]
    pub fn monomial(&self) -> &MonomialMap {
        self.monomial
            .get_or_init(|| MonomialMap::from_gates(self.num_qubits(), self.monomial_prefix()))
    }

    /// Dense passes to run `D` on a state vector: one gather plus one per
    /// Hadamard.
    #[must_use]
    pub fn dense_passes(&self) -> usize {
        1 + self.hadamards.len()
    }

    /// The qubit parity mask of diagonalized row `i` — the row of the
    /// composed affine readout map for member `i`.
    #[must_use]
    pub fn z_support(&self, i: usize) -> &BitVec {
        &self.z_supports[i]
    }

    /// All parity masks, in member order.
    #[must_use]
    pub fn z_supports(&self) -> &[BitVec] {
        &self.z_supports
    }

    /// The composed sign of member `i` as `±1.0` (input-frame sign times
    /// conjugation phase).
    #[must_use]
    pub fn sign(&self, i: usize) -> f64 {
        if self.diagonal.sign(i) {
            -1.0
        } else {
            1.0
        }
    }

    /// Estimates every member of the group from a single packed shot batch
    /// (shots sampled after appending [`Self::circuit`]), using the fused
    /// XOR-popcount plane kernel. Entry `i` estimates `⟨P_i⟩` of original
    /// member `i`, signs included.
    ///
    /// # Panics
    ///
    /// Panics if the batch register width differs from the group's.
    #[must_use]
    pub fn expectations(&self, shots: &ShotBatch) -> Vec<f64> {
        assert_eq!(
            shots.num_qubits(),
            self.num_qubits(),
            "shot batch register width must match the diagonalized group"
        );
        let raw = shots.parity_expectations(&self.z_supports);
        raw.into_iter()
            .enumerate()
            .map(|(i, e)| self.sign(i) * e)
            .collect()
    }
}

/// One general-commuting group of a [`MeasurementPlan`]: the member indices
/// into the original observable list plus the group's diagonalizer.
#[derive(Clone, Debug)]
pub struct PlannedGroup {
    members: Vec<usize>,
    diagonalizer: GroupDiagonalizer,
}

impl PlannedGroup {
    /// Indices (into the plan's observable list) of the group's members.
    #[must_use]
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// The group's diagonalizing Clifford and composed readout map.
    #[must_use]
    pub fn diagonalizer(&self) -> &GroupDiagonalizer {
        &self.diagonalizer
    }
}

/// The end-to-end measurement-reduction plan for an observable batch:
/// general-commuting groups, one diagonalizing Clifford per group, and the
/// composed affine readout maps. One shot batch per *group* (instead of per
/// *observable*) estimates everything — the shot-budget divisor is
/// `observables / groups`.
///
/// # Examples
///
/// ```
/// use quclear_core::{diagonalize_commuting_frame, MeasurementPlan};
/// use quclear_pauli::{PauliFrame, SignedPauli};
///
/// let rows: Vec<SignedPauli> = vec!["ZZ".parse()?, "XX".parse()?, "-YY".parse()?];
/// let plan = MeasurementPlan::from_frame(&PauliFrame::from_signed(2, &rows));
/// assert_eq!(plan.num_groups(), 1); // ZZ, XX, YY mutually commute
/// assert_eq!(plan.shot_budget_divisor(), 3.0);
/// # Ok::<(), quclear_pauli::ParsePauliError>(())
/// ```
#[derive(Clone, Debug)]
pub struct MeasurementPlan {
    num_qubits: usize,
    num_observables: usize,
    groups: Vec<PlannedGroup>,
}

impl MeasurementPlan {
    /// Builds the plan for the rows of a [`PauliFrame`] (signs included):
    /// greedy general-commuting grouping via [`group_commuting_frame`], then
    /// one [`diagonalize_commuting_frame`] pass per group.
    #[must_use]
    pub fn from_frame(frame: &PauliFrame) -> Self {
        let groups = group_commuting_frame(frame)
            .into_iter()
            .map(|members| {
                let sub = frame.select_rows(&members);
                PlannedGroup {
                    diagonalizer: diagonalize_commuting_frame(&sub),
                    members,
                }
            })
            .collect();
        MeasurementPlan {
            num_qubits: frame.num_qubits(),
            num_observables: frame.num_rows(),
            groups,
        }
    }

    /// Builds the plan for a CA-Pre absorbed observable batch; the absorbed
    /// frame's signs flow into the diagonalizers, so estimates report
    /// expectations of the *original* (pre-absorption) observables.
    #[must_use]
    pub fn from_absorbed(absorbed: &AbsorbedObservables) -> Self {
        Self::from_frame(absorbed.frame())
    }

    /// Register width in qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of observables covered by the plan.
    #[must_use]
    pub fn num_observables(&self) -> usize {
        self.num_observables
    }

    /// Number of general-commuting groups — the number of distinct shot
    /// batches needed.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// The planned groups in estimation order.
    #[must_use]
    pub fn groups(&self) -> &[PlannedGroup] {
        &self.groups
    }

    /// Dense state-vector passes to run every group's diagonalizer: the sum
    /// of [`GroupDiagonalizer::dense_passes`], one gather plus `|A|`
    /// Hadamard passes per group.
    #[must_use]
    pub fn dense_passes(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.diagonalizer.dense_passes())
            .sum()
    }

    /// How many times fewer shot batches the plan needs compared to
    /// per-observable estimation: `observables / groups` (`1.0` for an empty
    /// plan).
    #[must_use]
    pub fn shot_budget_divisor(&self) -> f64 {
        if self.groups.is_empty() {
            1.0
        } else {
            self.num_observables as f64 / self.groups.len() as f64
        }
    }

    /// Estimates every observable from one packed shot batch per group
    /// (`group_shots[g]` sampled after appending group `g`'s diagonalizer
    /// circuit), scattering per-group expectations back to original
    /// observable order.
    ///
    /// # Panics
    ///
    /// Panics if the batch count differs from [`Self::num_groups`] or any
    /// batch's register width differs from the plan's.
    #[must_use]
    pub fn estimate(&self, group_shots: &[ShotBatch]) -> Vec<f64> {
        assert_eq!(
            group_shots.len(),
            self.groups.len(),
            "need exactly one shot batch per commuting group"
        );
        let mut out = vec![0.0; self.num_observables];
        for (group, shots) in self.groups.iter().zip(group_shots) {
            let expectations = group.diagonalizer.expectations(shots);
            for (&member, value) in group.members.iter().zip(expectations) {
                out[member] = value;
            }
        }
        out
    }
}

/// A Pauli is compatible with a group basis if it is qubit-wise consistent
/// with it (equal or identity on every qubit).
fn compatible(basis: &PauliString, pauli: &PauliString) -> bool {
    qubit_wise_commute(basis, pauli)
}

fn merge_into_basis(basis: &mut PauliString, pauli: &PauliString) {
    for (q, op) in pauli.ops() {
        if basis.op(q) == PauliOp::I && !op.is_identity() {
            basis.set_op(q, op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(strings: &[&str]) -> Vec<SignedPauli> {
        strings.iter().map(|s| s.parse().unwrap()).collect()
    }

    #[test]
    fn qubit_wise_commutation_examples() {
        let a: PauliString = "ZZI".parse().unwrap();
        assert!(qubit_wise_commute(&a, &"ZIZ".parse().unwrap()));
        assert!(qubit_wise_commute(&a, &"IZI".parse().unwrap()));
        assert!(!qubit_wise_commute(&a, &"XZI".parse().unwrap()));
        // ZZ and XX commute globally but NOT qubit-wise.
        assert!(!qubit_wise_commute(
            &"ZZ".parse().unwrap(),
            &"XX".parse().unwrap()
        ));
    }

    #[test]
    fn grouping_reduces_measurement_count() {
        let observables = obs(&["ZIII", "IZII", "ZZII", "IIZZ", "XXII", "IIXX", "XXXX"]);
        let groups = group_qubitwise_commuting(&observables);
        // All-Z observables share one group; the X observables share another.
        assert!(groups.len() <= 3);
        let covered: usize = groups.iter().map(|g| g.members.len()).sum();
        assert_eq!(covered, observables.len());
    }

    #[test]
    fn group_members_are_all_consistent_with_the_basis() {
        let observables = obs(&["ZZI", "ZIZ", "IZZ", "XIX", "IYY", "XXI"]);
        let groups = group_qubitwise_commuting(&observables);
        for group in &groups {
            for &member in &group.members {
                assert!(
                    qubit_wise_commute(&group.basis, observables[member].pauli()),
                    "member {member} incompatible with basis {}",
                    group.basis
                );
            }
        }
    }

    #[test]
    fn single_observable_is_its_own_group() {
        let observables = obs(&["XYZ"]);
        let groups = group_qubitwise_commuting(&observables);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].basis.to_string(), "XYZ");
        let circuit = crate::basis_change_circuit(3, &groups[0].basis);
        assert_eq!(circuit.len(), (1 + 2));
    }

    #[test]
    fn grouping_transformed_observables_matches_grouping_originals_in_size() {
        // Clifford conjugation preserves qubit counts and commutation, so the
        // number of groups of the absorbed observables stays comparable.
        use quclear_circuit::Circuit;
        use quclear_tableau::CliffordTableau;
        let observables = obs(&["ZZII", "IZZI", "IIZZ", "XXII", "IXXI", "IIXX"]);
        let mut clifford = Circuit::new(4);
        clifford.cx(0, 1);
        clifford.cx(2, 3);
        clifford.h(1);
        let map = CliffordTableau::heisenberg_from_circuit(&clifford);
        let transformed: Vec<SignedPauli> =
            observables.iter().map(|o| map.apply_signed(o)).collect();
        let before = group_qubitwise_commuting(&observables).len();
        let after = group_qubitwise_commuting(&transformed).len();
        assert!(after <= observables.len());
        assert!(before <= observables.len());
    }

    #[test]
    fn empty_input_gives_no_groups() {
        assert!(group_qubitwise_commuting(&[]).is_empty());
        assert!(group_commuting(&[]).is_empty());
    }

    #[test]
    fn general_commuting_groups_are_valid_and_cover() {
        let paulis: Vec<PauliString> = ["ZZII", "XXII", "YYII", "ZIII", "IIZZ", "IIXX", "XYZI"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let groups = group_commuting(&paulis);
        let covered: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(covered, paulis.len());
        for group in &groups {
            for (a, &i) in group.iter().enumerate() {
                for &j in &group[a + 1..] {
                    assert!(
                        paulis[i].commutes_with(&paulis[j]),
                        "group members {i} and {j} must commute"
                    );
                }
            }
        }
        // ZZ/XX/YY on the first pair all mutually commute: one group.
        assert!(groups[0].len() >= 3);
    }

    #[test]
    fn general_groups_never_outnumber_qubitwise_groups() {
        let observables = obs(&["ZZII", "XXII", "IZZI", "IXXI", "YIYI", "ZIIZ"]);
        let paulis: Vec<PauliString> = observables.iter().map(|o| o.pauli().clone()).collect();
        let general = group_commuting(&paulis).len();
        let qubitwise = group_qubitwise_commuting(&observables).len();
        assert!(general <= qubitwise, "{general} > {qubitwise}");
    }

    fn frame(strings: &[&str]) -> PauliFrame {
        let rows: Vec<SignedPauli> = strings.iter().map(|s| s.parse().unwrap()).collect();
        PauliFrame::from_signed(rows[0].num_qubits(), &rows)
    }

    fn is_z_diagonal(p: &SignedPauli) -> bool {
        (0..p.num_qubits()).all(|q| matches!(p.pauli().op(q), PauliOp::I | PauliOp::Z))
    }

    #[test]
    fn diagonalizer_maps_every_row_to_signed_z() {
        use quclear_tableau::CliffordTableau;
        let input = frame(&["ZZ", "XX", "-YY"]);
        let diag = diagonalize_commuting_frame(&input);
        assert_eq!(diag.len(), 3);
        let tableau = CliffordTableau::from_circuit(diag.circuit());
        for i in 0..diag.len() {
            let row = diag.diagonal.get(i);
            assert!(is_z_diagonal(&row), "row {i} not Z-diagonal: {row}");
            // Cross-check the frame conjugation against the tableau path.
            assert_eq!(row, tableau.apply_signed(&input.get(i)), "row {i}");
        }
    }

    #[test]
    fn pure_z_frame_needs_no_gates() {
        let diag = diagonalize_commuting_frame(&frame(&["ZZI", "-IZZ", "ZIZ"]));
        assert_eq!(diag.circuit().len(), 0);
        assert_eq!(diag.sign(0), 1.0);
        assert_eq!(diag.sign(1), -1.0);
    }

    #[test]
    #[should_panic(expected = "anticommute")]
    fn diagonalizer_rejects_anticommuting_rows() {
        let _ = diagonalize_commuting_frame(&frame(&["XI", "ZI"]));
    }

    #[test]
    fn plan_groups_cover_and_divide_the_shot_budget() {
        let plan = MeasurementPlan::from_frame(&frame(&["ZZII", "XXII", "YYII", "XZII", "IIZZ"]));
        let covered: usize = plan.groups().iter().map(|g| g.members().len()).sum();
        assert_eq!(covered, plan.num_observables());
        assert!(plan.num_groups() < plan.num_observables());
        assert!(plan.shot_budget_divisor() > 1.0);
    }

    #[test]
    fn more_members_than_qubits_still_estimates() {
        // Five dependent Z-diagonal members on two qubits: the readout has
        // more parity rows than qubits.
        let diag = diagonalize_commuting_frame(&frame(&["ZI", "IZ", "ZZ", "-ZI", "-ZZ"]));
        let shots = ShotBatch::from_indices(2, &[0, 1, 2, 3, 1, 0, 2]);
        let expectations = diag.expectations(&shots);
        assert_eq!(expectations.len(), 5);
        assert_eq!(expectations[0], -expectations[3]);
        assert_eq!(expectations[2], -expectations[4]);
    }

    #[test]
    fn frame_grouping_matches_string_grouping() {
        let rows: Vec<SignedPauli> = ["ZZI", "-XXI", "IZZ", "XYZ", "-IIZ"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let frame = PauliFrame::from_signed(3, &rows);
        let paulis: Vec<PauliString> = rows.iter().map(|r| r.pauli().clone()).collect();
        assert_eq!(group_commuting_frame(&frame), group_commuting(&paulis));
    }
}
