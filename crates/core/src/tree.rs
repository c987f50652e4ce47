//! Recursive CNOT-tree synthesis (Algorithm 1 of the QuCLEAR paper).
//!
//! Given the support of the current (basis-changed) Pauli rotation, the
//! synthesizer picks a CNOT parity tree whose extraction maximally simplifies
//! the *following* Pauli strings: qubits are grouped by the next Pauli's
//! operator (I/X/Y/Z subtrees), subtrees are synthesized recursively using the
//! Pauli after next, and subtree roots are connected with CNOTs chosen by the
//! Table-I reduction rules.

use std::fmt;
use std::ops::Range;

use quclear_circuit::Gate;
use quclear_pauli::{PauliFrame, PauliOp, PauliString};

/// Read-only access to the lookahead window of updated Pauli images.
///
/// The synthesizer only ever inspects single operators of the lookahead
/// strings, so the source can serve them straight out of a column-major
/// [`PauliFrame`] without materializing any string — the hot path during
/// extraction. A plain slice of strings also works (tests, benches).
pub trait LookaheadOps {
    /// Number of lookahead strings available.
    fn lookahead_len(&self) -> usize;
    /// Register size the lookahead strings act on.
    fn num_qubits(&self) -> usize;
    /// Operator of lookahead string `d` at `qubit`.
    fn op_at(&self, d: usize, qubit: usize) -> PauliOp;
}

impl LookaheadOps for [PauliString] {
    fn lookahead_len(&self) -> usize {
        self.len()
    }

    fn num_qubits(&self) -> usize {
        self.first().map_or(0, PauliString::num_qubits)
    }

    fn op_at(&self, d: usize, qubit: usize) -> PauliOp {
        self[d].op(qubit)
    }
}

/// A lookahead window served directly from a [`PauliFrame`]: entry `d` is
/// the frame row `rows[d]`.
#[derive(Debug, Clone, Copy)]
pub struct FrameLookahead<'a> {
    frame: &'a PauliFrame,
    rows: &'a [usize],
}

impl<'a> FrameLookahead<'a> {
    /// Creates a window over `rows` of `frame`.
    #[must_use]
    pub fn new(frame: &'a PauliFrame, rows: &'a [usize]) -> Self {
        FrameLookahead { frame, rows }
    }
}

impl LookaheadOps for FrameLookahead<'_> {
    fn lookahead_len(&self) -> usize {
        self.rows.len()
    }

    fn num_qubits(&self) -> usize {
        self.frame.num_qubits()
    }

    fn op_at(&self, d: usize, qubit: usize) -> PauliOp {
        self.frame.op(self.rows[d], qubit)
    }
}

/// CNOT-tree synthesizer for one Pauli rotation.
///
/// Lookahead entry `0` is the Pauli string immediately following the current
/// rotation (in the already-reordered sequence), entry `1` the one after
/// it, and so on — **already conjugated** through the Heisenberg map of
/// everything extracted so far *including* the current rotation's
/// single-qubit basis layer (the paper's `update_pauli(P, extr_clf)`). The
/// extraction engine maintains these images incrementally in a
/// [`PauliFrame`] and serves them through the internal `FrameLookahead`
/// [`LookaheadOps`] source, so the
/// synthesizer never re-simulates the extracted Clifford.
pub struct TreeSynthesizer<'a, L: LookaheadOps + ?Sized> {
    lookahead: &'a L,
    recursive: bool,
}

impl<L: LookaheadOps + ?Sized> fmt::Debug for TreeSynthesizer<'_, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TreeSynthesizer")
            .field("lookahead_len", &self.lookahead.lookahead_len())
            .field("recursive", &self.recursive)
            .finish()
    }
}

impl<'a, L: LookaheadOps + ?Sized> TreeSynthesizer<'a, L> {
    /// Creates a synthesizer over already-updated lookahead images.
    #[must_use]
    pub fn new(lookahead: &'a L, recursive: bool) -> Self {
        TreeSynthesizer {
            lookahead,
            recursive,
        }
    }

    /// Synthesizes the CNOT tree over `support` (the qubits carrying
    /// non-identity operators of the current rotation after basis change).
    ///
    /// Returns the CNOT gates in execution order and the root qubit (where
    /// the `Rz` rotation is placed). For a single-qubit support no gates are
    /// emitted.
    ///
    /// # Panics
    ///
    /// Panics if `support` is empty.
    #[must_use]
    pub fn synthesize(&self, support: &[usize]) -> (Vec<Gate>, usize) {
        let mut gates = Vec::new();
        let root = self.synthesize_into(support, &mut TreeScratch::default(), &mut gates);
        (gates, root)
    }

    /// [`Self::synthesize`] over reusable buffers: appends the tree's CNOTs
    /// to `gates` and returns the root, allocating nothing once `scratch`
    /// and `gates` have grown to the largest tree seen.
    ///
    /// # Panics
    ///
    /// Panics if `support` is empty.
    pub(crate) fn synthesize_into(
        &self,
        support: &[usize],
        scratch: &mut TreeScratch,
        gates: &mut Vec<Gate>,
    ) -> usize {
        assert!(
            !support.is_empty(),
            "cannot synthesize a tree over an empty support"
        );
        scratch.arena.clear();
        scratch.arena.extend_from_slice(support);
        let n = self.lookahead.num_qubits();
        if scratch.live.len() < n {
            scratch.live.resize(n, PauliOp::I);
        }
        self.synth_rec(0..support.len(), 0, scratch, gates)
    }

    /// Synthesizes the subtree over the qubits `scratch.arena[range]`.
    fn synth_rec(
        &self,
        range: Range<usize>,
        depth: usize,
        scratch: &mut TreeScratch,
        gates: &mut Vec<Gate>,
    ) -> usize {
        if range.len() == 1 {
            return scratch.arena[range.start];
        }
        if (!self.recursive && depth > 0) || depth >= self.lookahead.lookahead_len() {
            // No further Pauli to optimize for: any tree is as good as any
            // other; use a simple chain.
            return chain(&scratch.arena[range], gates);
        }
        let start = gates.len();

        // Step 1: a stable counting partition of the qubits by the next
        // Pauli's operator into contiguous Z, I, Y, X groups appended to the
        // arena, each in input order. Each operator is read once and parked
        // in the live row until its qubit is placed.
        let base = scratch.arena.len();
        let mut sizes = [0usize; 4];
        for i in range.clone() {
            let q = scratch.arena[i];
            let op = self.lookahead.op_at(depth, q);
            scratch.live[q] = op;
            sizes[group_of(op)] += 1;
        }
        let mut next = [base; 4];
        let mut group_ends = [base; 4];
        let mut end = base;
        for g in 0..4 {
            next[g] = end;
            end += sizes[g];
            group_ends[g] = end;
        }
        scratch.arena.resize(end, 0);
        for i in range {
            let q = scratch.arena[i];
            let slot = &mut next[group_of(scratch.live[q])];
            scratch.arena[*slot] = q;
            *slot += 1;
        }

        // Step 2: synthesize each subtree (recursively, using the Pauli after
        // next to order the qubits inside the subtree).
        let mut roots = [0usize; 4];
        let mut remaining = 0;
        let mut group_start = base;
        for end in group_ends {
            let group = group_start..end;
            group_start = end;
            roots[remaining] = match group.len() {
                0 => continue,
                1 => scratch.arena[group.start],
                _ if self.recursive => self.synth_rec(group, depth + 1, scratch, gates),
                _ => chain(&scratch.arena[group], gates),
            };
            remaining += 1;
        }

        // Step 3: connect the subtree roots, greedily choosing the
        // (control, target) pairs that most reduce the next Pauli (Table I).
        // The operators at the roots are the next Pauli conjugated through
        // this node's own subtrees, `gates[start..]`, which act only on the
        // node's qubits. Earlier gates belong to other branches, on disjoint
        // qubits, so they cannot reach these roots. The live view is a dense
        // phase-free row updated with the two-operator CX rule; a deeper
        // level may have overwritten it, so each qubit is reset to its
        // group's operator rather than read again.
        let live = &mut scratch.live;
        let mut group_start = base;
        for (op, end) in GROUP_OPS.into_iter().zip(group_ends) {
            for &q in &scratch.arena[group_start..end] {
                live[q] = op;
            }
            group_start = end;
        }
        for gate in &gates[start..] {
            apply_cx(live, gate);
        }
        while remaining > 1 {
            let mut best: Option<(usize, usize, i32)> = None;
            for (ci, &control) in roots[..remaining].iter().enumerate() {
                for (ti, &target) in roots[..remaining].iter().enumerate() {
                    if ci == ti {
                        continue;
                    }
                    let (oc, ot) = (live[control], live[target]);
                    let (nc, nt) = cx_images(oc, ot);
                    let before_weight = weight_of(oc) + weight_of(ot);
                    let after_weight = weight_of(nc) + weight_of(nt);
                    let reduction = before_weight as i32 - after_weight as i32;
                    if best.is_none_or(|(_, _, r)| reduction > r) {
                        best = Some((ci, target, reduction));
                    }
                }
            }
            let (ci, target, _) = best.expect("at least two roots remain");
            let control = roots[ci];
            (live[control], live[target]) = cx_images(live[control], live[target]);
            gates.push(Gate::Cx { control, target });
            // Ordered removal of the control.
            roots[ci..remaining].rotate_left(1);
            remaining -= 1;
        }
        scratch.arena.truncate(base);
        roots[0]
    }
}

/// The order of a node's subtrees: qubits grouped by the next Pauli's
/// operator.
pub(crate) const GROUP_OPS: [PauliOp; 4] = [PauliOp::Z, PauliOp::I, PauliOp::Y, PauliOp::X];

/// The index of `op`'s group in [`GROUP_OPS`].
#[inline]
fn group_of(op: PauliOp) -> usize {
    match op {
        PauliOp::Z => 0,
        PauliOp::I => 1,
        PauliOp::Y => 2,
        PauliOp::X => 3,
    }
}

/// Reusable buffers of [`TreeSynthesizer::synthesize_into`].
#[derive(Debug, Default)]
pub(crate) struct TreeScratch {
    /// Qubit-index arena: the support, then each open recursion level's
    /// partition of its range, truncated when the level returns.
    arena: Vec<usize>,
    /// Dense live view of the next Pauli at the roots being connected,
    /// indexed by qubit; only the current node's qubits are meaningful.
    /// The partition also parks each qubit's operator here.
    live: Vec<PauliOp>,
}

/// Applies the sign-free CX rule of `gate` to the dense operator row `ops`.
///
/// # Panics
///
/// Panics if `gate` is not a CNOT (tree circuits contain nothing else).
pub(crate) fn apply_cx(ops: &mut [PauliOp], gate: &Gate) {
    let Gate::Cx { control, target } = *gate else {
        panic!("tree circuits contain only CNOTs, found {gate}")
    };
    (ops[control], ops[target]) = cx_images(ops[control], ops[target]);
}

/// Sign-free CX conjugation on the (control, target) operator pair.
#[inline]
fn cx_images(control: PauliOp, target: PauliOp) -> (PauliOp, PauliOp) {
    let (xc, zc) = control.xz();
    let (xt, zt) = target.xz();
    (PauliOp::from_xz(xc, zc ^ zt), PauliOp::from_xz(xt ^ xc, zt))
}

/// Connects the qubits in index order with a CNOT chain and returns the last
/// qubit as the root.
fn chain(tree_idxs: &[usize], gates: &mut Vec<Gate>) -> usize {
    for pair in tree_idxs.windows(2) {
        gates.push(Gate::Cx {
            control: pair[0],
            target: pair[1],
        });
    }
    *tree_idxs
        .last()
        .expect("chain called with empty index list")
}

#[inline]
fn weight_of(op: PauliOp) -> usize {
    usize::from(!op.is_identity())
}

/// The scalar conjugation rules, the oracle the parity-tree checks below
/// run on.
#[cfg(test)]
#[path = "../../tableau/tests/support/scalar_rules.rs"]
mod scalar_rules;

#[cfg(test)]
mod tests {
    use super::scalar_rules::conjugate_pauli_by_gate;
    use super::*;
    use quclear_circuit::Circuit;
    use quclear_pauli::SignedPauli;
    use quclear_tableau::CliffordTableau;

    /// Checks the defining parity-tree property: conjugating the all-Z string
    /// on the support through the tree circuit leaves a single Z on the root.
    fn assert_valid_parity_tree(n: usize, support: &[usize], gates: &[Gate], root: usize) {
        let mut z_all = PauliString::identity(n);
        for &q in support {
            z_all.set_op(q, PauliOp::Z);
        }
        let mut sp = SignedPauli::positive(z_all);
        for g in gates {
            sp = conjugate_pauli_by_gate(&sp, g);
        }
        let expected = PauliString::single(n, root, PauliOp::Z);
        assert_eq!(
            sp.pauli(),
            &expected,
            "tree must map ∏Z(support) to Z(root)"
        );
        assert!(!sp.is_negative());
        // And the CNOT count is |support| - 1.
        assert_eq!(gates.len(), support.len() - 1);
    }

    #[test]
    fn single_qubit_support_needs_no_gates() {
        let lookahead = vec!["XYZ".parse().unwrap()];
        let synth = TreeSynthesizer::new(lookahead.as_slice(), true);
        let (gates, root) = synth.synthesize(&[1]);
        assert!(gates.is_empty());
        assert_eq!(root, 1);
    }

    #[test]
    fn chain_fallback_without_lookahead() {
        let lookahead: Vec<PauliString> = Vec::new();
        let synth = TreeSynthesizer::new(lookahead.as_slice(), true);
        let support = [0, 1, 3];
        let (gates, root) = synth.synthesize(&support);
        assert_valid_parity_tree(4, &support, &gates, root);
    }

    #[test]
    fn full_support_tree_is_valid_parity_tree() {
        let n = 7;
        // The paper's example: P2' = ZZZIXYX, P3' = YZYXIYX.
        let lookahead: Vec<PauliString> =
            vec!["ZZZIXYX".parse().unwrap(), "YZYXIYX".parse().unwrap()];
        let synth = TreeSynthesizer::new(lookahead.as_slice(), true);
        let support: Vec<usize> = (0..n).collect();
        let (gates, root) = synth.synthesize(&support);
        assert_valid_parity_tree(n, &support, &gates, root);
    }

    /// The paper's running example (Section V-A): extracting the synthesized
    /// tree for P1 (full support) must optimize P2' = ZZZIXYX down to weight 3
    /// (IIIIXYX in the paper).
    #[test]
    fn paper_example_reduces_p2_to_weight_three() {
        let n = 7;
        let p2: PauliString = "ZZZIXYX".parse().unwrap();
        let p3: PauliString = "YZYXIYX".parse().unwrap();
        let lookahead = vec![p2.clone(), p3.clone()];
        let synth = TreeSynthesizer::new(lookahead.as_slice(), true);
        let support: Vec<usize> = (0..n).collect();
        let (gates, root) = synth.synthesize(&support);
        assert_valid_parity_tree(n, &support, &gates, root);

        // Extracting the tree conjugates the following Paulis by the mirrored
        // tree, i.e. by the tree circuit itself in the Heisenberg picture:
        // P' = W P W† where W is the tree circuit.
        let mut tree_circuit = Circuit::new(n);
        tree_circuit.extend(gates.iter().copied());
        let map = CliffordTableau::from_circuit(&tree_circuit);
        let p2_updated = map.apply(&p2);
        assert!(
            p2_updated.weight() <= 3,
            "P2' should be reduced to weight ≤ 3, got {} ({})",
            p2_updated.weight(),
            p2_updated
        );
        // With the recursive tree, P3' should also be reduced (the paper
        // reaches weight 5: IIXXIYX).
        let p3_updated = map.apply(&p3);
        assert!(
            p3_updated.weight() <= 5,
            "P3' should be reduced to weight ≤ 5, got {} ({})",
            p3_updated.weight(),
            p3_updated
        );
    }

    #[test]
    fn recursive_beats_or_matches_non_recursive_on_paper_example() {
        let n = 7;
        let p2: PauliString = "ZZZIXYX".parse().unwrap();
        let p3: PauliString = "YZYXIYX".parse().unwrap();
        let lookahead = vec![p2, p3.clone()];
        let support: Vec<usize> = (0..n).collect();

        let weight_after = |recursive: bool| {
            let synth = TreeSynthesizer::new(lookahead.as_slice(), recursive);
            let (gates, _) = synth.synthesize(&support);
            let mut tree_circuit = Circuit::new(n);
            tree_circuit.extend(gates.iter().copied());
            CliffordTableau::from_circuit(&tree_circuit)
                .apply(&p3)
                .weight()
        };
        assert!(weight_after(true) <= weight_after(false));
    }

    #[test]
    fn all_z_next_pauli_collapses_to_single_z() {
        // If the next Pauli is all-Z on the support, extracting the chain
        // reduces it to a single Z (the paper's ZZ…Z → II…IZ observation).
        let n = 5;
        let next: PauliString = "ZZZZZ".parse().unwrap();
        let lookahead = vec![next.clone()];
        let synth = TreeSynthesizer::new(lookahead.as_slice(), true);
        let support: Vec<usize> = (0..n).collect();
        let (gates, root) = synth.synthesize(&support);
        assert_valid_parity_tree(n, &support, &gates, root);
        let mut tree_circuit = Circuit::new(n);
        tree_circuit.extend(gates.iter().copied());
        let updated = CliffordTableau::from_circuit(&tree_circuit).apply(&next);
        assert_eq!(
            updated.weight(),
            1,
            "ZZZZZ should collapse to a single Z, got {updated}"
        );
    }

    #[test]
    fn disjoint_supports_are_left_untouched() {
        // If the next Pauli is identity on the support, no reduction is
        // possible but the tree must still be valid.
        let n = 6;
        let lookahead: Vec<PauliString> = vec!["IIIIXX".parse().unwrap()];
        let synth = TreeSynthesizer::new(lookahead.as_slice(), true);
        let support = [0, 1, 2, 3];
        let (gates, root) = synth.synthesize(&support);
        assert_valid_parity_tree(n, &support, &gates, root);
    }

    #[test]
    #[should_panic(expected = "empty support")]
    fn empty_support_panics() {
        let lookahead: Vec<PauliString> = Vec::new();
        let synth = TreeSynthesizer::new(lookahead.as_slice(), true);
        let _ = synth.synthesize(&[]);
    }
}
