//! Clifford Extraction (Algorithm 2 of the QuCLEAR paper).
//!
//! The extractor walks the rotation sequence front to back. For each rotation
//! it synthesizes only the *forward* half of the textbook circuit — the
//! single-qubit basis changes, the CNOT tree and the `Rz` — and defers the
//! mirrored uncomputation to the end of the circuit, where it accumulates
//! into one Clifford subcircuit `U_CL`. Every later rotation is rewritten
//! through the Heisenberg map `P ↦ U_CL† P U_CL`, and within each commuting
//! block the rotation that becomes cheapest is scheduled next.
//!
//! # Word-parallel bookkeeping
//!
//! Three structures keep the inner loop cheap:
//!
//! * **One schedule** — two index vectors over slots: the rotation each slot
//!   extracts and the frame row of its image. A pick rotates a slot range
//!   of its commuting block (the block bounds come from [`CommutingBlocks`]),
//!   and the lookahead is the next slots, across blocks. No rotation or
//!   string is cloned.
//! * **Pending-image frame** — the images of *every* not-yet-scheduled
//!   rotation axis under the current Heisenberg map are held in a
//!   column-major [`PauliFrame`], the extractor's only Clifford state.
//!   Advancing the map by one extracted gate updates all pending images in
//!   a single word-parallel pass
//!   ([`quclear_tableau::conjugate_all_by_gate`]). The frame is compacted
//!   to the pending slots once more than half of its rows have been
//!   consumed, so its width tracks the remaining work.
//! * **Scratch buffers** — `find_next_pauli` scores `O(block²)` (current,
//!   candidate) pairs, and every score synthesizes a one-lookahead CNOT
//!   tree. The scorer reads each candidate row word-wise into one reused
//!   string, basis-remaps only the current rotation's support into a dense
//!   operator row, and builds the tree in a reused index arena, so a score
//!   allocates nothing. There is deliberately no memo of scores: a score
//!   costs less than hashing and looking up its (current, candidate) key.

use quclear_circuit::{Circuit, Gate};
use quclear_pauli::{PauliFrame, PauliOp, PauliRotation, PauliString};
use quclear_tableau::{conjugate_all_by_gate, synthesize_clifford, CliffordTableau};

use crate::blocks::CommutingBlocks;
use crate::tree::{apply_cx, FrameLookahead, LookaheadOps, TreeScratch, TreeSynthesizer};

/// Configuration of the Clifford Extraction pass.
#[derive(Clone, Copy, Debug)]
pub struct ExtractionConfig {
    /// Use the recursive CNOT-tree synthesis (Section V-B). When `false`,
    /// subtrees are chained in index order (the non-recursive variant used as
    /// the cost model and in the ablation of Figure 10).
    pub recursive_tree: bool,
    /// Reorder rotations within commuting blocks with `find_next_pauli`
    /// (Section V-C). When `false`, the original order is kept.
    pub reorder_commuting: bool,
    /// How many future Pauli strings the tree synthesizer may look at.
    pub lookahead_depth: usize,
}

impl Default for ExtractionConfig {
    fn default() -> Self {
        ExtractionConfig {
            recursive_tree: true,
            reorder_commuting: true,
            lookahead_depth: 16,
        }
    }
}

/// The output of Clifford Extraction.
///
/// The original program satisfies `U = U_CL · U'` (as matrices), i.e. running
/// [`ExtractionResult::optimized`] followed by [`ExtractionResult::extracted`]
/// reproduces the input circuit exactly. The extracted part is pure Clifford
/// and is meant to be absorbed classically (see [`crate::absorb`]).
///
/// [`extract_clifford`] returns `extracted` as the raw extraction log: the
/// mirror of every emitted basis layer and CNOT tree, so it carries as many
/// CNOTs as the optimized circuit. [`ExtractionResult::resynthesized`]
/// swaps it for an `O(n²)`-gate circuit of the same Clifford;
/// [`crate::compile`] serves that form. The result holds circuits only: the
/// Clifford's tableau is built from `extracted` when it is needed.
#[derive(Clone, Debug)]
pub struct ExtractionResult {
    /// The optimized (non-Clifford) circuit `U'` to run on hardware.
    pub optimized: Circuit,
    /// The extracted Clifford subcircuit `U_CL`, in execution order, that
    /// formally follows `optimized`: the raw extraction log, or its
    /// resynthesis after [`ExtractionResult::resynthesized`].
    pub extracted: Circuit,
}

impl ExtractionResult {
    /// The full circuit `optimized` followed by `extracted`; implements the
    /// same unitary as the original rotation sequence (used for verification
    /// and for the ablation stages that do not yet absorb the Clifford).
    #[must_use]
    pub fn full_circuit(&self) -> Circuit {
        let mut full = self.optimized.clone();
        full.append(&self.extracted);
        full
    }

    /// Replaces `extracted` with [`synthesize_clifford`] of its tableau when
    /// that circuit has fewer gates. The tableau is folded from `extracted`
    /// as it stands (the raw log, for a fresh result). The resynthesis
    /// implements the same Clifford up to global phase (equal tableaux), so
    /// every absorption and every expectation value is unchanged, while the
    /// circuit shrinks from one mirrored tree per rotation to `O(n²)` gates.
    #[must_use]
    pub fn resynthesized(mut self) -> Self {
        // The Heisenberg tableau of U_CL is the tableau of U_CL†; its
        // synthesis, inverted, is a circuit for U_CL.
        let heisenberg = CliffordTableau::heisenberg_from_circuit(&self.extracted);
        let short = synthesize_clifford(&heisenberg).inverse();
        if short.len() < self.extracted.len() {
            self.extracted = short;
        }
        self
    }
}

/// Runs Clifford Extraction over a Pauli rotation sequence.
///
/// # Panics
///
/// Panics if the rotations act on different register sizes.
///
/// # Examples
///
/// ```
/// use quclear_core::{extract_clifford, ExtractionConfig};
/// use quclear_pauli::PauliRotation;
///
/// // The paper's motivating example: e^{iZZZZ t1} e^{iYYXX t2}.
/// let rotations = vec![
///     PauliRotation::parse("ZZZZ", 0.3)?,
///     PauliRotation::parse("YYXX", 0.7)?,
/// ];
/// let result = extract_clifford(&rotations, &ExtractionConfig::default());
/// // The optimized circuit needs at most 4 CNOTs (down from 12 native).
/// assert!(result.optimized.cnot_count() <= 4);
/// # Ok::<(), quclear_pauli::ParsePauliError>(())
/// ```
#[must_use]
pub fn extract_clifford(
    rotations: &[PauliRotation],
    config: &ExtractionConfig,
) -> ExtractionResult {
    let n = rotations
        .first()
        .map_or(0, quclear_pauli::PauliRotation::num_qubits);
    for r in rotations {
        assert_eq!(
            r.num_qubits(),
            n,
            "all rotations must act on the same register"
        );
    }

    let blocks = if config.reorder_commuting {
        CommutingBlocks::from_rotations(rotations)
    } else {
        CommutingBlocks::singletons(rotations.len())
    };

    // The schedule: slot i holds the index of the i-th rotation to extract
    // (`order`) and the frame row of its image under the Clifford extracted
    // so far (`rows`). A pick permutes slots inside a commuting block.
    let mut order: Vec<usize> = (0..rotations.len()).collect();
    let mut rows = order.clone();
    let mut state = ExtractionState {
        n,
        config: *config,
        optimized: Circuit::new(n),
        segments: Vec::new(),
        images: PauliFrame::from_paulis(n, rotations.iter().map(PauliRotation::pauli)),
        scratch: Scratch::default(),
    };

    for block in blocks.blocks() {
        for i in block.clone() {
            // Move the chosen rotation into slot i, shifting the slots it
            // passes one to the right.
            if i + 1 < block.end {
                let chosen = i + 1 + state.find_next_pauli(rows[i], &rows[i + 1..block.end]);
                order[i..=chosen].rotate_right(1);
                rows[i..=chosen].rotate_right(1);
            }
            // Lookahead crosses block boundaries: later blocks cannot be
            // reordered but their strings still guide the tree structure.
            let lookahead_end = rows.len().min(i + 1 + config.lookahead_depth);
            state.process_rotation(
                rotations[order[i]].angle(),
                rows[i],
                &rows[i + 1..lookahead_end],
            );

            // Compact the frame to the pending slots once most of its rows
            // have been consumed, so word-parallel updates only sweep live
            // rows.
            let pending = &mut rows[i + 1..];
            if state.images.num_rows() > 128 && state.images.num_rows() >= 2 * pending.len() {
                state.images = state.images.select_rows(pending);
                for (new_row, row) in pending.iter_mut().enumerate() {
                    *row = new_row;
                }
            }
        }
    }

    // The extracted Clifford in execution order: the segment extracted last
    // sits closest to the optimized circuit, the one extracted first at the
    // very end (U_CL = W1† · W2† · … · Wk† as matrices).
    let mut extracted = Circuit::new(n);
    for segment in state.segments.iter().rev() {
        extracted.extend(segment.iter().copied());
    }

    ExtractionResult {
        optimized: state.optimized,
        extracted,
    }
}

/// One dense operator row served as a single lookahead string.
struct DenseLookahead<'a>(&'a [PauliOp]);

impl LookaheadOps for DenseLookahead<'_> {
    fn lookahead_len(&self) -> usize {
        1
    }

    fn num_qubits(&self) -> usize {
        self.0.len()
    }

    fn op_at(&self, _d: usize, qubit: usize) -> PauliOp {
        self.0[qubit]
    }
}

/// Reusable buffers of the extraction inner loop.
#[derive(Debug, Default)]
struct Scratch {
    /// Tree synthesizer buffers, shared by scoring and emission.
    tree: TreeScratch,
    /// Dense candidate operators on the current support, basis-remapped and
    /// then conjugated through the scored tree.
    ops: Vec<PauliOp>,
    /// CNOTs of the tree being scored or emitted.
    gates: Vec<Gate>,
}

/// Cost of a candidate (number of non-identity operators) after extracting
/// the Clifford subcircuit that would be synthesized for `current` (whose
/// non-identity qubits are `support`) when optimizing for the candidate.
/// Both strings are images under the current Heisenberg map; the cost
/// depends on nothing else. Signs are irrelevant to the weight, so the
/// simulation is entirely sign-free: the basis layer is applied with
/// two-bit operator maps (X sites conjugate by H, Y sites by S† then H)
/// and the tree gates with the two-operator CX rule. Both act only on the
/// support, so the candidate's weight off the support is carried over as
/// is.
fn extraction_cost(
    recursive_tree: bool,
    current: &PauliString,
    support: &[usize],
    candidate: &PauliString,
    scratch: &mut Scratch,
) -> usize {
    debug_assert!(!support.is_empty());
    let ops = &mut scratch.ops;
    ops.resize(candidate.num_qubits(), PauliOp::I);
    let mut on_support = 0;
    for &q in support {
        let (x, z) = candidate.op(q).xz();
        on_support += usize::from(x | z);
        ops[q] = match current.op(q) {
            PauliOp::X => PauliOp::from_xz(z, x),
            // S†: (x, z) → (x, z ^ x); then H swaps the bits.
            PauliOp::Y => PauliOp::from_xz(x ^ z, x),
            PauliOp::I | PauliOp::Z => PauliOp::from_xz(x, z),
        };
    }
    scratch.gates.clear();
    TreeSynthesizer::new(&DenseLookahead(ops), recursive_tree).synthesize_into(
        support,
        &mut scratch.tree,
        &mut scratch.gates,
    );
    for gate in &scratch.gates {
        apply_cx(ops, gate);
    }
    let after = support.iter().filter(|&&q| !ops[q].is_identity()).count();
    candidate.weight() - on_support + after
}

struct ExtractionState {
    n: usize,
    config: ExtractionConfig,
    optimized: Circuit,
    /// Extracted subcircuits, one per processed rotation, each in execution
    /// order. The final extracted Clifford is their reverse concatenation.
    segments: Vec<Vec<Gate>>,
    /// Images of the rotation axes under `P ↦ U_CL† P U_CL` for the
    /// Clifford extracted so far, advanced gate by gate (word-parallel over
    /// all rows). This frame is the extractor's only Clifford state.
    images: PauliFrame,
    /// Reusable buffers of scoring and tree synthesis.
    scratch: Scratch,
}

impl ExtractionState {
    /// The greedy pick of commuting-block reordering: returns the offset in
    /// `candidates` of the row with the fewest non-identity operators after
    /// extracting the Clifford subcircuit of the rotation in `current_row`
    /// (the first strict minimum on ties).
    ///
    /// The caller scores against the slot being filled and then rotates the
    /// pick into it, so the rotation displaced into the next slot is scored
    /// against again: every pick of a block is scored against the block's
    /// *first* rotation, which is scheduled last. Algorithm 2 scores against
    /// the rotation just extracted instead.
    fn find_next_pauli(&mut self, current_row: usize, candidates: &[usize]) -> usize {
        let current = self.images.row_pauli(current_row);
        if current.is_identity() {
            return 0;
        }
        let support = current.support();
        let mut best = 0;
        let mut best_cost = usize::MAX;
        let mut candidate = PauliString::identity(self.n);
        for (offset, &row) in candidates.iter().enumerate() {
            self.images.read_row_into(row, &mut candidate);
            let cost = extraction_cost(
                self.config.recursive_tree,
                &current,
                &support,
                &candidate,
                &mut self.scratch,
            );
            if cost < best_cost {
                best_cost = cost;
                best = offset;
            }
        }
        best
    }

    /// Emits the optimized half-circuit for the rotation by `angle` whose
    /// image sits in `row`, and extends the extracted Clifford with its
    /// mirror.
    fn process_rotation(&mut self, angle: f64, row: usize, lookahead_rows: &[usize]) {
        let updated = self.images.get(row);
        let signed_angle = angle * updated.sign();
        let pauli = updated.into_pauli();
        if pauli.is_identity() || angle == 0.0 {
            // Global phase only; nothing to synthesize.
            return;
        }

        // Single-qubit basis changes (X → H, Y → S†·H) so every non-identity
        // operator becomes Z. The pending images advance with one
        // word-parallel pass per gate.
        let basis = basis_change_circuit(self.n, &pauli);
        for gate in basis.gates() {
            conjugate_all_by_gate(&mut self.images, gate);
        }

        // CNOT tree optimized for the following Pauli strings (their images
        // now include the basis layer just applied), read operator-by-
        // operator straight out of the pending-image frame.
        let support = pauli.support();
        let tree_gates = &mut self.scratch.gates;
        tree_gates.clear();
        let lookahead = FrameLookahead::new(&self.images, lookahead_rows);
        let root = TreeSynthesizer::new(&lookahead, self.config.recursive_tree).synthesize_into(
            &support,
            &mut self.scratch.tree,
            tree_gates,
        );

        // Emit [basis][tree][Rz] into the optimized circuit.
        let mut forward = basis;
        forward.extend(tree_gates.iter().copied());
        self.optimized.append(&forward);
        self.optimized.rz(root, signed_angle);

        // The mirror of the forward Clifford is deferred to the end.
        self.segments.push(forward.inverse().gates().to_vec());

        // Finish advancing the images through the forward Clifford W just
        // emitted: P ↦ W P W†.
        for gate in &self.scratch.gates {
            conjugate_all_by_gate(&mut self.images, gate);
        }
    }
}

/// Builds the single-qubit basis-change layer of a Pauli rotation: `H` on
/// every `X`, `S†` then `H` on every `Y`, nothing on `Z`/`I`. Conjugating the
/// Pauli by this circuit turns every non-identity operator into `Z` with a
/// positive sign.
#[must_use]
pub fn basis_change_circuit(n: usize, pauli: &PauliString) -> Circuit {
    let mut circuit = Circuit::new(n);
    for (q, op) in pauli.ops() {
        match op {
            PauliOp::X => circuit.h(q),
            PauliOp::Y => {
                circuit.sdg(q);
                circuit.h(q);
            }
            PauliOp::I | PauliOp::Z => {}
        }
    }
    circuit
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rot(s: &str, angle: f64) -> PauliRotation {
        PauliRotation::parse(s, angle).unwrap()
    }

    /// Reference textbook synthesis of a rotation sequence (V-shaped blocks),
    /// used to validate the extraction against the tableau algebra.
    fn naive_reference(rotations: &[PauliRotation]) -> Circuit {
        let n = rotations[0].num_qubits();
        let mut qc = Circuit::new(n);
        for r in rotations {
            if r.is_trivial() {
                continue;
            }
            let basis = basis_change_circuit(n, r.pauli());
            let support = r.pauli().support();
            let mut ladder = Circuit::new(n);
            for pair in support.windows(2) {
                ladder.cx(pair[0], pair[1]);
            }
            qc.append(&basis);
            qc.append(&ladder);
            qc.rz(*support.last().unwrap(), r.angle());
            qc.append(&ladder.inverse());
            qc.append(&basis.inverse());
        }
        qc
    }

    #[test]
    fn basis_change_maps_everything_to_z() {
        let p: PauliString = "XYZI".parse().unwrap();
        let circuit = basis_change_circuit(4, &p);
        let map = CliffordTableau::from_circuit(&circuit);
        let image = map.apply(&p);
        assert_eq!(image.to_string(), "+ZZZI");
    }

    #[test]
    fn motivating_example_reduces_to_four_cnots() {
        // e^{iZZZZ t1} e^{iYYXX t2}: 12 CNOTs natively, 4 after extraction
        // (Figure 2 of the paper).
        let rotations = vec![rot("ZZZZ", 0.3), rot("YYXX", 0.7)];
        let result = extract_clifford(&rotations, &ExtractionConfig::default());
        assert_eq!(naive_reference(&rotations).cnot_count(), 12);
        assert!(
            result.optimized.cnot_count() <= 4,
            "expected ≤ 4 CNOTs, got {}",
            result.optimized.cnot_count()
        );
    }

    #[test]
    fn full_circuit_reproduces_the_unitary_on_paulis() {
        // Compare the tableau action of the Clifford parts and spot-check the
        // full unitary with the simulator in the integration tests; here we
        // verify structural invariants.
        let rotations = vec![rot("ZZI", 0.4), rot("IXX", 0.2), rot("YIZ", 0.9)];
        let result = extract_clifford(&rotations, &ExtractionConfig::default());
        assert!(result.extracted.gates().iter().all(Gate::is_clifford));
        // Optimized circuit contains exactly one Rz per non-trivial rotation.
        let rz_count = result
            .optimized
            .gates()
            .iter()
            .filter(|g| matches!(g, Gate::Rz { .. }))
            .count();
        assert_eq!(rz_count, 3);
    }

    /// Pins the greedy schedule of one commuting block. Every pick is
    /// scored against the block's first rotation, which is therefore
    /// scheduled last.
    #[test]
    fn commuting_block_schedule_is_pinned() {
        let rotations = vec![
            rot("ZZII", 0.1),
            rot("IZZI", 0.2),
            rot("IIZZ", 0.3),
            rot("ZIIZ", 0.4),
            rot("ZIZI", 0.5),
        ];
        let result = extract_clifford(&rotations, &ExtractionConfig::default());
        let angles: Vec<f64> = result
            .optimized
            .gates()
            .iter()
            .filter_map(|g| match g {
                Gate::Rz { angle, .. } => Some(*angle),
                _ => None,
            })
            .collect();
        assert_eq!(angles, vec![0.2, 0.4, 0.5, 0.3, 0.1]);
    }

    #[test]
    fn identity_and_zero_angle_rotations_are_skipped() {
        let rotations = vec![rot("III", 0.5), rot("ZZI", 0.0), rot("ZIZ", 0.3)];
        let result = extract_clifford(&rotations, &ExtractionConfig::default());
        let rz_count = result
            .optimized
            .gates()
            .iter()
            .filter(|g| matches!(g, Gate::Rz { .. }))
            .count();
        assert_eq!(rz_count, 1);
    }

    #[test]
    fn single_rotation_has_no_uncompute() {
        let rotations = vec![rot("ZZZZ", 0.5)];
        let result = extract_clifford(&rotations, &ExtractionConfig::default());
        // Half of the native 6 CNOTs stay, half are extracted.
        assert_eq!(result.optimized.cnot_count(), 3);
        assert_eq!(result.extracted.cnot_count(), 3);
    }

    #[test]
    fn extraction_halves_uccsd_like_blocks() {
        // A weight-4 XXYY-type excitation block (8 Paulis) typical of UCCSD.
        let paulis = [
            "XXXY", "XXYX", "XYXX", "YXXX", "YYYX", "YYXY", "YXYY", "XYYY",
        ];
        let rotations: Vec<PauliRotation> = paulis.iter().map(|p| rot(p, 0.11)).collect();
        let native = naive_reference(&rotations).cnot_count();
        let result = extract_clifford(&rotations, &ExtractionConfig::default());
        assert!(
            result.optimized.cnot_count() * 2 < native,
            "extraction should cut CNOTs by more than half: {} vs native {}",
            result.optimized.cnot_count(),
            native
        );
    }

    #[test]
    fn disabling_reordering_and_recursion_still_valid() {
        let rotations = vec![rot("ZZII", 0.1), rot("IZZI", 0.2), rot("XXXX", 0.3)];
        let config = ExtractionConfig {
            recursive_tree: false,
            reorder_commuting: false,
            lookahead_depth: 4,
        };
        let result = extract_clifford(&rotations, &config);
        assert!(result.extracted.gates().iter().all(Gate::is_clifford));
    }

    #[test]
    fn empty_input_gives_empty_result() {
        let result = extract_clifford(&[], &ExtractionConfig::default());
        assert!(result.optimized.is_empty());
        assert!(result.extracted.is_empty());
    }

    /// The clone-based scoring formula: basis-change a copy of the whole
    /// candidate, synthesize the one-lookahead tree with the allocating
    /// entry point, conjugate the whole copy through the tree and count.
    fn reference_cost(
        recursive_tree: bool,
        current: &PauliString,
        candidate: &PauliString,
    ) -> usize {
        let mut updated = candidate.clone();
        for (q, op) in current.ops() {
            let (x, z) = updated.op(q).xz();
            match op {
                PauliOp::X => updated.set_op(q, PauliOp::from_xz(z, x)),
                PauliOp::Y => updated.set_op(q, PauliOp::from_xz(z ^ x, x)),
                PauliOp::I | PauliOp::Z => {}
            }
        }
        let lookahead = std::slice::from_ref(&updated);
        let (tree_gates, _) =
            TreeSynthesizer::new(lookahead, recursive_tree).synthesize(&current.support());
        let mut ops: Vec<PauliOp> = updated.ops().map(|(_, op)| op).collect();
        for gate in &tree_gates {
            apply_cx(&mut ops, gate);
        }
        ops.iter().filter(|op| !op.is_identity()).count()
    }

    /// A random string on `n` qubits whose operators are drawn from
    /// `palette` (repeats weight the draw).
    fn random_pauli(rng: &mut proptest::TestRng, n: usize, palette: &[PauliOp]) -> PauliString {
        let ops: Vec<PauliOp> = (0..n)
            .map(|_| palette[(rng.next_u64() % palette.len() as u64) as usize])
            .collect();
        PauliString::from_ops(&ops)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// One scratch is reused across many pairs of varying width, as in
        /// extraction, so stale entries from a wider or differently
        /// supported pair must never leak into a score.
        #[test]
        fn extraction_cost_matches_the_clone_based_formula(
            seed in proptest::any::<u64>(),
            recursive_tree in proptest::any::<bool>(),
        ) {
            use PauliOp::{I, X, Y, Z};
            let mut rng = proptest::TestRng::deterministic(&seed.to_string());
            let mut scratch = Scratch::default();
            for round in 0..32 {
                let n = 1 + (rng.next_u64() % 70) as usize;
                let (current, candidate) = match round % 4 {
                    // Uniform operators.
                    0 => (
                        random_pauli(&mut rng, n, &[I, X, Y, Z]),
                        random_pauli(&mut rng, n, &[I, X, Y, Z]),
                    ),
                    // Y-heavy on both sides.
                    1 => (
                        random_pauli(&mut rng, n, &[I, Y, Y, Y, X, Z]),
                        random_pauli(&mut rng, n, &[I, Y, Y, Y, X, Z]),
                    ),
                    // No Z left on the support after the basis change, so
                    // the Y and X subtrees' chains come first.
                    2 => (
                        random_pauli(&mut rng, n, &[I, Z, Z]),
                        random_pauli(&mut rng, n, &[X, Y, Y]),
                    ),
                    // Disjoint supports: the candidate lives off the
                    // current rotation's support.
                    _ => {
                        let current = random_pauli(&mut rng, n, &[I, I, X, Y, Z]);
                        let mut candidate = random_pauli(&mut rng, n, &[X, Y, Z]);
                        for q in current.support() {
                            candidate.set_op(q, I);
                        }
                        (current, candidate)
                    }
                };
                if current.is_identity() {
                    continue;
                }
                let cost = extraction_cost(
                    recursive_tree,
                    &current,
                    &current.support(),
                    &candidate,
                    &mut scratch,
                );
                let expected = reference_cost(recursive_tree, &current, &candidate);
                proptest::prop_assert!(
                    cost == expected,
                    "current {current} candidate {candidate}: {cost} != {expected}"
                );
            }
        }
    }
}
