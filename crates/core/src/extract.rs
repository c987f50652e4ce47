//! Clifford Extraction (Algorithm 2 of the QuCLEAR paper).
//!
//! The extractor walks the rotation sequence front to back. For each rotation
//! it synthesizes only the *forward* half of the textbook circuit — the
//! single-qubit basis changes, the CNOT tree and the `Rz` — and defers the
//! mirrored uncomputation to the end of the circuit, where it accumulates
//! into one Clifford subcircuit `U_CL`. Every later rotation is rewritten
//! through the Heisenberg map `P ↦ U_CL† P U_CL`. Before a rotation is
//! extracted, the rotation that becomes cheapest after it is scheduled next,
//! from the rest of its commuting block or, at a block boundary, from the
//! whole next block.
//!
//! # Word-parallel bookkeeping
//!
//! Three structures keep the inner loop cheap:
//!
//! * **One schedule** — two index vectors over slots: the rotation each slot
//!   extracts and the frame row of its image. While slot `i` is still
//!   unextracted, the pick for slot `i + 1` is scored against it and rotated
//!   into place from the remaining slots of slot `i + 1`'s commuting block
//!   (the block bounds come from [`CommutingBlocks`]). Slot `i`'s lookahead
//!   is the next slots, across blocks, so it starts with the rotation its
//!   score assumed. No rotation or string is cloned.
//! * **Pending-image frame** — the images of *every* not-yet-scheduled
//!   rotation axis under the current Heisenberg map are held in a
//!   column-major [`PauliFrame`], the extractor's only Clifford state.
//!   Advancing the map by one extracted gate updates all pending images in
//!   a single word-parallel pass
//!   ([`quclear_tableau::conjugate_all_by_gate`]). The frame is compacted
//!   to the pending slots once more than half of its rows have been
//!   consumed, so its width tracks the remaining work.
//! * **Block scoring** — `find_next_pauli` picks among every remaining
//!   candidate of a commuting block. A candidate's score is its weight off
//!   the current rotation's support plus F(n_Z, n_I, n_Y, n_X), the weight
//!   left on the support after the one-lookahead CNOT tree, where the counts
//!   are the candidate's basis-remapped operators there. With one lookahead
//!   string the tree only groups the support by operator and chains each
//!   group, so F depends on those four counts alone; it is the synthesizer's
//!   own output on a canonical row with those counts, memoized per
//!   extraction. One pass over the frame's X and Z planes fills four
//!   bit-sliced counters (off-support, Z, Y, X) for all candidate rows at
//!   once, `O(n · B/64)` words per pick, with no row gathered and no tree
//!   built per candidate; 15 qubits at a time are summed in registers
//!   before one add into the counters. The off-support count is a lower
//!   bound on the score: whenever the best score drops, one word-parallel
//!   comparison marks the rows whose count is still below it, so a
//!   candidate that cannot win costs one bit test. The counters, the
//!   current row and the memo live in reused scratch, so a pick allocates
//!   nothing once they have grown.

use std::collections::HashMap;
use std::ops::Range;

use quclear_circuit::{Circuit, Gate};
use quclear_pauli::{PauliFrame, PauliOp, PauliRotation, PauliString};
use quclear_tableau::{conjugate_all_by_gate, synthesize_clifford, CliffordTableau};

use crate::blocks::CommutingBlocks;
use crate::tree::{
    apply_cx, FrameLookahead, LookaheadOps, TreeScratch, TreeSynthesizer, GROUP_OPS,
};

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
    extract_with(rotations, config, ExtractionState::find_next_pauli)
}

/// [`extract_clifford`] with the greedy pick of commuting-block reordering
/// supplied by `pick(state, current_row, candidates)`, which returns the
/// offset of the chosen candidate. `current_row` holds the rotation
/// extracted just before the slot being filled (for slot 0, the input's
/// first rotation).
fn extract_with(
    rotations: &[PauliRotation],
    config: &ExtractionConfig,
    mut pick: impl FnMut(&mut ExtractionState, usize, &[usize]) -> usize,
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

    // No rotation precedes the first slot, so its pick is scored against
    // the input's first rotation, which then competes for the second slot.
    let blocks = blocks.blocks();
    if let Some(first) = blocks.first().filter(|block| block.len() > 1) {
        let chosen = 1 + pick(&mut state, rows[0], &rows[1..first.end]);
        order[..=chosen].rotate_right(1);
        rows[..=chosen].rotate_right(1);
    }

    for (b, block) in blocks.iter().enumerate() {
        for i in block.clone() {
            // While slot i is unextracted, pick its successor against it
            // among the remaining slots of the successor's block: slot i's
            // own block or, at a boundary, the next one, whose commuting
            // members may go in any order. Move the pick into slot i + 1,
            // shifting the slots it passes one to the right.
            let successor_end = if i + 1 < block.end {
                block.end
            } else {
                blocks.get(b + 1).map_or(0, |next| next.end)
            };
            if successor_end > i + 2 {
                let chosen = i + 1 + pick(&mut state, rows[i], &rows[i + 1..successor_end]);
                order[i + 1..=chosen].rotate_right(1);
                rows[i + 1..=chosen].rotate_right(1);
            }
            // Lookahead crosses block boundaries. It starts with the pick
            // just made, so the tree is built for the successor the pick's
            // score assumed.
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
    /// Tree synthesizer buffers of the emitted trees.
    tree: TreeScratch,
    /// CNOTs of the tree being emitted.
    gates: Vec<Gate>,
    /// The support of the rotation being emitted.
    support: Vec<usize>,
    /// The operators of the rotation whose pick is being made, by qubit.
    current: Vec<PauliOp>,
    /// Per-candidate operator counts of the pick being made.
    counts: RowCounts,
    /// The memo of F, the weight left on the support after the tree.
    after: AfterTree,
}

/// Counters of [`RowCounts`]: a candidate's weight off the current support,
/// then its Z, Y and X operators on the support after the basis remap.
const OFF: usize = 0;
const ON_Z: usize = 1;
const ON_Y: usize = 2;
const ON_X: usize = 3;

/// Four bit-sliced counters per frame row, over a run of 64-row frame
/// words: bit `k` of counter `c` for the rows of word `first_word + w` is
/// bit `row % 64` of `planes[(w * 4 + c) * bits + k]`. One mark bit per
/// row, laid out the same way in `marks`, records a comparison of every
/// row's counter at once.
#[derive(Debug, Default)]
struct RowCounts {
    first_word: usize,
    bits: usize,
    planes: Vec<u64>,
    marks: Vec<u64>,
}

impl RowCounts {
    /// Zeroes the counters of the frame words `words`, wide enough to count
    /// to `max_count`.
    fn reset(&mut self, words: Range<usize>, max_count: usize) {
        self.first_word = words.start;
        self.bits = (usize::BITS - max_count.leading_zeros()) as usize;
        self.planes.clear();
        self.planes.resize(words.len() * 4 * self.bits, 0);
        self.marks.clear();
        self.marks.resize(words.len(), !0);
    }

    /// Adds the bit-sliced `sum` to counter `c` of the rows of covered word
    /// `w`: a ripple-carry add across the counter's bit planes.
    #[inline]
    fn add(&mut self, w: usize, c: usize, sum: &[u64; CHUNK_BITS]) {
        let start = (w * 4 + c) * self.bits;
        let mut carry = 0;
        for (k, plane) in self.planes[start..start + self.bits].iter_mut().enumerate() {
            let addend = sum.get(k).copied().unwrap_or(0);
            if k >= CHUNK_BITS && carry == 0 {
                return;
            }
            let next = (*plane & addend) | (carry & (*plane ^ addend));
            *plane ^= addend ^ carry;
            carry = next;
        }
        debug_assert_eq!(carry, 0, "a row counter overflowed");
    }

    /// Marks exactly the rows whose counter `c` is below `limit`: a
    /// bit-sliced comparison, most significant bit first, of 64 rows at a
    /// time.
    fn mark_below(&mut self, c: usize, limit: usize) {
        let bits = self.bits;
        if limit >> bits != 0 {
            self.marks.fill(!0);
            return;
        }
        for (w, marks) in self.marks.iter_mut().enumerate() {
            let planes = &self.planes[(w * 4 + c) * bits..][..bits];
            let (mut below, mut equal) = (0, !0u64);
            for (k, &plane) in planes.iter().enumerate().rev() {
                if (limit >> k) & 1 == 1 {
                    below |= equal & !plane;
                    equal &= plane;
                } else {
                    equal &= !plane;
                }
            }
            *marks = below;
        }
    }

    /// Whether frame row `row` is marked.
    #[inline]
    fn is_marked(&self, row: usize) -> bool {
        (self.marks[row / 64 - self.first_word] >> (row % 64)) & 1 == 1
    }

    /// Counter `c` of frame row `row`.
    #[inline]
    fn get(&self, row: usize, c: usize) -> usize {
        let (w, bit) = (row / 64 - self.first_word, row % 64);
        let start = (w * 4 + c) * self.bits;
        self.planes[start..start + self.bits]
            .iter()
            .enumerate()
            .fold(0, |acc, (k, &plane)| {
                acc | (((plane >> bit) & 1) as usize) << k
            })
    }
}

/// Bits of a chunk's in-register counters, and the qubits of a chunk, whose
/// counts are summed in registers before one add into the row counters.
const CHUNK_BITS: usize = 4;
const CHUNK_QUBITS: usize = (1 << CHUNK_BITS) - 1;

/// Adds one to the bit-sliced counter `counter` in each lane set in `ones`.
#[inline]
fn add_one(counter: &mut [u64; CHUNK_BITS], ones: u64) {
    let mut carry = ones;
    for plane in counter {
        let next = *plane & carry;
        *plane ^= carry;
        carry = next;
    }
}

/// The basis remap of the current rotation's operator `current` (X sites
/// conjugate by H, Y sites by S† then H), applied to 64 rows' X and Z bits.
#[inline]
fn remap_words(current: PauliOp, x: u64, z: u64) -> (u64, u64) {
    match current {
        PauliOp::X => (z, x),
        // S†: (x, z) → (x, z ^ x); then H swaps the bits.
        PauliOp::Y => (x ^ z, x),
        PauliOp::I | PauliOp::Z => (x, z),
    }
}

/// The memo of F(n_Z, n_I, n_Y, n_X): the weight left on a rotation's
/// support after extracting its CNOT tree, synthesized for one lookahead
/// string whose basis-remapped operators there number `[n_Z, n_I, n_Y,
/// n_X]`. The tree groups the support by operator and chains each group, so
/// the tree and the weight after it depend on these counts alone; F is
/// computed once per counts on a canonical row and kept for the extraction.
#[derive(Debug, Default)]
struct AfterTree {
    memo: HashMap<[usize; 4], usize>,
    /// The canonical row: the counts' operators in group order.
    ops: Vec<PauliOp>,
    /// Its support, `0..ops.len()`.
    qubits: Vec<usize>,
    tree: TreeScratch,
    gates: Vec<Gate>,
}

impl AfterTree {
    /// F of `counts` (`[n_Z, n_I, n_Y, n_X]`), computed on first use.
    fn weight(&mut self, recursive_tree: bool, counts: [usize; 4]) -> usize {
        if let Some(&weight) = self.memo.get(&counts) {
            return weight;
        }
        self.ops.clear();
        for (&op, &count) in GROUP_OPS.iter().zip(&counts) {
            self.ops.extend(std::iter::repeat_n(op, count));
        }
        self.qubits.clear();
        self.qubits.extend(0..self.ops.len());
        self.gates.clear();
        TreeSynthesizer::new(&DenseLookahead(&self.ops), recursive_tree).synthesize_into(
            &self.qubits,
            &mut self.tree,
            &mut self.gates,
        );
        for gate in &self.gates {
            apply_cx(&mut self.ops, gate);
        }
        let weight = self.ops.iter().filter(|op| !op.is_identity()).count();
        self.memo.insert(counts, weight);
        weight
    }
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
    /// Reusable buffers of picking and tree synthesis.
    scratch: Scratch,
}

impl ExtractionState {
    /// The greedy pick of commuting-block reordering: returns the offset in
    /// `candidates` of the row with the fewest non-identity operators after
    /// extracting the Clifford subcircuit of the rotation in `current_row`
    /// (the first strict minimum on ties).
    ///
    /// The candidates' rows lie in one run of frame rows (a block's rows,
    /// less the ones already picked), so one pass over that run's plane
    /// words counts every candidate at once; each is then scored from its
    /// counts, or skipped once its off-support weight alone reaches the best
    /// score so far.
    ///
    /// As in Algorithm 2, `current_row` holds the rotation about to be
    /// extracted, and the pick becomes the next one; only the program's
    /// first slot, which no rotation precedes, is picked against the input's
    /// first rotation.
    fn find_next_pauli(&mut self, current_row: usize, candidates: &[usize]) -> usize {
        let Scratch {
            current,
            counts,
            after,
            ..
        } = &mut self.scratch;
        current.clear();
        current.extend((0..self.n).map(|q| self.images.op(current_row, q)));
        let support = current.iter().filter(|op| !op.is_identity()).count();
        if support == 0 {
            return 0;
        }

        let (lo, hi) = candidates
            .iter()
            .fold((usize::MAX, 0), |(lo, hi), &row| (lo.min(row), hi.max(row)));
        let words = lo / 64..hi / 64 + 1;
        counts.reset(words.clone(), self.n);
        let mut chunk = [(&[][..], &[][..], PauliOp::I); CHUNK_QUBITS];
        for start in (0..self.n).step_by(CHUNK_QUBITS) {
            let qubits = start..self.n.min(start + CHUNK_QUBITS);
            for (slot, q) in chunk.iter_mut().zip(qubits.clone()) {
                *slot = (
                    &self.images.x_plane(q).words()[words.clone()],
                    &self.images.z_plane(q).words()[words.clone()],
                    current[q],
                );
            }
            let chunk = &chunk[..qubits.len()];
            for w in 0..words.len() {
                // The chunk's counts, summed in registers.
                let mut sums = [[0u64; CHUNK_BITS]; 4];
                for &(xs, zs, op) in chunk {
                    let (x, z) = (xs[w], zs[w]);
                    if op.is_identity() {
                        add_one(&mut sums[OFF], x | z);
                    } else {
                        let (x, z) = remap_words(op, x, z);
                        add_one(&mut sums[ON_Z], z & !x);
                        add_one(&mut sums[ON_Y], x & z);
                        add_one(&mut sums[ON_X], x & !z);
                    }
                }
                for (c, sum) in sums.iter().enumerate() {
                    counts.add(w, c, sum);
                }
            }
        }

        let mut best = 0;
        let mut best_cost = usize::MAX;
        for (offset, &row) in candidates.iter().enumerate() {
            if !counts.is_marked(row) {
                continue;
            }
            let off = counts.get(row, OFF);
            let (z, y, x) = (
                counts.get(row, ON_Z),
                counts.get(row, ON_Y),
                counts.get(row, ON_X),
            );
            let cost =
                off + after.weight(self.config.recursive_tree, [z, support - z - y - x, y, x]);
            if cost < best_cost {
                best_cost = cost;
                best = offset;
                counts.mark_below(OFF, best_cost);
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
        let Scratch {
            tree,
            gates: tree_gates,
            support,
            ..
        } = &mut self.scratch;
        support.clear();
        support.extend(
            pauli
                .ops()
                .filter(|(_, op)| !op.is_identity())
                .map(|(q, _)| q),
        );
        tree_gates.clear();
        let lookahead = FrameLookahead::new(&self.images, lookahead_rows);
        let root = TreeSynthesizer::new(&lookahead, self.config.recursive_tree)
            .synthesize_into(support, tree, tree_gates);

        // Emit [basis][tree][Rz] into the optimized circuit.
        let mut forward = basis;
        forward.extend(tree_gates.iter().copied());
        self.optimized.append(&forward);
        self.optimized.rz(root, signed_angle);

        // The mirror of the forward Clifford is deferred to the end.
        self.segments
            .push(forward.gates().iter().rev().map(Gate::inverse).collect());

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
    use crate::testing::{random_blocks, random_pauli};

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

    /// Pins the greedy schedule of one commuting block. The first slot goes
    /// to the rotation that scores best against the input's first one
    /// (`IZZI` against `ZZII`); every later pick is scored against the
    /// rotation extracted just before it, so `ZZII` follows `IZZI`.
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
        assert_eq!(angles, vec![0.2, 0.1, 0.4, 0.5, 0.3]);
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

    /// Buffers of the per-candidate scorer.
    #[derive(Default)]
    struct OracleScratch {
        tree: TreeScratch,
        ops: Vec<PauliOp>,
        gates: Vec<Gate>,
    }

    /// The per-candidate scorer the block pick replaced: the cost of a
    /// candidate (number of non-identity operators) after extracting
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
        scratch: &mut OracleScratch,
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

    /// The per-candidate pick: gathers every candidate row out of the frame
    /// and scores it with [`extraction_cost`], keeping the first strict
    /// minimum.
    fn oracle_pick(
        state: &ExtractionState,
        scratch: &mut OracleScratch,
        current_row: usize,
        candidates: &[usize],
    ) -> usize {
        let current = state.images.row_pauli(current_row);
        if current.is_identity() {
            return 0;
        }
        let support = current.support();
        let mut best = 0;
        let mut best_cost = usize::MAX;
        let mut candidate = PauliString::identity(state.n);
        for (offset, &row) in candidates.iter().enumerate() {
            state.images.read_row_into(row, &mut candidate);
            let cost = extraction_cost(
                state.config.recursive_tree,
                &current,
                &support,
                &candidate,
                scratch,
            );
            if cost < best_cost {
                best_cost = cost;
                best = offset;
            }
        }
        best
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

    /// A random (current, candidate) pair on 1–70 qubits; `round` picks
    /// the kind of pair.
    fn random_pair(rng: &mut proptest::TestRng, round: usize) -> (PauliString, PauliString) {
        use PauliOp::{I, X, Y, Z};
        let n = 1 + (rng.next_u64() % 70) as usize;
        match round % 4 {
            // Uniform operators.
            0 => (
                random_pauli(rng, n, &[I, X, Y, Z]),
                random_pauli(rng, n, &[I, X, Y, Z]),
            ),
            // Y-heavy on both sides.
            1 => (
                random_pauli(rng, n, &[I, Y, Y, Y, X, Z]),
                random_pauli(rng, n, &[I, Y, Y, Y, X, Z]),
            ),
            // No Z left on the support after the basis change, so the Y and
            // X subtrees' chains come first.
            2 => (
                random_pauli(rng, n, &[I, Z, Z]),
                random_pauli(rng, n, &[X, Y, Y]),
            ),
            // Disjoint supports: the candidate lives off the current
            // rotation's support.
            _ => {
                let current = random_pauli(rng, n, &[I, I, X, Y, Z]);
                let mut candidate = random_pauli(rng, n, &[X, Y, Z]);
                for q in current.support() {
                    candidate.set_op(q, I);
                }
                (current, candidate)
            }
        }
    }

    /// Two random programs of commuting runs back to back, the second
    /// conjugated through Cliffords, so picks cross block boundaries. Every
    /// rotation is non-trivial and their angles differ in magnitude, so the
    /// optimized circuit's `Rz` angles name the rotation each slot extracted.
    fn distinct_program(
        rng: &mut proptest::TestRng,
        n: usize,
        rows: usize,
        diagonal: bool,
    ) -> Vec<PauliRotation> {
        let mut rotations = random_blocks(rng, n, rows, diagonal);
        rotations.extend(random_blocks(rng, n, rows, false));
        rotations.retain(|r| !r.pauli().is_identity());
        rotations
            .iter()
            .enumerate()
            .map(|(i, r)| PauliRotation::new(r.pauli().clone(), 0.1 + 0.001 * i as f64))
            .collect()
    }

    /// The rotation behind each `Rz` of `optimized`, in circuit order.
    fn emitted_order(rotations: &[PauliRotation], optimized: &Circuit) -> Vec<usize> {
        optimized
            .gates()
            .iter()
            .filter_map(|g| match g {
                Gate::Rz { angle, .. } => rotations.iter().position(|r| r.angle() == angle.abs()),
                _ => None,
            })
            .collect()
    }

    /// The strings of `rows` of `frame`, sorted.
    fn sorted_strings(frame: &PauliFrame, rows: impl Iterator<Item = usize>) -> Vec<String> {
        let mut strings: Vec<String> = rows.map(|row| frame.row_pauli(row).to_string()).collect();
        strings.sort();
        strings
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
            let mut rng = proptest::TestRng::deterministic(&seed.to_string());
            let mut scratch = OracleScratch::default();
            for round in 0..32 {
                let (current, candidate) = random_pair(&mut rng, round);
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

        /// The identity the block pick rests on: a candidate's score is its
        /// weight off the current support plus F of its basis-remapped
        /// operator counts on the support. One memo serves every pair, as
        /// one serves a whole extraction.
        #[test]
        fn score_is_off_support_weight_plus_f_of_the_counts(
            seed in proptest::any::<u64>(),
            recursive_tree in proptest::any::<bool>(),
        ) {
            let mut rng = proptest::TestRng::deterministic(&seed.to_string());
            let mut scratch = OracleScratch::default();
            let mut after = AfterTree::default();
            for round in 0..32 {
                let (current, candidate) = random_pair(&mut rng, round);
                if current.is_identity() {
                    continue;
                }
                let support = current.support();
                let mut counts = [0usize; 4];
                for &q in &support {
                    let (x, z) = candidate.op(q).xz();
                    let (x, z) = remap_words(current.op(q), u64::from(x), u64::from(z));
                    let op = PauliOp::from_xz(x == 1, z == 1);
                    counts[GROUP_OPS.iter().position(|&g| g == op).unwrap()] += 1;
                }
                let off = candidate.weight() - (support.len() - counts[1]);
                let expected =
                    extraction_cost(recursive_tree, &current, &support, &candidate, &mut scratch);
                let score = off + after.weight(recursive_tree, counts);
                proptest::prop_assert!(
                    score == expected,
                    "current {current} candidate {candidate}: {score} != {expected}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Every pick of a whole extraction, block pick against the
        /// per-candidate oracle: 2–300 rows, so candidates cross 64-row
        /// words and the frame is compacted; 1–130 qubits, so the qubit
        /// words of a gathered row are crossed too.
        #[test]
        fn block_pick_matches_the_per_candidate_pick(
            seed in proptest::any::<u64>(),
            recursive_tree in proptest::any::<bool>(),
            diagonal in proptest::any::<bool>(),
        ) {
            let mut rng = proptest::TestRng::deterministic(&seed.to_string());
            let n = 1 + (rng.next_u64() % 130) as usize;
            let rows = 2 + (rng.next_u64() % 299) as usize;
            let rotations = random_blocks(&mut rng, n, rows, diagonal);
            let config = ExtractionConfig {
                recursive_tree,
                ..ExtractionConfig::default()
            };
            let mut oracle = OracleScratch::default();
            let mut mismatches = Vec::new();
            let mut picks = 0;
            let _ = extract_with(&rotations, &config, |state, current_row, candidates| {
                let pick = state.find_next_pauli(current_row, candidates);
                let expected = oracle_pick(state, &mut oracle, current_row, candidates);
                if pick != expected {
                    mismatches.push((picks, pick, expected));
                }
                picks += 1;
                expected
            });
            proptest::prop_assert!(
                mismatches.is_empty(),
                "{n} qubits, {rows} rows: (pick, block, oracle) {mismatches:?}"
            );
        }

        /// Algorithm 2's calling convention, through the `pick` hook. The
        /// pick that fills slot `k + 1` is scored against slot `k`, the
        /// rotation extracted just before it, among the remaining slots of
        /// slot `k + 1`'s block, across block boundaries too; the program's
        /// first pick fills slot 0 against the input's first rotation. Every
        /// image is followed independently: each input axis conjugated
        /// through the forward gates emitted so far.
        #[test]
        fn every_pick_is_scored_against_the_rotation_extracted_before_it(
            seed in proptest::any::<u64>(),
            recursive_tree in proptest::any::<bool>(),
            diagonal in proptest::any::<bool>(),
        ) {
            let mut rng = proptest::TestRng::deterministic(&seed.to_string());
            let n = 1 + (rng.next_u64() % 130) as usize;
            let rows = 1 + (rng.next_u64() % 150) as usize;
            let rotations = distinct_program(&mut rng, n, rows, diagonal);
            let config = ExtractionConfig {
                recursive_tree,
                ..ExtractionConfig::default()
            };
            let emitted = emitted_order(&rotations, &extract_clifford(&rotations, &config).optimized);
            proptest::prop_assert_eq!(emitted.len(), rotations.len());

            let blocks = CommutingBlocks::from_rotations(&rotations);
            let blocks = blocks.blocks();
            let block_of = |slot: usize| blocks.iter().find(|b| b.contains(&slot)).unwrap().clone();
            let mut images = PauliFrame::from_paulis(n, rotations.iter().map(PauliRotation::pauli));
            let (mut applied, mut picks, mut boundary_picks) = (0, 0, 0);
            let mut errors = Vec::new();
            let _ = extract_with(&rotations, &config, |state, current_row, candidates| {
                let gates = state.optimized.gates();
                for gate in &gates[applied..] {
                    if !matches!(gate, Gate::Rz { .. }) {
                        conjugate_all_by_gate(&mut images, gate);
                    }
                }
                applied = gates.len();
                let extracted = gates.iter().filter(|g| matches!(g, Gate::Rz { .. })).count();
                let first = picks == 0 && blocks[0].len() > 1;
                let slot = if first { 0 } else { extracted + 1 };
                let current = if first { 0 } else { emitted[slot - 1] };
                let block = block_of(slot);
                boundary_picks += usize::from(slot > 0 && slot == block.start);
                if state.images.row_pauli(current_row) != images.row_pauli(current) {
                    errors.push(format!("pick {picks} (slot {slot}): scored against the wrong row"));
                }
                let remaining = block.filter(|&r| !emitted[..slot].contains(&r) && r != current);
                if sorted_strings(&state.images, candidates.iter().copied())
                    != sorted_strings(&images, remaining)
                {
                    errors.push(format!("pick {picks} (slot {slot}): wrong candidates"));
                }
                let pick = state.find_next_pauli(current_row, candidates);
                if state.images.row_pauli(candidates[pick]) != images.row_pauli(emitted[slot]) {
                    errors.push(format!("pick {picks} (slot {slot}): the pick was not extracted there"));
                }
                picks += 1;
                pick
            });
            proptest::prop_assert!(errors.is_empty(), "{n} qubits: {errors:?}");
            // A block of length L takes L - 1 picks, one per slot but its last.
            proptest::prop_assert_eq!(picks, blocks.iter().map(|b| b.len() - 1).sum::<usize>());
            proptest::prop_assert_eq!(
                boundary_picks,
                blocks[1..].iter().filter(|b| b.len() > 1).count()
            );
        }
    }
}
