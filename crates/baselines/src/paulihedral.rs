//! A Paulihedral-like baseline: block-wise synthesis with gate cancellation.
//!
//! Paulihedral (Li et al., ASPLOS 2022) groups rotations into blocks of
//! mutually commuting Pauli strings and orders/synthesizes them so that the
//! CNOT ladders of adjacent gadgets share structure and cancel. This
//! re-implementation captures that core idea:
//!
//! 1. rotations are grouped into commuting blocks,
//! 2. inside each block the rotations are ordered greedily to maximize
//!    support overlap between neighbours,
//! 3. each gadget's CNOT ladder is ordered so that qubits shared with the
//!    next gadget sit at the bottom of the ladder (maximizing suffix/prefix
//!    cancellation),
//! 4. the peephole pass removes the cancelled gate pairs.
//!
//! Like the original, it preserves the full unitary: nothing is deferred to
//! classical post-processing.

use quclear_circuit::{optimize, Circuit};
use quclear_core::CommutingBlocks;
use quclear_pauli::{PauliRotation, PauliString};

use crate::naive::append_v_shape;

/// Synthesizes a rotation program with the Paulihedral-like block-wise
/// strategy (including the final peephole clean-up).
///
/// # Panics
///
/// Panics if the rotations act on different register sizes.
///
/// # Examples
///
/// ```
/// use quclear_baselines::{synthesize_naive, synthesize_paulihedral_like};
/// use quclear_pauli::PauliRotation;
///
/// let program = vec![
///     PauliRotation::parse("ZZZI", 0.3)?,
///     PauliRotation::parse("IZZZ", 0.5)?,
/// ];
/// let ph = synthesize_paulihedral_like(&program);
/// assert!(ph.cnot_count() <= synthesize_naive(&program).cnot_count());
/// # Ok::<(), quclear_pauli::ParsePauliError>(())
/// ```
#[must_use]
pub fn synthesize_paulihedral_like(rotations: &[PauliRotation]) -> Circuit {
    let n = rotations
        .first()
        .map_or(0, quclear_pauli::PauliRotation::num_qubits);
    let blocks = CommutingBlocks::from_rotations(rotations);

    let mut qc = Circuit::new(n);
    for block in blocks.blocks() {
        let ordered = order_block(&rotations[block.clone()]);
        for (i, rotation) in ordered.iter().enumerate() {
            if rotation.is_trivial() {
                continue;
            }
            let next_support: Option<Vec<usize>> = ordered.get(i + 1).map(|r| r.pauli().support());
            let order = ladder_order(rotation.pauli(), next_support.as_deref());
            append_v_shape(&mut qc, rotation, Some(&order));
        }
    }
    optimize(&qc)
}

/// Orders the rotations of a commuting block greedily by support overlap with
/// the previously placed rotation (a lexicographic tie-break keeps the result
/// deterministic).
fn order_block(block: &[PauliRotation]) -> Vec<PauliRotation> {
    if block.len() <= 2 {
        return block.to_vec();
    }
    let mut remaining: Vec<PauliRotation> = block.to_vec();
    let mut ordered = Vec::with_capacity(block.len());
    // Start from the first rotation (input order matters for determinism).
    ordered.push(remaining.remove(0));
    while !remaining.is_empty() {
        let last = ordered
            .last()
            .expect("ordered is non-empty")
            .pauli()
            .clone();
        let (best_idx, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, r)| (i, overlap_score(&last, r.pauli())))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .expect("remaining is non-empty");
        ordered.push(remaining.remove(best_idx));
    }
    ordered
}

/// Number of qubits where both strings carry the *same* non-identity
/// operator (those are the positions whose ladder gates can cancel), plus a
/// smaller credit for shared support with different operators.
fn overlap_score(a: &PauliString, b: &PauliString) -> usize {
    let mut same = 0;
    let mut shared = 0;
    for (qa, op_a) in a.ops() {
        let op_b = b.op(qa);
        if op_a.is_identity() || op_b.is_identity() {
            continue;
        }
        shared += 1;
        if op_a == op_b {
            same += 1;
        }
    }
    2 * same + shared
}

/// Orders a gadget's support so that the qubits shared with the next gadget
/// come first. The mirrored half of the gadget ends with the CNOTs over those
/// shared qubits, placing them directly against the next gadget's ladder head
/// so the peephole pass can cancel them.
fn ladder_order(pauli: &PauliString, next_support: Option<&[usize]>) -> Vec<usize> {
    let mut support = pauli.support();
    let Some(next) = next_support else {
        return support;
    };
    support.sort_by_key(|q| (!next.contains(q), *q));
    support
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::synthesize_naive;

    fn rot(s: &str, a: f64) -> PauliRotation {
        PauliRotation::parse(s, a).unwrap()
    }

    #[test]
    fn cancels_between_similar_neighbours() {
        // ZZZI and IZZZ share qubits 1,2 with identical operators; the
        // block-wise ladders should cancel at least one CNOT pair.
        let program = vec![rot("ZZZI", 0.3), rot("IZZZ", 0.5)];
        let ph = synthesize_paulihedral_like(&program);
        let naive = synthesize_naive(&program);
        assert!(
            ph.cnot_count() < naive.cnot_count(),
            "{} vs {}",
            ph.cnot_count(),
            naive.cnot_count()
        );
    }

    #[test]
    fn reorders_within_commuting_blocks_for_cancellation() {
        // The middle rotation is unrelated; reordering within the commuting
        // block should put the two ZZ-type rotations next to each other.
        let program = vec![rot("ZZII", 0.3), rot("IIZZ", 0.1), rot("ZZZZ", 0.5)];
        let ph = synthesize_paulihedral_like(&program);
        let naive = synthesize_naive(&program);
        assert!(ph.cnot_count() < naive.cnot_count());
    }

    #[test]
    fn never_worse_than_naive_on_uccsd_blocks() {
        let paulis = [
            "XXXY", "XXYX", "XYXX", "YXXX", "YYYX", "YYXY", "YXYY", "XYYY",
        ];
        let program: Vec<PauliRotation> = paulis.iter().map(|p| rot(p, 0.2)).collect();
        let ph = synthesize_paulihedral_like(&program);
        let naive = synthesize_naive(&program);
        assert!(ph.cnot_count() <= naive.cnot_count());
    }

    #[test]
    fn empty_and_trivial_programs() {
        assert!(synthesize_paulihedral_like(&[]).is_empty());
        assert!(synthesize_paulihedral_like(&[rot("II", 0.4)]).is_empty());
    }

    #[test]
    fn overlap_score_prefers_identical_operators() {
        let a: PauliString = "ZZXI".parse().unwrap();
        let b: PauliString = "ZZYI".parse().unwrap();
        let c: PauliString = "IIXZ".parse().unwrap();
        assert!(overlap_score(&a, &b) > overlap_score(&a, &c));
    }
}
