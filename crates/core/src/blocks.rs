//! Conversion of a Pauli-rotation sequence into blocks of mutually commuting
//! rotations.
//!
//! QuCLEAR allows the rotations *within* a block to be reordered (they
//! commute, so any order implements the same unitary), while the order of the
//! blocks themselves is fixed. This captures local commutation structure
//! without assuming any prior knowledge about the benchmark (Section V-C of
//! the paper).

use std::ops::Range;

use quclear_pauli::PauliRotation;

/// A partition of a rotation sequence into maximal runs of mutually commuting
/// rotations, held as index ranges into that sequence.
///
/// # Examples
///
/// ```
/// use quclear_core::CommutingBlocks;
/// use quclear_pauli::PauliRotation;
///
/// let rotations = vec![
///     PauliRotation::parse("ZZI", 0.1)?,
///     PauliRotation::parse("IZZ", 0.2)?, // commutes with the previous one
///     PauliRotation::parse("XII", 0.3)?, // does not commute → new block
/// ];
/// let blocks = CommutingBlocks::from_rotations(&rotations);
/// assert_eq!(blocks.blocks(), &[0..2, 2..3]);
/// assert_eq!(rotations[blocks.blocks()[0].clone()].len(), 2);
/// # Ok::<(), quclear_pauli::ParsePauliError>(())
/// ```
#[derive(Clone, Debug)]
pub struct CommutingBlocks {
    blocks: Vec<Range<usize>>,
}

impl CommutingBlocks {
    /// Greedily partitions the rotations: each rotation joins the current
    /// block if it commutes with *every* rotation already in it, otherwise a
    /// new block starts. Complexity O(n·m²) in the worst case (all commuting).
    #[must_use]
    pub fn from_rotations(rotations: &[PauliRotation]) -> Self {
        let mut blocks: Vec<Range<usize>> = Vec::new();
        for (i, rotation) in rotations.iter().enumerate() {
            match blocks.last_mut() {
                Some(block)
                    if rotations[block.clone()]
                        .iter()
                        .all(|other| other.pauli().commutes_with(rotation.pauli())) =>
                {
                    block.end = i + 1;
                }
                _ => blocks.push(i..i + 1),
            }
        }
        CommutingBlocks { blocks }
    }

    /// Treats each of `len` rotations as its own block (disables
    /// intra-block reordering); used by the ablation experiments.
    #[must_use]
    pub fn singletons(len: usize) -> Self {
        CommutingBlocks {
            blocks: (0..len).map(|i| i..i + 1).collect(),
        }
    }

    /// The blocks, in circuit order, as index ranges into the partitioned
    /// sequence.
    #[must_use]
    pub fn blocks(&self) -> &[Range<usize>] {
        &self.blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rot(s: &str) -> PauliRotation {
        PauliRotation::parse(s, 0.1).unwrap()
    }

    fn block_sizes(blocks: &CommutingBlocks) -> Vec<usize> {
        blocks.blocks().iter().map(ExactSizeIterator::len).collect()
    }

    #[test]
    fn all_commuting_forms_one_block() {
        let rotations = vec![rot("ZZII"), rot("IZZI"), rot("IIZZ"), rot("ZIIZ")];
        let blocks = CommutingBlocks::from_rotations(&rotations);
        assert_eq!(block_sizes(&blocks), vec![4]);
    }

    #[test]
    fn anticommuting_neighbours_split() {
        let rotations = vec![rot("ZI"), rot("XI"), rot("ZI")];
        let blocks = CommutingBlocks::from_rotations(&rotations);
        assert_eq!(block_sizes(&blocks), vec![1, 1, 1]);
    }

    #[test]
    fn block_requires_commuting_with_every_member() {
        // ZZ commutes with XX, and YY commutes with both, so all three join
        // one block; then XI anticommutes with ZZ and starts a new block.
        let rotations = vec![rot("ZZ"), rot("XX"), rot("YY"), rot("XI")];
        let blocks = CommutingBlocks::from_rotations(&rotations);
        assert_eq!(block_sizes(&blocks), vec![3, 1]);
    }

    #[test]
    fn qaoa_structure_gives_two_blocks_per_layer() {
        // Problem layer (all Z-type, mutually commuting) then mixer layer.
        let rotations = vec![
            rot("ZZI"),
            rot("IZZ"),
            rot("ZIZ"),
            rot("XII"),
            rot("IXI"),
            rot("IIX"),
        ];
        let blocks = CommutingBlocks::from_rotations(&rotations);
        assert_eq!(block_sizes(&blocks), vec![3, 3]);
    }

    #[test]
    fn singletons_disable_grouping() {
        let blocks = CommutingBlocks::singletons(2);
        assert_eq!(blocks.blocks(), &[0..1, 1..2]);
    }

    #[test]
    fn empty_input_gives_no_blocks() {
        let blocks = CommutingBlocks::from_rotations(&[]);
        assert!(blocks.blocks().is_empty());
    }
}
