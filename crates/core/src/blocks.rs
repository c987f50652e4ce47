//! Conversion of a Pauli-rotation sequence into blocks of mutually commuting
//! rotations.
//!
//! QuCLEAR allows the rotations *within* a block to be reordered (they
//! commute, so any order implements the same unitary), while the order of the
//! blocks themselves is fixed. This captures local commutation structure
//! without assuming any prior knowledge about the benchmark (Section V-C of
//! the paper).

use quclear_pauli::PauliRotation;

/// A partition of a rotation sequence into maximal runs of mutually commuting
/// rotations.
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
/// assert_eq!(blocks.num_blocks(), 2);
/// assert_eq!(blocks.blocks()[0].len(), 2);
/// # Ok::<(), quclear_pauli::ParsePauliError>(())
/// ```
#[derive(Clone, Debug)]
pub struct CommutingBlocks {
    blocks: Vec<Vec<PauliRotation>>,
}

impl CommutingBlocks {
    /// Greedily partitions the rotations: each rotation joins the current
    /// block if it commutes with *every* rotation already in it, otherwise a
    /// new block starts. Complexity O(n·m²) in the worst case (all commuting).
    #[must_use]
    pub fn from_rotations(rotations: &[PauliRotation]) -> Self {
        let mut blocks: Vec<Vec<PauliRotation>> = Vec::new();
        for rotation in rotations {
            let fits = blocks.last().is_some_and(|block| {
                block
                    .iter()
                    .all(|other| other.pauli().commutes_with(rotation.pauli()))
            });
            if fits {
                blocks
                    .last_mut()
                    .expect("fits implies a last block exists")
                    .push(rotation.clone());
            } else {
                blocks.push(vec![rotation.clone()]);
            }
        }
        CommutingBlocks { blocks }
    }

    /// Treats every rotation as its own block (disables intra-block
    /// reordering); used by the ablation experiments.
    #[must_use]
    pub fn singletons(rotations: &[PauliRotation]) -> Self {
        CommutingBlocks {
            blocks: rotations.iter().map(|r| vec![r.clone()]).collect(),
        }
    }

    /// The blocks, in circuit order.
    #[must_use]
    pub fn blocks(&self) -> &[Vec<PauliRotation>] {
        &self.blocks
    }

    /// Mutable access to the blocks (the extractor reorders rotations within
    /// a block in place).
    pub(crate) fn blocks_mut(&mut self) -> &mut [Vec<PauliRotation>] {
        &mut self.blocks
    }

    /// Number of blocks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Flattens the blocks back into a single rotation sequence.
    #[must_use]
    pub fn flatten(&self) -> Vec<PauliRotation> {
        self.blocks.iter().flatten().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rot(s: &str) -> PauliRotation {
        PauliRotation::parse(s, 0.1).unwrap()
    }

    fn block_sizes(blocks: &CommutingBlocks) -> Vec<usize> {
        blocks.blocks().iter().map(Vec::len).collect()
    }

    #[test]
    fn all_commuting_forms_one_block() {
        let rotations = vec![rot("ZZII"), rot("IZZI"), rot("IIZZ"), rot("ZIIZ")];
        let blocks = CommutingBlocks::from_rotations(&rotations);
        assert_eq!(blocks.num_blocks(), 1);
        assert_eq!(blocks.flatten().len(), 4);
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
        assert_eq!(blocks.num_blocks(), 2);
        assert_eq!(block_sizes(&blocks), vec![3, 3]);
    }

    #[test]
    fn singletons_disable_grouping() {
        let rotations = vec![rot("ZZ"), rot("XX")];
        let blocks = CommutingBlocks::singletons(&rotations);
        assert_eq!(block_sizes(&blocks), vec![1, 1]);
    }

    #[test]
    fn flatten_preserves_order_and_count() {
        let rotations = vec![rot("ZZ"), rot("XX"), rot("ZI")];
        let blocks = CommutingBlocks::from_rotations(&rotations);
        let flat = blocks.flatten();
        assert_eq!(flat.len(), 3);
        assert_eq!(flat[2].pauli().to_string(), "ZI");
    }

    #[test]
    fn empty_input_gives_no_blocks() {
        let blocks = CommutingBlocks::from_rotations(&[]);
        assert_eq!(blocks.num_blocks(), 0);
        assert_eq!(blocks.flatten().len(), 0);
    }
}
