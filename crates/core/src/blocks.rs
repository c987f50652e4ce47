//! Conversion of a Pauli-rotation sequence into blocks of mutually commuting
//! rotations.
//!
//! QuCLEAR allows the rotations *within* a block to be reordered (they
//! commute, so any order implements the same unitary), while the order of the
//! blocks themselves is fixed. This captures local commutation structure
//! without assuming any prior knowledge about the benchmark (Section V-C of
//! the paper).

use std::ops::Range;

use quclear_pauli::{PauliRotation, PauliString};

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
    /// new block starts.
    ///
    /// The symplectic product is bilinear, so a rotation commutes with every
    /// member of a block exactly when it commutes with a basis of their span.
    /// The members commute, so the span is isotropic and its echelon basis
    /// holds at most n vectors: a rotation costs O(n²/64) words however long
    /// its block is.
    ///
    /// # Panics
    ///
    /// Panics if the rotations act on different register sizes.
    #[must_use]
    pub fn from_rotations(rotations: &[PauliRotation]) -> Self {
        let mut blocks: Vec<Range<usize>> = Vec::new();
        let mut span = Span::default();
        for (i, rotation) in rotations.iter().enumerate() {
            let pauli = rotation.pauli();
            assert_eq!(
                pauli.num_qubits(),
                rotations[0].num_qubits(),
                "all rotations must act on the same register"
            );
            match blocks.last_mut() {
                Some(block) if span.commutes_with(pauli) => block.end = i + 1,
                _ => {
                    blocks.push(i..i + 1);
                    span.clear();
                }
            }
            span.insert(pauli);
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

/// An echelon basis of the span of a block's strings, as symplectic
/// vectors (X words, then Z words) in one flat reused buffer. Each vector
/// is zero at the pivot bit of every vector before it, and its own pivot is
/// its lowest set bit.
#[derive(Debug, Default)]
struct Span {
    /// Words per vector: both halves.
    width: usize,
    vectors: Vec<u64>,
    /// Each vector's pivot, as a word index and a one-bit mask.
    pivots: Vec<(usize, u64)>,
}

impl Span {
    fn clear(&mut self) {
        self.vectors.clear();
        self.pivots.clear();
    }

    /// Whether `pauli` commutes with every vector of the basis.
    fn commutes_with(&self, pauli: &PauliString) -> bool {
        let (x, z) = (pauli.x_bits().words(), pauli.z_bits().words());
        // An empty register has width zero and no vectors.
        self.vectors.chunks_exact(self.width.max(1)).all(|vector| {
            let (vx, vz) = vector.split_at(x.len());
            let odd = vx
                .iter()
                .zip(z)
                .zip(vz.iter().zip(x))
                .fold(0, |acc, ((&vx, &z), (&vz, &x))| acc ^ (vx & z) ^ (vz & x));
            odd.count_ones().is_multiple_of(2)
        })
    }

    /// Adds `pauli` to the span: reduces it against the basis and keeps the
    /// remainder when it is not zero.
    fn insert(&mut self, pauli: &PauliString) {
        let (x, z) = (pauli.x_bits().words(), pauli.z_bits().words());
        self.width = x.len() + z.len();
        let start = self.vectors.len();
        self.vectors.extend_from_slice(x);
        self.vectors.extend_from_slice(z);
        for k in 0..self.pivots.len() {
            let (word, bit) = self.pivots[k];
            if self.vectors[start + word] & bit != 0 {
                let (basis, rest) = self.vectors.split_at_mut(start);
                for (r, &v) in rest.iter_mut().zip(&basis[k * self.width..]) {
                    *r ^= v;
                }
            }
        }
        let rest = &self.vectors[start..];
        match rest.iter().position(|&w| w != 0) {
            Some(word) => self
                .pivots
                .push((word, rest[word] & rest[word].wrapping_neg())),
            None => self.vectors.truncate(start),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{random_blocks, random_pauli};
    use quclear_pauli::PauliOp;

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

    /// The pairwise scan the span test replaced: a rotation joins the current
    /// block when it commutes with every member.
    fn pairwise_blocks(rotations: &[PauliRotation]) -> Vec<Range<usize>> {
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
        blocks
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Random programs of mixed runs: commuting runs (longer than the
        /// register, so members depend on each other), single random strings
        /// and identities, on 1–8 qubits half the time, where a random string
        /// often commutes with a whole block, and on 1–130 otherwise.
        #[test]
        fn span_partition_matches_the_pairwise_scan(seed in proptest::any::<u64>()) {
            let mut rng = proptest::TestRng::deterministic(&seed.to_string());
            let n = 1 + (rng.next_u64() % if rng.next_u64().is_multiple_of(2) { 8 } else { 130 }) as usize;
            let mut rotations = Vec::new();
            for _ in 0..1 + rng.next_u64() % 8 {
                match rng.next_u64() % 4 {
                    0 | 1 => {
                        let rows = 1 + (rng.next_u64() % 40) as usize;
                        let diagonal = rng.next_u64().is_multiple_of(2);
                        rotations.extend(random_blocks(&mut rng, n, rows, diagonal));
                    }
                    2 => {
                        let palette = [PauliOp::I, PauliOp::X, PauliOp::Y, PauliOp::Z];
                        let pauli = random_pauli(&mut rng, n, &palette);
                        rotations.push(PauliRotation::new(pauli, 0.1));
                    }
                    _ => rotations.push(PauliRotation::new(PauliString::identity(n), 0.1)),
                }
            }
            let blocks = CommutingBlocks::from_rotations(&rotations);
            proptest::prop_assert_eq!(blocks.blocks().to_vec(), pairwise_blocks(&rotations));
        }
    }
}
