//! Runs of commuting rotations that one dense pass applies together.
//!
//! Rotations `P_1 … P_m` that share an X mask `x` and commute with `P_1`
//! differ from it only by a Z string on every amplitude pair `(j, j ^ x)`:
//! `P_k = q_k·P_1·Z^{d_k}` with `d_k = z_k ^ z_1` and
//! `q_k = i^{y_k − y_1} = ±1` (`y = |x & z|`, the Y count), and `Z^{d_k}` is
//! the scalar `(−1)^{|j & d_k|}` on the pair because `|x & d_k|` is even.
//! So the run's product is `exp(−i·φ(j)/2·P_1)` pair by pair, with
//! `φ(j) = Σ_k q_k·θ_k·(−1)^{|j & d_k|}`. `φ` depends on `j` only through
//! the parities of `j` under a basis of the span of the `d_k`, a linear key
//! of rank `r`, and the pass itself needs one more key bit, the Z parity
//! under `z_1` that signs the partner. One pass with a `2^(r+1)`-entry
//! `(cos, ±sin)` table therefore replaces the `m` rotation passes.
//!
//! An `x = 0` run takes the identity as its reference (`z_1 = 0`), so its
//! members are any Z strings.

use std::ops::Range;

use quclear_pauli::{BitVec, PauliRotation};

/// Largest key rank of a run: a run's table has at most `2^(MAX_RANK + 1)`
/// entries. A member that would raise the rank past it starts a new run.
const MAX_RANK: usize = 6;

/// Entries of the largest coefficient table.
pub(crate) const TABLE: usize = 2 << MAX_RANK;

/// One `(cos(φ/2), μ)` pair per key, where `μ` is the one non-zero
/// component of the partner coefficient (see [`RunKey::table`]).
pub(crate) type Table = [(f64, f64); TABLE];

/// `|v|` mod 2 as `0` or `1`.
pub(crate) fn parity(v: usize) -> usize {
    (v.count_ones() & 1) as usize
}

/// The X and Z masks of a rotation's axis. The state has at most 26
/// qubits, so one word holds each mask.
pub(crate) fn masks(rotation: &PauliRotation) -> (usize, usize) {
    let low_word = |bits: &BitVec| bits.words().first().map_or(0, |&w| w as usize);
    let pauli = rotation.pauli();
    (low_word(pauli.x_bits()), low_word(pauli.z_bits()))
}

/// The structure of a run: its X mask, its reference Z mask and the basis
/// of its key, in echelon form (each row's highest bit is clear in every
/// later row).
#[derive(Clone, Copy, Debug)]
pub(crate) struct RunKey {
    pub(crate) x: usize,
    z: usize,
    /// `|x & z|` of the reference.
    y: u32,
    basis: [usize; MAX_RANK],
    rank: usize,
}

/// A member's code: bits 0..6 are its `d_k` in the key basis, bit 7 is set
/// when `q_k = −1`.
const NEGATIVE: u8 = 0x80;

impl RunKey {
    /// The key of a run whose first member has masks `(x, z)`.
    pub(crate) fn new(x: usize, z: usize) -> RunKey {
        let z = if x == 0 { 0 } else { z };
        RunKey {
            x,
            z,
            y: (x & z).count_ones(),
            basis: [0; MAX_RANK],
            rank: 0,
        }
    }

    /// Admits the axis `(x, z)` and returns its member code, or `None` if
    /// it has another X mask, anticommutes with the reference, or would
    /// raise the rank past [`MAX_RANK`].
    pub(crate) fn admit(&mut self, x: usize, z: usize) -> Option<u8> {
        let mut d = z ^ self.z;
        if x != self.x || parity(x & d) == 1 {
            return None;
        }
        let mut code = 0u8;
        for (i, &row) in self.basis[..self.rank].iter().enumerate() {
            if d & (1 << (usize::BITS - 1 - row.leading_zeros())) != 0 {
                d ^= row;
                code |= 1 << i;
            }
        }
        if d != 0 {
            if self.rank == MAX_RANK {
                return None;
            }
            self.basis[self.rank] = d;
            code |= 1 << self.rank;
            self.rank += 1;
        }
        // q = i^{y − y_1}; y − y_1 is even, and (y + 3·y_1)/2 has the
        // parity of (y − y_1)/2 without going negative.
        let y = (x & z).count_ones();
        if ((y + 3 * self.y) / 2) % 2 == 1 {
            code |= NEGATIVE;
        }
        Some(code)
    }

    /// The key masks: bit `i < r` of an index's key is its parity under
    /// basis row `i`, bit `r` its parity under the reference Z mask.
    pub(crate) fn key_masks(&self) -> ([usize; MAX_RANK + 1], usize) {
        let mut key = [0; MAX_RANK + 1];
        key[..self.rank].copy_from_slice(&self.basis[..self.rank]);
        key[self.rank] = self.z;
        (key, self.rank + 1)
    }

    /// Whether the pass coefficient `m = −i·sin(φ/2)·i^{y_1}` is purely
    /// imaginary (an even reference Y count) rather than purely real. An
    /// odd count also makes `σ(j ^ x) = −σ(j)`.
    pub(crate) fn imaginary(&self) -> bool {
        self.y.is_multiple_of(2)
    }

    /// The pass table for members `(code, θ)`: entry `κ | s·2^r` holds
    /// `(cos(φ(κ)/2), ±μ(κ))`, negated when the partner's sign bit `s` is
    /// set, where `m = i·μ` or `m = μ` (see [`Self::imaginary`]). `φ` is the
    /// Walsh–Hadamard transform of the members' signed angles, bucketed by
    /// code.
    pub(crate) fn table(&self, members: impl IntoIterator<Item = (u8, f64)>) -> Table {
        let size = 1usize << self.rank;
        let mut phi = [0.0f64; 1 << MAX_RANK];
        for (code, angle) in members {
            let weight = if code & NEGATIVE == 0 { angle } else { -angle };
            phi[usize::from(code & !NEGATIVE)] += weight;
        }
        let mut h = 1;
        while h < size {
            for block in phi[..size].chunks_exact_mut(2 * h) {
                let (lo, hi) = block.split_at_mut(h);
                for (a, b) in lo.iter_mut().zip(hi) {
                    (*a, *b) = (*a + *b, *a - *b);
                }
            }
            h *= 2;
        }
        // m = −i·s·i^{y_1}: −s·i, s, s·i, −s for y_1 mod 4 = 0, 1, 2, 3.
        let flip = if matches!(self.y % 4, 0 | 3) {
            -1.0
        } else {
            1.0
        };
        let mut table = [(0.0, 0.0); TABLE];
        for (k, &phi) in phi[..size].iter().enumerate() {
            let (s, c) = (phi / 2.0).sin_cos();
            table[k] = (c, flip * s);
            table[k | size] = (c, -flip * s);
        }
        table
    }
}

/// A maximal run of consecutive program rotations that share one X mask
/// and commute with the run's first member, with a key of rank at most 6:
/// [`crate::StateVector::apply_rotation_run`] applies the whole run in one
/// dense pass. A run is structural — it keeps the axes, not the angles —
/// so a plan serves every binding of a program.
///
/// # Examples
///
/// ```
/// use quclear_pauli::PauliRotation;
/// use quclear_sim::{RotationRun, StateVector};
///
/// // A UCC double excitation: eight strings on one X mask.
/// let program: Vec<PauliRotation> = [
///     "XXXY", "XXYX", "XYXX", "YXXX", "YYYX", "YYXY", "YXYY", "XYYY",
/// ]
/// .iter()
/// .map(|s| PauliRotation::parse(s, 0.3))
/// .collect::<Result<_, _>>()?;
/// let runs = RotationRun::plan(&program);
/// assert_eq!(runs.len(), 1);
///
/// let mut fused = StateVector::zero_state(4);
/// fused.apply_rotation_run(&runs[0], &program);
/// let mut one_by_one = StateVector::zero_state(4);
/// one_by_one.apply_rotations(&program);
/// assert!(fused.approx_eq_up_to_phase(&one_by_one, 1e-12));
/// # Ok::<(), quclear_pauli::ParsePauliError>(())
/// ```
#[derive(Clone, Debug)]
pub struct RotationRun {
    num_qubits: usize,
    start: usize,
    key: RunKey,
    /// One code per member, in program order.
    codes: Vec<u8>,
}

impl RotationRun {
    /// Splits a program into maximal runs, greedily from the front: a
    /// rotation joins the current run if it shares the run's X mask,
    /// commutes with its first member and keeps the key rank at most 6,
    /// and starts a new run otherwise. Angles are ignored.
    ///
    /// # Panics
    ///
    /// Panics if the rotations act on different registers, or on more than
    /// 26 qubits.
    #[must_use]
    pub fn plan(program: &[PauliRotation]) -> Vec<RotationRun> {
        let num_qubits = program.first().map_or(0, PauliRotation::num_qubits);
        assert!(
            num_qubits <= 26,
            "a {num_qubits}-qubit program does not fit a state vector"
        );
        let mut runs: Vec<RotationRun> = Vec::new();
        for (index, rotation) in program.iter().enumerate() {
            assert_eq!(
                rotation.num_qubits(),
                num_qubits,
                "rotation {index} acts on another register"
            );
            let (x, z) = masks(rotation);
            if let Some(run) = runs.last_mut() {
                if let Some(code) = run.key.admit(x, z) {
                    run.codes.push(code);
                    continue;
                }
            }
            let mut key = RunKey::new(x, z);
            let code = key.admit(x, z).expect("a run admits its own reference");
            runs.push(RotationRun {
                num_qubits,
                start: index,
                key,
                codes: vec![code],
            });
        }
        runs
    }

    /// The program indices of the run's members.
    #[must_use]
    pub fn range(&self) -> Range<usize> {
        self.start..self.start + self.codes.len()
    }

    /// Register size of the run.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    pub(crate) fn key(&self) -> &RunKey {
        &self.key
    }

    pub(crate) fn codes(&self) -> &[u8] {
        &self.codes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program(axes: &[&str]) -> Vec<PauliRotation> {
        axes.iter()
            .map(|s| PauliRotation::parse(s, 0.2).unwrap())
            .collect()
    }

    fn sizes(runs: &[RotationRun]) -> Vec<usize> {
        runs.iter().map(|run| run.range().len()).collect()
    }

    #[test]
    fn x_mask_changes_and_anticommuting_neighbours_split() {
        // XX and YY share an X mask and commute; XY anticommutes with XX;
        // ZI has another X mask.
        let runs = RotationRun::plan(&program(&["XX", "YY", "XY", "ZI", "IZ"]));
        assert_eq!(sizes(&runs), vec![2, 1, 2]);
        assert_eq!(runs[2].range(), 3..5);
    }

    #[test]
    fn z_runs_split_at_the_rank_cap() {
        // Eight independent single-qubit Z strings: rank 6, then a new run.
        let axes: Vec<String> = (0..8)
            .map(|q| (0..8).map(|p| if p == q { 'Z' } else { 'I' }).collect())
            .collect();
        let axes: Vec<&str> = axes.iter().map(String::as_str).collect();
        let runs = RotationRun::plan(&program(&axes));
        assert_eq!(sizes(&runs), vec![6, 2]);
        // Dependent strings and the identity never raise the rank.
        let runs = RotationRun::plan(&program(&["ZZI", "IZZ", "ZIZ", "III", "ZZI"]));
        assert_eq!(sizes(&runs), vec![5]);
        assert_eq!(runs[0].key().rank, 2);
    }

    #[test]
    fn member_signs_follow_the_y_count_difference() {
        // X Y vs Y X: y = 1 each, q = +1. XX vs YY: y = 0 vs 2, q = −1.
        let mut key = RunKey::new(0b11, 0b01);
        assert_eq!(key.admit(0b11, 0b01), Some(0));
        assert_eq!(key.admit(0b11, 0b10).map(|c| c & NEGATIVE), Some(0));
        let mut key = RunKey::new(0b11, 0);
        assert_eq!(key.admit(0b11, 0), Some(0));
        assert_eq!(key.admit(0b11, 0b11), Some(0b1 | NEGATIVE));
    }
}
