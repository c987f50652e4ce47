//! Dense GF(2) linear algebra for the probability post-processing of
//! Clifford Absorption.
//!
//! The matrix rows are bit-packed ([`BitVec`]), so a matrix–vector product
//! is a handful of AND/popcount word operations per row, and the CA-Post
//! affine map over a *batch* of shots is a matrix product against per-qubit
//! shot bit-planes ([`Gf2Matrix::mul_planes`]) — XOR of whole planes, no
//! per-shot work at all.

use std::fmt;

use quclear_pauli::BitVec;

/// A square matrix over GF(2) with bit-packed rows.
///
/// Used to represent the action of a CNOT network on computational basis
/// states: the network maps `|x⟩ ↦ |A·x ⊕ b⟩` for an invertible `A`.
///
/// # Examples
///
/// ```
/// use quclear_core::Gf2Matrix;
///
/// let mut m = Gf2Matrix::identity(3);
/// m.set(0, 2, true);
/// let v = m.mul_vec(&[false, false, true]);
/// assert_eq!(v, vec![true, false, true]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Gf2Matrix {
    n: usize,
    rows: Vec<BitVec>,
}

impl Gf2Matrix {
    /// The `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let rows = (0..n)
            .map(|i| {
                let mut row = BitVec::zeros(n);
                row.set(i, true);
                row
            })
            .collect();
        Gf2Matrix { n, rows }
    }

    /// The `n × n` zero matrix.
    #[must_use]
    pub fn zeros(n: usize) -> Self {
        Gf2Matrix {
            n,
            rows: vec![BitVec::zeros(n); n],
        }
    }

    /// Builds a matrix from explicit boolean rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not form a square matrix.
    #[must_use]
    pub fn from_rows(rows: Vec<Vec<bool>>) -> Self {
        let n = rows.len();
        let rows = rows
            .into_iter()
            .map(|row| {
                assert_eq!(row.len(), n, "Gf2Matrix rows must form a square matrix");
                BitVec::from_bools(row)
            })
            .collect();
        Gf2Matrix { n, rows }
    }

    /// Entry accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> bool {
        self.rows[row].get(col)
    }

    /// Entry mutator.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        self.rows[row].set(col, value);
    }

    /// Matrix–vector product over GF(2).
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from the dimension.
    #[must_use]
    pub fn mul_vec(&self, v: &[bool]) -> Vec<bool> {
        assert_eq!(v.len(), self.n, "vector length must match matrix dimension");
        let packed = BitVec::from_bools(v.iter().copied());
        self.rows
            .iter()
            .map(|row| row.and_parity(&packed))
            .collect()
    }

    /// Applies the matrix to a basis-state index (bit `q` of the index is the
    /// value of qubit `q`): each output bit is one AND + popcount-parity of a
    /// packed row against the index word.
    #[must_use]
    pub fn mul_index(&self, index: usize) -> usize {
        debug_assert!(
            self.n <= 64,
            "mul_index addresses at most 64 qubits; use mul_planes for larger registers"
        );
        let word = index as u64;
        let mut out = 0usize;
        for (r, row) in self.rows.iter().enumerate() {
            let parity = row
                .words()
                .first()
                .map_or(0, |&w| (w & word).count_ones() & 1);
            out |= (parity as usize) << r;
        }
        out
    }

    /// Applies the matrix to a *batch* of basis states stored column-major as
    /// per-qubit bit-planes: `planes[q]` holds bit `q` of every state in the
    /// batch, and output plane `r` is the XOR of the input planes selected by
    /// row `r` — the packed matvec behind bit-plane CA-Post.
    ///
    /// Each output plane is produced in a **single fused pass**
    /// ([`simd::xor_many_into`]): every selected input plane is read once and
    /// the output written once, instead of one read-modify-write sweep per
    /// selected column.
    ///
    /// # Panics
    ///
    /// Panics if `planes.len()` differs from the dimension or the planes have
    /// inconsistent lengths.
    #[must_use]
    pub fn mul_planes(&self, planes: &[BitVec]) -> Vec<BitVec> {
        assert_eq!(
            planes.len(),
            self.n,
            "plane count must match matrix dimension"
        );
        let shots = planes.first().map_or(0, BitVec::len);
        self.rows
            .iter()
            .map(|row| {
                let mut out = BitVec::zeros(shots);
                let srcs: Vec<&[u64]> = row.iter_ones().map(|c| planes[c].words()).collect();
                simd::xor_many_into(out.words_mut(), &srcs);
                debug_assert!(
                    out.tail_is_clear(),
                    "fused xor must not set bits past the shot count"
                );
                out
            })
            .collect()
    }

    /// The inverse matrix, if it exists (Gauss–Jordan elimination with
    /// word-parallel row XORs).
    #[must_use]
    pub fn inverse(&self) -> Option<Gf2Matrix> {
        let n = self.n;
        let mut a = self.rows.clone();
        let mut inv = Gf2Matrix::identity(n).rows;
        for col in 0..n {
            let pivot = (col..n).find(|&r| a[r].get(col))?;
            a.swap(col, pivot);
            inv.swap(col, pivot);
            let (pivot_a, pivot_inv) = (a[col].clone(), inv[col].clone());
            for r in 0..n {
                if r != col && a[r].get(col) {
                    a[r].xor_with(&pivot_a);
                    inv[r].xor_with(&pivot_inv);
                }
            }
        }
        Some(Gf2Matrix { n, rows: inv })
    }
}

impl fmt::Debug for Gf2Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Gf2Matrix {}x{}:", self.n, self.n)?;
        for row in &self.rows {
            for c in 0..self.n {
                write!(f, "{}", u8::from(row.get(c)))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_acts_trivially() {
        let m = Gf2Matrix::identity(4);
        assert_eq!(m.mul_index(0b1011), 0b1011);
        assert_eq!(m.inverse().unwrap(), m);
    }

    #[test]
    fn cnot_like_matrix_and_inverse() {
        // x0' = x0, x1' = x0 ⊕ x1 (a CNOT from qubit 0 to qubit 1).
        let mut m = Gf2Matrix::identity(2);
        m.set(1, 0, true);
        assert_eq!(m.mul_index(0b01), 0b11);
        assert_eq!(m.mul_index(0b10), 0b10);
        let inv = m.inverse().unwrap();
        // A CNOT is its own inverse.
        assert_eq!(inv, m);
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let m = Gf2Matrix::zeros(3);
        assert!(m.inverse().is_none());
        let mut m = Gf2Matrix::identity(3);
        m.set(2, 2, false);
        assert!(m.inverse().is_none());
    }

    #[test]
    fn inverse_roundtrip_on_random_like_matrix() {
        let rows = vec![
            vec![true, true, false, true],
            vec![false, true, true, false],
            vec![true, false, true, false],
            vec![false, false, true, true],
        ];
        let m = Gf2Matrix::from_rows(rows);
        if let Some(inv) = m.inverse() {
            for idx in 0..16 {
                assert_eq!(inv.mul_index(m.mul_index(idx)), idx);
            }
        }
    }

    #[test]
    fn mul_planes_matches_per_index_map() {
        // x0' = x0 ⊕ x2, x1' = x1, x2' = x0 ⊕ x1 ⊕ x2.
        let m = Gf2Matrix::from_rows(vec![
            vec![true, false, true],
            vec![false, true, false],
            vec![true, true, true],
        ]);
        // A batch of 70 states (crosses a word boundary).
        let states: Vec<usize> = (0..70).map(|i| (i * 37) % 8).collect();
        let mut planes = vec![BitVec::zeros(states.len()); 3];
        for (s, &x) in states.iter().enumerate() {
            for (q, plane) in planes.iter_mut().enumerate() {
                plane.set(s, x & (1 << q) != 0);
            }
        }
        let out = m.mul_planes(&planes);
        for (s, &x) in states.iter().enumerate() {
            let want = m.mul_index(x);
            for (q, plane) in out.iter().enumerate() {
                assert_eq!(plane.get(s), want & (1 << q) != 0, "state {s} bit {q}");
            }
        }
    }

    #[test]
    fn packed_and_boolean_rows_agree() {
        let rows = vec![
            vec![true, true, false, true],
            vec![false, true, true, false],
            vec![true, false, true, false],
            vec![false, false, true, true],
        ];
        let m = Gf2Matrix::from_rows(rows.clone());
        let v = [true, false, true, true];
        let want: Vec<bool> = rows
            .iter()
            .map(|r| r.iter().zip(&v).fold(false, |acc, (&m, &x)| acc ^ (m && x)))
            .collect();
        assert_eq!(m.mul_vec(&v), want);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_rejected() {
        let _ = Gf2Matrix::from_rows(vec![vec![true, false]]);
    }
}
