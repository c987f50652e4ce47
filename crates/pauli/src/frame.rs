//! Word-parallel batches of signed Pauli strings ("Pauli frames").
//!
//! A [`PauliFrame`] stores `m` signed Pauli strings **column-major**: for
//! every qubit there is one X bit-plane and one Z bit-plane over the batch
//! dimension, plus one sign plane. In this layout, conjugating *every* Pauli
//! in the batch by a single Clifford gate touches only the planes of the one
//! or two qubits the gate acts on, and each update is a handful of
//! XOR/AND/NOT word operations over `m`-bit vectors — `O(m/64)` words per
//! gate instead of `m` separate string conjugations.
//!
//! This is the storage layout behind the bit-plane
//! `CliffordTableau` (a frame of the `2n` generator images) and behind the
//! extraction engine's lookahead window (a frame of all pending rotation
//! axes conjugated through the Clifford extracted so far).
//!
//! The per-gate update rules are the Aaronson–Gottesman tableau rules
//! expressed on bit-planes; writing `X`/`Z` for the planes of the touched
//! qubit and `S` for the sign plane:
//!
//! | gate      | plane update                         | sign update                  |
//! |-----------|--------------------------------------|------------------------------|
//! | `H`       | swap `X`, `Z`                        | `S ^= X & Z`                 |
//! | `S`       | `Z ^= X`                             | `S ^= X & Z`                 |
//! | `S†`      | `Z ^= X`                             | `S ^= X & !Z`                |
//! | `√X`      | `X ^= Z`                             | `S ^= Z & !X`                |
//! | `√X†`     | `X ^= Z`                             | `S ^= Z & X`                 |
//! | `X`       | —                                    | `S ^= Z`                     |
//! | `Y`       | —                                    | `S ^= X ^ Z`                 |
//! | `Z`       | —                                    | `S ^= X`                     |
//! | `CX(c,t)` | `Xt ^= Xc`, `Zc ^= Zt`               | `S ^= Xc & Zt & !(Xt ^ Zc)`  |
//! | `CZ(a,b)` | `Za ^= Xb`, `Zb ^= Xa`               | `S ^= Xa & Xb & (Za ^ Zb)`   |
//! | `SWAP`    | swap planes of `a` and `b`           | —                            |
//!
//! (sign updates read the *pre-update* planes).

use std::fmt;

use crate::bits::{transpose64_top, BitVec};
use crate::op::PauliOp;
use crate::signed::SignedPauli;
use crate::string::PauliString;

/// Disjoint mutable borrows of two planes of the same axis.
fn pair_mut(planes: &mut [BitVec], a: usize, b: usize) -> (&mut BitVec, &mut BitVec) {
    debug_assert_ne!(a, b);
    if a < b {
        let (lo, hi) = planes.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = planes.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

/// The fused CX conjugation sweep over raw plane words (pre-update reads):
/// `S ^= Xc & Zt & !(Xt ^ Zc)`, `Xt ^= Xc`, `Zc ^= Zt`.
fn cx_sweep(s: &mut [u64], xc: &[u64], xt: &mut [u64], zc: &mut [u64], zt: &[u64]) {
    for i in 0..s.len() {
        let (wxc, wzt, wxt, wzc) = (xc[i], zt[i], xt[i], zc[i]);
        s[i] ^= wxc & wzt & !(wxt ^ wzc);
        xt[i] = wxt ^ wxc;
        zc[i] = wzc ^ wzt;
    }
}

/// The fused CZ conjugation sweep over raw plane words (pre-update reads):
/// `S ^= Xa & Xb & (Za ^ Zb)`, `Za ^= Xb`, `Zb ^= Xa`.
fn cz_sweep(s: &mut [u64], xa: &[u64], xb: &[u64], za: &mut [u64], zb: &mut [u64]) {
    for i in 0..s.len() {
        let (wxa, wxb, wza, wzb) = (xa[i], xb[i], za[i], zb[i]);
        s[i] ^= wxa & wxb & (wza ^ wzb);
        za[i] = wza ^ wxb;
        zb[i] = wzb ^ wxa;
    }
}

/// A batch of signed Pauli strings stored as per-qubit bit-planes.
///
/// # Examples
///
/// ```
/// use quclear_pauli::{PauliFrame, SignedPauli};
///
/// let rows: Vec<SignedPauli> = vec!["XI".parse()?, "-ZZ".parse()?];
/// let mut frame = PauliFrame::from_signed(2, &rows);
/// frame.conj_h(0); // conjugate every row by H on qubit 0
/// assert_eq!(frame.get(0).to_string(), "+ZI");
/// assert_eq!(frame.get(1).to_string(), "-XZ");
/// # Ok::<(), quclear_pauli::ParsePauliError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct PauliFrame {
    n: usize,
    rows: usize,
    /// `x[q]` bit `i` = row `i` has an X component at qubit `q`.
    x: Vec<BitVec>,
    /// `z[q]` bit `i` = row `i` has a Z component at qubit `q`.
    z: Vec<BitVec>,
    /// Bit `i` = row `i` carries a −1 sign.
    signs: BitVec,
}

impl PauliFrame {
    /// Creates a frame of `rows` positive identity strings on `n` qubits.
    #[must_use]
    pub fn identities(n: usize, rows: usize) -> Self {
        PauliFrame {
            n,
            rows,
            x: (0..n).map(|_| BitVec::zeros(rows)).collect(),
            z: (0..n).map(|_| BitVec::zeros(rows)).collect(),
            signs: BitVec::zeros(rows),
        }
    }

    /// Builds a frame from borrowed phase-free Pauli strings (all signs
    /// positive).
    ///
    /// The row-major → column-major layout change runs through
    /// [`transpose64_top`] blocks (64 rows × 64 qubits at a time), so loading
    /// a large batch never touches individual bits.
    ///
    /// # Panics
    ///
    /// Panics if any string is not on `n` qubits.
    #[must_use]
    pub fn from_paulis<'a>(n: usize, paulis: impl IntoIterator<Item = &'a PauliString>) -> Self {
        let paulis: Vec<&PauliString> = paulis.into_iter().collect();
        let mut frame = PauliFrame::identities(n, paulis.len());
        frame.fill_planes(&paulis, |p| (p.x_bits(), p.z_bits()));
        frame
    }

    /// Builds a frame from signed Pauli strings (word-parallel transpose
    /// ingestion, like [`Self::from_paulis`]).
    ///
    /// # Panics
    ///
    /// Panics if any string is not on `n` qubits.
    #[must_use]
    pub fn from_signed(n: usize, paulis: &[SignedPauli]) -> Self {
        let mut frame = PauliFrame::identities(n, paulis.len());
        frame.fill_planes(paulis, |p| (p.pauli().x_bits(), p.pauli().z_bits()));
        let mut word = 0u64;
        for (i, p) in paulis.iter().enumerate() {
            word |= u64::from(p.is_negative()) << (i % 64);
            if i % 64 == 63 {
                frame.signs.words_mut()[i / 64] = word;
                word = 0;
            }
        }
        if !paulis.len().is_multiple_of(64) {
            frame.signs.words_mut()[paulis.len() / 64] = word;
        }
        debug_assert!(
            frame.signs.tail_is_clear(),
            "sign ingestion must not write past the row count"
        );
        frame
    }

    /// Fills the X/Z planes from row-major symplectic bit vectors via
    /// 64×64 block transposes.
    fn fill_planes<T>(&mut self, rows: &[T], bits: impl Fn(&T) -> (&BitVec, &BitVec)) {
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                bits(row).0.len(),
                self.n,
                "qubit count mismatch in PauliFrame row {i}"
            );
        }
        let col_words = self.n.div_ceil(64);
        let row_blocks = rows.len().div_ceil(64);
        let mut block = [0u64; 64];
        for c in 0..col_words {
            // Only the qubits covered by this column word become planes, so
            // the block transpose is pruned to that prefix.
            let out_rows = self.n.min(c * 64 + 64) - c * 64;
            for pick in [0usize, 1] {
                for rb in 0..row_blocks {
                    let base = rb * 64;
                    let take = rows.len().min(base + 64) - base;
                    for (i, row) in rows[base..base + take].iter().enumerate() {
                        let (x, z) = bits(row);
                        block[i] = if pick == 0 {
                            x.words()[c]
                        } else {
                            z.words()[c]
                        };
                    }
                    block[take..].fill(0);
                    transpose64_top(&mut block, out_rows);
                    for (j, &word) in block.iter().enumerate().take(out_rows) {
                        let plane = if pick == 0 {
                            &mut self.x[c * 64 + j]
                        } else {
                            &mut self.z[c * 64 + j]
                        };
                        plane.words_mut()[rb] = word;
                    }
                }
            }
        }
        debug_assert!(
            self.x.iter().chain(&self.z).all(BitVec::tail_is_clear),
            "plane transpose must not write past the row count"
        );
    }

    /// Number of qubits each row acts on.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of rows in the batch.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// The operator of row `i` at qubit `q`.
    #[must_use]
    pub fn op(&self, i: usize, q: usize) -> PauliOp {
        PauliOp::from_xz(self.x[q].get(i), self.z[q].get(i))
    }

    /// Sets the operator of row `i` at qubit `q`.
    pub fn set_op(&mut self, i: usize, q: usize, op: PauliOp) {
        let (xb, zb) = op.xz();
        self.x[q].set(i, xb);
        self.z[q].set(i, zb);
    }

    /// The sign of row `i` (`true` = negative).
    #[must_use]
    pub fn sign(&self, i: usize) -> bool {
        self.signs.get(i)
    }

    /// Extracts row `i` as a phase-free Pauli string.
    #[must_use]
    pub fn row_pauli(&self, i: usize) -> PauliString {
        let mut pauli = PauliString::identity(self.n);
        self.read_row_into(i, &mut pauli);
        pauli
    }

    /// Extracts row `i` as a signed Pauli.
    #[must_use]
    pub fn get(&self, i: usize) -> SignedPauli {
        SignedPauli::new(self.row_pauli(i), self.signs.get(i))
    }

    /// Writes row `i` into an existing string (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `out` is not on `n` qubits or `i` is out of range.
    pub fn read_row_into(&self, i: usize, out: &mut PauliString) {
        assert_eq!(
            out.num_qubits(),
            self.n,
            "qubit count mismatch in PauliFrame::read_row_into"
        );
        let (x, z) = out.xz_words_mut();
        self.gather_row(&self.x, i, x);
        self.gather_row(&self.z, i, z);
        debug_assert!(
            out.x_bits().tail_is_clear() && out.z_bits().tail_is_clear(),
            "row gather must not write past the qubit count"
        );
    }

    /// The X-support of row `i` as a qubit mask (bit `q` = row `i` has an X
    /// component at qubit `q`) — the transpose view of [`Self::x_plane`].
    #[must_use]
    pub fn row_x_support(&self, i: usize) -> BitVec {
        let mut support = BitVec::zeros(self.n);
        self.gather_row(&self.x, i, support.words_mut());
        support
    }

    /// The Z-support of row `i` as a qubit mask (bit `q` = row `i` has a Z
    /// component at qubit `q`). For a Z-diagonal row this is exactly the
    /// parity mask a `ShotBatch` expectation needs.
    #[must_use]
    pub fn row_z_support(&self, i: usize) -> BitVec {
        let mut support = BitVec::zeros(self.n);
        self.gather_row(&self.z, i, support.words_mut());
        support
    }

    /// Gathers bit `i` of every plane into the qubit-indexed words `out`
    /// (bit `q` of `out` = bit `i` of `planes[q]`): one shift-and-or per
    /// plane, a whole output word at a time.
    fn gather_row(&self, planes: &[BitVec], i: usize, out: &mut [u64]) {
        assert!(i < self.rows, "row {i} out of range ({} rows)", self.rows);
        let (word, shift) = (i / 64, i % 64);
        for (chunk, out) in planes.chunks(64).zip(out) {
            *out = chunk.iter().enumerate().fold(0, |acc, (b, plane)| {
                acc | ((plane.words()[word] >> shift) & 1) << b
            });
        }
    }

    /// Pauli weight of row `i` (number of non-identity operators).
    #[must_use]
    pub fn weight(&self, i: usize) -> usize {
        (0..self.n)
            .filter(|&q| self.x[q].get(i) || self.z[q].get(i))
            .count()
    }

    /// The X bit-plane of qubit `q` (bit `i` = row `i` has an X component).
    #[must_use]
    pub fn x_plane(&self, q: usize) -> &BitVec {
        &self.x[q]
    }

    /// The Z bit-plane of qubit `q`.
    #[must_use]
    pub fn z_plane(&self, q: usize) -> &BitVec {
        &self.z[q]
    }

    /// The sign plane (bit `i` = row `i` is negative).
    #[must_use]
    pub fn sign_plane(&self) -> &BitVec {
        &self.signs
    }

    /// Gathers the given rows (in order) into a new, smaller frame.
    ///
    /// Used to compact a frame after many rows have been consumed.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    #[must_use]
    pub fn select_rows(&self, rows: &[usize]) -> PauliFrame {
        let mut out = PauliFrame::identities(self.n, rows.len());
        for (new_i, &old_i) in rows.iter().enumerate() {
            for q in 0..self.n {
                out.x[q].set(new_i, self.x[q].get(old_i));
                out.z[q].set(new_i, self.z[q].get(old_i));
            }
            out.signs.set(new_i, self.signs.get(old_i));
        }
        out
    }

    // --- word-parallel conjugation kernels -------------------------------

    /// Conjugates every row by `H` on qubit `q`.
    pub fn conj_h(&mut self, q: usize) {
        self.signs.xor_with_and(&self.x[q], &self.z[q]);
        let (x, z) = (&mut self.x[q], &mut self.z[q]);
        std::mem::swap(x, z);
    }

    /// Conjugates every row by `S` on qubit `q`.
    pub fn conj_s(&mut self, q: usize) {
        self.signs.xor_with_and(&self.x[q], &self.z[q]);
        self.z[q].xor_with(&self.x[q]);
    }

    /// Conjugates every row by `S†` on qubit `q`.
    pub fn conj_sdg(&mut self, q: usize) {
        // S ^= X & !Z, then Z ^= X.
        self.signs.xor_with_andnot(&self.x[q], &self.z[q]);
        self.z[q].xor_with(&self.x[q]);
    }

    /// Conjugates every row by `√X` on qubit `q`.
    pub fn conj_sqrt_x(&mut self, q: usize) {
        // S ^= Z & !X, then X ^= Z.
        self.signs.xor_with_andnot(&self.z[q], &self.x[q]);
        self.x[q].xor_with(&self.z[q]);
    }

    /// Conjugates every row by `√X†` on qubit `q`.
    pub fn conj_sqrt_xdg(&mut self, q: usize) {
        self.signs.xor_with_and(&self.z[q], &self.x[q]);
        self.x[q].xor_with(&self.z[q]);
    }

    /// Conjugates every row by the Pauli `X` gate on qubit `q`.
    pub fn conj_x(&mut self, q: usize) {
        self.signs.xor_with(&self.z[q]);
    }

    /// Conjugates every row by the Pauli `Y` gate on qubit `q`.
    pub fn conj_y(&mut self, q: usize) {
        self.signs.xor_with(&self.x[q]);
        self.signs.xor_with(&self.z[q]);
    }

    /// Conjugates every row by the Pauli `Z` gate on qubit `q`.
    pub fn conj_z(&mut self, q: usize) {
        self.signs.xor_with(&self.x[q]);
    }

    /// Conjugates every row by `CNOT(control → target)`.
    ///
    /// # Panics
    ///
    /// Panics if `control == target`.
    pub fn conj_cx(&mut self, control: usize, target: usize) {
        assert_ne!(control, target, "CX control and target must differ");
        // Pre-update values: S ^= Xc & Zt & !(Xt ^ Zc), Xt ^= Xc, Zc ^= Zt.
        let (xc, xt) = pair_mut(&mut self.x, control, target);
        let (zc, zt) = pair_mut(&mut self.z, control, target);
        cx_sweep(
            self.signs.words_mut(),
            xc.words(),
            xt.words_mut(),
            zc.words_mut(),
            zt.words(),
        );
        debug_assert!(
            self.signs.tail_is_clear() && xt.tail_is_clear() && zc.tail_is_clear(),
            "CX sweep must not set bits past the row count"
        );
    }

    /// Conjugates every row by `CZ(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn conj_cz(&mut self, a: usize, b: usize) {
        assert_ne!(a, b, "CZ qubits must differ");
        // Pre-update values: S ^= Xa & Xb & (Za ^ Zb), Za ^= Xb, Zb ^= Xa.
        let (xa, xb) = pair_mut(&mut self.x, a, b);
        let (za, zb) = pair_mut(&mut self.z, a, b);
        cz_sweep(
            self.signs.words_mut(),
            xa.words(),
            xb.words(),
            za.words_mut(),
            zb.words_mut(),
        );
        debug_assert!(
            self.signs.tail_is_clear() && za.tail_is_clear() && zb.tail_is_clear(),
            "CZ sweep must not set bits past the row count"
        );
    }

    /// Conjugates every row by `SWAP(a, b)`.
    pub fn conj_swap(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        self.x.swap(a, b);
        self.z.swap(a, b);
    }
}

impl fmt::Debug for PauliFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "PauliFrame({} rows on {} qubits):", self.rows, self.n)?;
        for i in 0..self.rows {
            writeln!(f, "  {}", self.get(i))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(rows: &[&str]) -> PauliFrame {
        let signed: Vec<SignedPauli> = rows.iter().map(|s| s.parse().unwrap()).collect();
        PauliFrame::from_signed(signed[0].num_qubits(), &signed)
    }

    #[test]
    fn roundtrip_rows() {
        let f = frame(&["XIZY", "-ZZZZ", "+IIII"]);
        assert_eq!(f.num_rows(), 3);
        assert_eq!(f.num_qubits(), 4);
        assert_eq!(f.get(0).to_string(), "+XIZY");
        assert_eq!(f.get(1).to_string(), "-ZZZZ");
        assert_eq!(f.weight(2), 0);
        assert_eq!(f.weight(0), 3);
        assert_eq!(f.weight(1), 4);
    }

    #[test]
    fn single_qubit_conjugations_match_rules() {
        // H: X→Z, Z→X, Y→−Y.
        let mut f = frame(&["X", "Z", "Y", "I"]);
        f.conj_h(0);
        assert_eq!(f.get(0).to_string(), "+Z");
        assert_eq!(f.get(1).to_string(), "+X");
        assert_eq!(f.get(2).to_string(), "-Y");
        assert_eq!(f.get(3).to_string(), "+I");

        // S: X→Y, Y→−X, Z→Z.
        let mut f = frame(&["X", "Y", "Z"]);
        f.conj_s(0);
        assert_eq!(f.get(0).to_string(), "+Y");
        assert_eq!(f.get(1).to_string(), "-X");
        assert_eq!(f.get(2).to_string(), "+Z");

        // S†: X→−Y, Y→X.
        let mut f = frame(&["X", "Y"]);
        f.conj_sdg(0);
        assert_eq!(f.get(0).to_string(), "-Y");
        assert_eq!(f.get(1).to_string(), "+X");

        // √X: Y→Z, Z→−Y, X→X.
        let mut f = frame(&["Y", "Z", "X"]);
        f.conj_sqrt_x(0);
        assert_eq!(f.get(0).to_string(), "+Z");
        assert_eq!(f.get(1).to_string(), "-Y");
        assert_eq!(f.get(2).to_string(), "+X");

        // √X†: Y→−Z, Z→Y.
        let mut f = frame(&["Y", "Z"]);
        f.conj_sqrt_xdg(0);
        assert_eq!(f.get(0).to_string(), "-Z");
        assert_eq!(f.get(1).to_string(), "+Y");

        // Pauli gates only flip signs of anticommuting rows.
        let mut f = frame(&["X", "Y", "Z"]);
        f.conj_x(0);
        assert_eq!(f.get(0).to_string(), "+X");
        assert_eq!(f.get(1).to_string(), "-Y");
        assert_eq!(f.get(2).to_string(), "-Z");
        let mut f = frame(&["X", "Y", "Z"]);
        f.conj_y(0);
        assert_eq!(f.get(0).to_string(), "-X");
        assert_eq!(f.get(1).to_string(), "+Y");
        assert_eq!(f.get(2).to_string(), "-Z");
        let mut f = frame(&["X", "Y", "Z"]);
        f.conj_z(0);
        assert_eq!(f.get(0).to_string(), "-X");
        assert_eq!(f.get(1).to_string(), "-Y");
        assert_eq!(f.get(2).to_string(), "+Z");
    }

    #[test]
    fn cx_conjugation_matches_table_i() {
        // The 16-entry CNOT table of the paper (signs per Aaronson–Gottesman).
        let table = [
            ("II", "+II"),
            ("IX", "+IX"),
            ("IY", "+ZY"),
            ("IZ", "+ZZ"),
            ("XI", "+XX"),
            ("XX", "+XI"),
            ("XY", "+YZ"),
            ("XZ", "-YY"),
            ("YI", "+YX"),
            ("YX", "+YI"),
            ("YY", "-XZ"),
            ("YZ", "+XY"),
            ("ZI", "+ZI"),
            ("ZX", "+ZX"),
            ("ZY", "+IY"),
            ("ZZ", "+IZ"),
        ];
        let inputs: Vec<&str> = table.iter().map(|(i, _)| *i).collect();
        let mut f = frame(&inputs);
        f.conj_cx(0, 1);
        for (i, (input, want)) in table.iter().enumerate() {
            assert_eq!(f.get(i).to_string(), *want, "CX on {input}");
        }
    }

    #[test]
    fn cz_and_swap_conjugations() {
        let mut f = frame(&["XI", "IX", "ZI", "XX", "XY"]);
        f.conj_cz(0, 1);
        assert_eq!(f.get(0).to_string(), "+XZ");
        assert_eq!(f.get(1).to_string(), "+ZX");
        assert_eq!(f.get(2).to_string(), "+ZI");
        assert_eq!(f.get(3).to_string(), "+YY");
        assert_eq!(f.get(4).to_string(), "-YX");

        let mut f = frame(&["XZ", "-YI"]);
        f.conj_swap(0, 1);
        assert_eq!(f.get(0).to_string(), "+ZX");
        assert_eq!(f.get(1).to_string(), "-IY");
        f.conj_swap(1, 1); // no-op
        assert_eq!(f.get(0).to_string(), "+ZX");
    }

    #[test]
    fn conjugation_works_across_word_boundaries() {
        // 130 rows: the planes span three words.
        let rows: Vec<SignedPauli> = (0..130)
            .map(|i| {
                match i % 4 {
                    0 => "XI",
                    1 => "YZ",
                    2 => "-ZY",
                    _ => "II",
                }
                .parse()
                .unwrap()
            })
            .collect();
        let mut f = PauliFrame::from_signed(2, &rows);
        f.conj_h(0);
        f.conj_cx(0, 1);
        f.conj_s(1);
        // Spot-check a row in the last partial word against scalar rules.
        // Row 128 is "XI": H(0) → ZI, CX(0,1) → ZI, S(1) → ZI.
        assert_eq!(f.get(128).to_string(), "+ZI");
        // Row 129 is "YZ": H(0) → -YZ, CX(0,1) → -XY (YZ→XY), S(1) → +XX.
        assert_eq!(f.get(129).to_string(), "+XX");
    }

    /// The fused sweeps against a per-bit scalar oracle of the CX/CZ sign
    /// and plane rules, on every word count up to 11.
    #[test]
    fn two_qubit_sweeps_match_per_bit_oracle() {
        fn words(len: usize, seed: u64) -> Vec<u64> {
            let mut s = seed;
            (0..len)
                .map(|_| {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    s
                })
                .collect()
        }
        let bit = |w: &[u64], i: usize| (w[i / 64] >> (i % 64)) & 1 == 1;
        for len in 0..=11 {
            let (s0, p1, p2, p3, p4) = (
                words(len, 1),
                words(len, 2),
                words(len, 3),
                words(len, 4),
                words(len, 5),
            );
            let (mut s, mut xt, mut zc) = (s0.clone(), p2.clone(), p3.clone());
            cx_sweep(&mut s, &p1, &mut xt, &mut zc, &p4);
            for i in 0..64 * len {
                let (xc, xt0, zc0, zt) = (bit(&p1, i), bit(&p2, i), bit(&p3, i), bit(&p4, i));
                assert_eq!(
                    bit(&s, i),
                    bit(&s0, i) ^ (xc && zt && xt0 == zc0),
                    "cx sign {i}"
                );
                assert_eq!(bit(&xt, i), xt0 ^ xc, "cx Xt {i}");
                assert_eq!(bit(&zc, i), zc0 ^ zt, "cx Zc {i}");
            }
            let (mut s, mut za, mut zb) = (s0.clone(), p3.clone(), p4.clone());
            cz_sweep(&mut s, &p1, &p2, &mut za, &mut zb);
            for i in 0..64 * len {
                let (xa, xb, za0, zb0) = (bit(&p1, i), bit(&p2, i), bit(&p3, i), bit(&p4, i));
                assert_eq!(
                    bit(&s, i),
                    bit(&s0, i) ^ (xa && xb && za0 != zb0),
                    "cz sign {i}"
                );
                assert_eq!(bit(&za, i), za0 ^ xb, "cz Za {i}");
                assert_eq!(bit(&zb, i), zb0 ^ xa, "cz Zb {i}");
            }
        }
    }

    #[test]
    fn select_rows_gathers_in_order() {
        let f = frame(&["XI", "-ZZ", "YY", "IZ"]);
        let g = f.select_rows(&[2, 0]);
        assert_eq!(g.num_rows(), 2);
        assert_eq!(g.get(0).to_string(), "+YY");
        assert_eq!(g.get(1).to_string(), "+XI");
    }

    /// The word-level row gather agrees with per-bit reads across word
    /// boundaries in both dimensions, and overwrites stale output.
    #[test]
    fn row_reads_match_per_bit_reads_across_words() {
        let (n, rows) = (130, 150);
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut f = PauliFrame::identities(n, rows);
        for i in 0..rows {
            for q in 0..n {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let op = [PauliOp::I, PauliOp::X, PauliOp::Y, PauliOp::Z][(state % 4) as usize];
                f.set_op(i, q, op);
            }
        }
        let mut out = PauliString::from_ops(&[PauliOp::Y; 130]);
        for i in [0, 1, 63, 64, 65, 127, 128, 149] {
            let expected: Vec<PauliOp> = (0..n).map(|q| f.op(i, q)).collect();
            let expected = PauliString::from_ops(&expected);
            f.read_row_into(i, &mut out);
            assert_eq!(out, expected, "row {i}");
            assert_eq!(f.row_pauli(i), expected, "row {i}");
            assert_eq!(f.row_x_support(i), *expected.x_bits(), "row {i}");
            assert_eq!(f.row_z_support(i), *expected.z_bits(), "row {i}");
            assert_eq!(expected.weight(), f.weight(i), "row {i}");
        }
    }
}
