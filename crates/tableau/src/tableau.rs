//! The Clifford tableau: a compact representation of a Clifford conjugation
//! map, stored as word-packed bit-planes.

use std::fmt;

use quclear_circuit::{Circuit, Gate};
use quclear_pauli::{BitVec, PauliFrame, PauliOp, PauliString, SignedPauli};

use crate::rules::conjugate_all_by_gate;

/// A Clifford unitary `U` represented by the images of the Pauli generators
/// under conjugation: `U X_i U†` and `U Z_i U†` (the stabilizer-tableau
/// formalism of Aaronson and Gottesman, 4n² + O(n) bits).
///
/// The tableau *is* the map `P ↦ U·P·U†`; [`CliffordTableau::apply`] evaluates
/// it on arbitrary Pauli strings and [`CliffordTableau::then_gate`] composes it
/// with one more gate (`P ↦ g·M(P)·g†`). Clifford Extraction keeps its running
/// Heisenberg map in one, resynthesis reads it back into a circuit, and
/// probability absorption reads the forward map of the extracted Clifford.
///
/// # Representation
///
/// The `2n` generator images are held in a column-major [`PauliFrame`]: rows
/// `0..n` are the images of `X_0..X_{n-1}`, rows `n..2n` the images of
/// `Z_0..Z_{n-1}`, and for each qubit there is one X bit-plane and one Z
/// bit-plane over the generators plus a shared sign plane. In this layout
/// [`CliffordTableau::then_gate`] is a handful of XOR/AND word operations on
/// the planes of the touched qubits, and [`CliffordTableau::apply`] is a
/// masked popcount sweep — no per-qubit branching and no allocation per gate.
///
/// # Examples
///
/// ```
/// use quclear_circuit::Circuit;
/// use quclear_tableau::CliffordTableau;
///
/// // U = CNOT(0→1); then U·(Z⊗Z)·U† = I⊗Z.
/// let mut qc = Circuit::new(2);
/// qc.cx(0, 1);
/// let tableau = CliffordTableau::from_circuit(&qc);
/// let image = tableau.apply(&"ZZ".parse()?);
/// assert_eq!(image.to_string(), "+IZ");
/// # Ok::<(), quclear_pauli::ParsePauliError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct CliffordTableau {
    n: usize,
    /// Generator images: rows `0..n` = `U X_i U†`, rows `n..2n` = `U Z_i U†`.
    frame: PauliFrame,
}

impl CliffordTableau {
    /// The identity map on `n` qubits.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut frame = PauliFrame::identities(n, 2 * n);
        for q in 0..n {
            frame.set_op(q, q, PauliOp::X);
            frame.set_op(n + q, q, PauliOp::Z);
        }
        CliffordTableau { n, frame }
    }

    /// Builds the map `P ↦ U·P·U†` of the Clifford circuit `U`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit contains non-Clifford gates.
    #[must_use]
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let mut tableau = CliffordTableau::identity(circuit.num_qubits());
        for gate in circuit.gates() {
            tableau.then_gate(gate);
        }
        tableau
    }

    /// Builds the *Heisenberg* map `P ↦ U†·P·U` of the Clifford circuit `U`.
    ///
    /// This is the direction the QuCLEAR paper uses for updating Pauli strings
    /// and observables (`P₂ = U†·P₁·U`).
    ///
    /// # Panics
    ///
    /// Panics if the circuit contains non-Clifford gates.
    #[must_use]
    pub fn heisenberg_from_circuit(circuit: &Circuit) -> Self {
        CliffordTableau::from_circuit(&circuit.inverse())
    }

    /// Number of qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The image of `X_q` under the map.
    ///
    /// # Panics
    ///
    /// Panics if `q >= self.num_qubits()`.
    #[must_use]
    pub fn x_image(&self, q: usize) -> SignedPauli {
        assert!(q < self.n, "qubit {q} out of range {}", self.n);
        self.frame.get(q)
    }

    /// The image of `Z_q` under the map.
    ///
    /// # Panics
    ///
    /// Panics if `q >= self.num_qubits()`.
    #[must_use]
    pub fn z_image(&self, q: usize) -> SignedPauli {
        assert!(q < self.n, "qubit {q} out of range {}", self.n);
        self.frame.get(self.n + q)
    }

    /// Post-composes the map with conjugation by one gate:
    /// `M'(P) = g·M(P)·g†`.
    ///
    /// Building a tableau from a circuit is exactly folding this over the
    /// gates in time order. With the bit-plane layout this touches only the
    /// planes of the gate's qubits: `O(n/64)` words, no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not Clifford.
    pub fn then_gate(&mut self, gate: &Gate) {
        conjugate_all_by_gate(&mut self.frame, gate);
    }

    /// Applies the map to a phase-free Pauli string, returning `±P'`.
    ///
    /// The image is the ordered product of the selected generator images,
    /// `U P U† = i^{#Y(P)} ∏_q (U X_q U†)^{x_q} (U Z_q U†)^{z_q}`, evaluated
    /// word-parallel: for every qubit column the result bits are masked
    /// parities of the bit-planes, and the i-exponent is accumulated from
    /// popcounts (the per-column product phase) rather than per-qubit
    /// string multiplications.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    #[must_use]
    pub fn apply(&self, pauli: &PauliString) -> SignedPauli {
        assert_eq!(
            pauli.num_qubits(),
            self.n,
            "qubit count mismatch in tableau application"
        );
        let n = self.n;
        let rows = 2 * n;
        // Select generator rows: row q for an X factor at qubit q, row n+q
        // for a Z factor. The multiplication order is "all X rows, then all
        // Z rows, each by ascending qubit" — this differs from the
        // interleaved X_q,Z_q order only by swaps of commuting factors
        // (X_q and Z_{q'} with q ≠ q'), so the operator is unchanged.
        let mut mask = BitVec::zeros(rows);
        for q in pauli.x_bits().iter_ones() {
            mask.set(q, true);
        }
        for q in pauli.z_bits().iter_ones() {
            mask.set(n + q, true);
        }

        // i^{#Y}: the literal decomposition of P contributes i per Y factor
        // (word-level popcount, not a per-qubit loop).
        let mut phase: i64 = pauli.x_bits().and_popcount(pauli.z_bits()) as i64;
        let mut res_x = BitVec::zeros(n);
        let mut res_z = BitVec::zeros(n);
        let mask_words = mask.words();
        for j in 0..n {
            let xw = self.frame.x_plane(j).words();
            let zw = self.frame.z_plane(j).words();
            // Per-column product of the selected single-qubit factors, in
            // row order: ∏_i P_i = i^{Σ x_i z_i − x_tot·z_tot} ·
            // (−1)^{Σ_{i<k} z_i x_k} · literal(x_tot, z_tot).
            let mut yy = 0i64; // Σ x_i z_i
            let mut x_tot = 0u64;
            let mut z_tot = 0u64;
            let mut pair = 0u32; // parity of Σ_{i<k} z_i x_k
            let mut carry = 0u64; // all-ones iff parity of z bits so far is odd
            for (w, &m) in mask_words.iter().enumerate() {
                let ax = xw[w] & m;
                let az = zw[w] & m;
                yy += i64::from((ax & az).count_ones());
                x_tot ^= ax;
                z_tot ^= az;
                // Exclusive prefix parity of the z sequence, continued
                // across words via the carry mask.
                let mut inc = az;
                inc ^= inc << 1;
                inc ^= inc << 2;
                inc ^= inc << 4;
                inc ^= inc << 8;
                inc ^= inc << 16;
                inc ^= inc << 32;
                let exc = (inc << 1) ^ carry;
                pair ^= (ax & exc).count_ones() & 1;
                carry ^= 0u64.wrapping_sub(inc >> 63);
            }
            let xt = x_tot.count_ones() & 1 == 1;
            let zt = z_tot.count_ones() & 1 == 1;
            phase += yy - i64::from(xt && zt) + 2 * i64::from(pair);
            if xt {
                res_x.set(j, true);
            }
            if zt {
                res_z.set(j, true);
            }
        }
        // Row signs contribute (−1) each; i^{−#Y(result)} is already folded
        // in through the per-column literal reassembly above.
        if self.frame.sign_plane().and_parity(&mask) {
            phase += 2;
        }
        let total = phase.rem_euclid(4);
        assert!(
            total % 2 == 0,
            "Clifford conjugation produced imaginary phase i^{total}; tableau is corrupt"
        );
        SignedPauli::new(PauliString::from_xz(res_x, res_z), total == 2)
    }

    /// Applies the map to a signed Pauli.
    #[must_use]
    pub fn apply_signed(&self, pauli: &SignedPauli) -> SignedPauli {
        let result = self.apply(pauli.pauli());
        if pauli.is_negative() {
            -result
        } else {
            result
        }
    }

    /// Returns `true` if the map is the identity (all generators map to
    /// themselves with positive sign).
    #[must_use]
    pub fn is_identity(&self) -> bool {
        if !self.frame.sign_plane().is_zero() {
            return false;
        }
        (0..self.n).all(|j| {
            let x = self.frame.x_plane(j);
            let z = self.frame.z_plane(j);
            x.count_ones() == 1 && x.get(j) && z.count_ones() == 1 && z.get(self.n + j)
        })
    }
}

impl fmt::Debug for CliffordTableau {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CliffordTableau on {} qubits:", self.n)?;
        for q in 0..self.n {
            writeln!(f, "  X_{q} -> {}", self.x_image(q))?;
        }
        for q in 0..self.n {
            writeln!(f, "  Z_{q} -> {}", self.z_image(q))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cx01() -> Circuit {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        c
    }

    #[test]
    fn identity_tableau_is_identity() {
        let t = CliffordTableau::identity(3);
        assert!(t.is_identity());
        let p: PauliString = "XYZ".parse().unwrap();
        assert_eq!(t.apply(&p), SignedPauli::positive(p));
    }

    #[test]
    fn cnot_tableau_matches_rules() {
        let t = CliffordTableau::from_circuit(&cx01());
        assert_eq!(t.apply(&"ZZ".parse().unwrap()).to_string(), "+IZ");
        assert_eq!(t.apply(&"XX".parse().unwrap()).to_string(), "+XI");
        assert_eq!(t.apply(&"XZ".parse().unwrap()).to_string(), "-YY");
        assert_eq!(t.apply(&"YY".parse().unwrap()).to_string(), "-XZ");
    }

    #[test]
    fn bell_circuit_stabilizers() {
        // H(0); CX(0,1) maps Z0 -> XX and Z1 -> ZZ: the Bell stabilizers.
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        let t = CliffordTableau::from_circuit(&c);
        assert_eq!(t.apply(&"ZI".parse().unwrap()).to_string(), "+XX");
        assert_eq!(t.apply(&"IZ".parse().unwrap()).to_string(), "+ZZ");
        assert_eq!(t.apply(&"XI".parse().unwrap()).to_string(), "+ZI");
    }

    #[test]
    fn heisenberg_is_inverse_direction() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.s(1);
        c.cx(0, 1);
        let forward = CliffordTableau::from_circuit(&c);
        let heisenberg = CliffordTableau::heisenberg_from_circuit(&c);
        for s in ["XI", "IZ", "YY", "ZX"] {
            let p: PauliString = s.parse().unwrap();
            let roundtrip = heisenberg.apply_signed(&forward.apply(&p));
            assert_eq!(
                roundtrip,
                SignedPauli::positive(p),
                "U†(U P U†)U must be P for {s}"
            );
        }
    }

    #[test]
    fn apply_preserves_commutation() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.s(1);
        c.cx(1, 2);
        let t = CliffordTableau::from_circuit(&c);
        let pairs = [("XXI", "ZZI"), ("XYZ", "YZX"), ("ZII", "XII")];
        for (a, b) in pairs {
            let pa: PauliString = a.parse().unwrap();
            let pb: PauliString = b.parse().unwrap();
            let ia = t.apply(&pa);
            let ib = t.apply(&pb);
            assert_eq!(
                pa.commutes_with(&pb),
                ia.pauli().commutes_with(ib.pauli()),
                "conjugation must preserve (anti)commutation of {a}, {b}"
            );
        }
    }

    #[test]
    fn signed_application_respects_input_sign() {
        let t = CliffordTableau::from_circuit(&cx01());
        let sp: SignedPauli = "-ZZ".parse().unwrap();
        assert_eq!(t.apply_signed(&sp).to_string(), "-IZ");
    }

    #[test]
    fn swap_and_cz_gates_compose_correctly() {
        let mut c = Circuit::new(2);
        c.swap(0, 1);
        c.cz(0, 1);
        let t = CliffordTableau::from_circuit(&c);
        // Swap then CZ: X0 -> X1 -> X1 Z0.
        assert_eq!(t.apply(&"XI".parse().unwrap()).to_string(), "+ZX");
    }

    /// The word-parallel apply must agree with multiplying out the generator
    /// images one at a time (the pre-bit-plane reference algorithm).
    #[test]
    fn apply_matches_row_by_row_reference() {
        let mut c = Circuit::new(5);
        c.h(0);
        c.cx(0, 3);
        c.s(2);
        c.cz(1, 4);
        c.sdg(3);
        c.cx(4, 2);
        c.push(Gate::SqrtX(1));
        c.swap(0, 2);
        let t = CliffordTableau::from_circuit(&c);
        let reference = |p: &PauliString| -> SignedPauli {
            let n = p.num_qubits();
            let mut acc = PauliString::identity(n);
            let mut phase: u8 = 0;
            let mut y_count: usize = 0;
            for q in 0..n {
                let (x, z) = p.op(q).xz();
                if x && z {
                    y_count += 1;
                }
                if x {
                    let row = t.x_image(q);
                    let (next, k) = acc.mul(row.pauli());
                    phase = (phase + k + if row.is_negative() { 2 } else { 0 }) % 4;
                    acc = next;
                }
                if z {
                    let row = t.z_image(q);
                    let (next, k) = acc.mul(row.pauli());
                    phase = (phase + k + if row.is_negative() { 2 } else { 0 }) % 4;
                    acc = next;
                }
            }
            let total = (phase + (y_count % 4) as u8) % 4;
            assert_eq!(total % 2, 0);
            SignedPauli::new(acc, total == 2)
        };
        for s in [
            "XYZIX", "ZZZZZ", "IIIII", "YIYIY", "XXXXX", "IZXYI", "YXZIZ",
        ] {
            let p: PauliString = s.parse().unwrap();
            assert_eq!(t.apply(&p), reference(&p), "apply mismatch on {s}");
        }
    }

    #[test]
    #[should_panic(expected = "qubit count mismatch")]
    fn mismatched_apply_panics() {
        let t = CliffordTableau::identity(2);
        let _ = t.apply(&"XXX".parse().unwrap());
    }
}
