//! Dense state-vector simulation.

use quclear_circuit::math::{single_qubit_matrix, C64};
use quclear_circuit::{Circuit, Gate};
use quclear_pauli::{BitVec, PauliRotation, PauliString, SignedPauli};
use rand::Rng;

/// A dense `2^n`-amplitude quantum state.
///
/// Basis-state indexing is little-endian in the qubit number: qubit `q`
/// corresponds to bit `q` of the index, so index `0b011` on three qubits means
/// qubit 0 = 1, qubit 1 = 1, qubit 2 = 0. Helper methods convert to the
/// left-to-right bitstring convention used for Pauli strings.
///
/// # Examples
///
/// ```
/// use quclear_circuit::Circuit;
/// use quclear_sim::StateVector;
///
/// let mut bell = Circuit::new(2);
/// bell.h(0);
/// bell.cx(0, 1);
/// let state = StateVector::from_circuit(&bell);
/// let zz: quclear_pauli::PauliString = "ZZ".parse()?;
/// assert!((state.expectation(&zz) - 1.0).abs() < 1e-12);
/// # Ok::<(), quclear_pauli::ParsePauliError>(())
/// ```
#[derive(Clone, Debug)]
pub struct StateVector {
    num_qubits: usize,
    amps: Vec<C64>,
}

impl StateVector {
    /// The all-zeros computational basis state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits > 26` (guarding against accidental huge
    /// allocations in tests and benches).
    #[must_use]
    pub fn zero_state(num_qubits: usize) -> Self {
        assert!(
            num_qubits <= 26,
            "state vector of {num_qubits} qubits is too large"
        );
        let mut amps = vec![C64::ZERO; 1 << num_qubits];
        amps[0] = C64::ONE;
        StateVector { num_qubits, amps }
    }

    /// Runs `circuit` on `|0…0⟩` and returns the resulting state.
    #[must_use]
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let mut state = StateVector::zero_state(circuit.num_qubits());
        state.apply_circuit(circuit);
        state
    }

    /// Number of qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The raw amplitudes (little-endian basis ordering).
    #[must_use]
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Applies a single gate in place.
    ///
    /// Every gate kind runs a branch-free block kernel: two-qubit gates touch
    /// only the quarter-slices of the state they permute or negate, `X`
    /// swaps half-blocks, the diagonal gates scale each half by its diagonal
    /// entry, `H` is a real-scalar butterfly, and the remaining single-qubit
    /// gates use the general `u00·a0 + u01·a1` form. Each specialization only
    /// drops terms of the general 2×2 product that are exactly `±0` or
    /// multiplications by exactly `±1`, so every amplitude is `==` to the
    /// dense per-gate product's: no reassociation, no fusion.
    ///
    /// # Panics
    ///
    /// Panics if the gate touches a qubit outside the state.
    pub fn apply_gate(&mut self, gate: &Gate) {
        let qubits = gate.qubit_list();
        for &q in qubits.as_slice() {
            assert!(
                q < self.num_qubits,
                "gate {gate} touches qubit {q} >= {}",
                self.num_qubits
            );
        }
        let amps = self.amps.as_mut_slice();
        match *gate {
            // Coinciding operands keep the dense kernel's meaning: CX and
            // SWAP select no index, CZ negates wherever the bit is set.
            Gate::Cx { control, target } if control == target => {}
            Gate::Swap { a, b } if a == b => {}
            Gate::Cz { a, b } if a == b => for_halves(amps, a, |_, hi| negate(hi)),
            Gate::Cx { control, target } => {
                for_quarters(amps, control, target, |_, _, c1t0, c1t1| {
                    c1t0.swap_with_slice(c1t1);
                });
            }
            Gate::Cz { a, b } => for_quarters(amps, a, b, |_, _, _, both| negate(both)),
            Gate::Swap { a, b } => {
                for_quarters(amps, a, b, |_, a0b1, a1b0, _| a0b1.swap_with_slice(a1b0));
            }
            Gate::X(q) => for_halves(amps, q, |lo, hi| lo.swap_with_slice(hi)),
            Gate::Z(q) => for_halves(amps, q, |_, hi| negate(hi)),
            // i·a and −i·a with the zero products dropped.
            Gate::S(q) => for_halves(amps, q, |_, hi| {
                hi.iter_mut().for_each(|a| *a = C64::new(-a.im, a.re));
            }),
            Gate::Sdg(q) => for_halves(amps, q, |_, hi| {
                hi.iter_mut().for_each(|a| *a = C64::new(a.im, -a.re));
            }),
            Gate::Rz { qubit, .. } => {
                let u = single_qubit_matrix(gate);
                let (d0, d1) = (u.m[0][0], u.m[1][1]);
                for_halves(amps, qubit, |lo, hi| {
                    lo.iter_mut().for_each(|a| *a = d0 * *a);
                    hi.iter_mut().for_each(|a| *a = d1 * *a);
                });
            }
            Gate::H(q) => {
                let s = std::f64::consts::FRAC_1_SQRT_2;
                for_halves(amps, q, |lo, hi| {
                    for (a0, a1) in lo.iter_mut().zip(hi) {
                        let (x, y) = (a0.scale(s), a1.scale(s));
                        *a0 = x + y;
                        *a1 = x - y;
                    }
                });
            }
            ref g => {
                let u = single_qubit_matrix(g);
                for_halves(amps, qubits.as_slice()[0], |lo, hi| {
                    for (a0, a1) in lo.iter_mut().zip(hi) {
                        let (x, y) = (*a0, *a1);
                        *a0 = u.m[0][0] * x + u.m[0][1] * y;
                        *a1 = u.m[1][0] * x + u.m[1][1] * y;
                    }
                });
            }
        }
    }

    /// Applies every gate of a circuit in time order.
    ///
    /// # Panics
    ///
    /// Panics if the circuit acts on a different number of qubits.
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        assert_eq!(
            circuit.num_qubits(),
            self.num_qubits,
            "circuit qubit count does not match the state"
        );
        for gate in circuit.gates() {
            self.apply_gate(gate);
        }
    }

    /// Applies a Pauli string to the state, returning a new state `P|ψ⟩`.
    #[must_use]
    pub fn apply_pauli(&self, pauli: &PauliString) -> StateVector {
        assert_eq!(pauli.num_qubits(), self.num_qubits);
        let mut x_mask = 0usize;
        let mut z_mask = 0usize;
        let mut y_count = 0u32;
        for (q, op) in pauli.ops() {
            let (x, z) = op.xz();
            if x {
                x_mask |= 1 << q;
            }
            if z {
                z_mask |= 1 << q;
            }
            if x && z {
                y_count += 1;
            }
        }
        // Global i^{#Y} factor of the literal Pauli.
        let global = match y_count % 4 {
            0 => C64::ONE,
            1 => C64::I,
            2 => -C64::ONE,
            _ => -C64::I,
        };
        let mut out = vec![C64::ZERO; self.amps.len()];
        for (i, amp) in self.amps.iter().enumerate() {
            let z_parity = (i & z_mask).count_ones() % 2;
            let phase = if z_parity == 1 { -C64::ONE } else { C64::ONE };
            out[i ^ x_mask] = global * phase * *amp;
        }
        StateVector {
            num_qubits: self.num_qubits,
            amps: out,
        }
    }

    /// Applies the Pauli rotation `exp(-i·θ/2·P)` to the state in place:
    /// `cos(θ/2)·|ψ⟩ − i·sin(θ/2)·P|ψ⟩`, in one allocation-free pass.
    ///
    /// This simulates a rotation *exactly* (one pass over amplitude pairs)
    /// without synthesizing it into gates, so rotation programs — including
    /// the lifted programs produced by `quclear_core::lift` — can be
    /// validated directly against circuits, and `estimate` can run a program
    /// as one pass per rotation instead of one per gate.
    ///
    /// Every amplitude `j` becomes `c·ψ[j] + m·σ(j ^ x)·ψ[j ^ x]`, where `x`
    /// is the string's X mask, `σ` the Z-parity sign and
    /// `m = −i·sin(θ/2)·i^{#Y}` is purely real or purely imaginary, so each
    /// update is four real multiplies. Strings whose X mask fits in the low
    /// three qubits (pure-Z strings and the identity included) pair lanes
    /// inside aligned 8-amplitude chunks; wider ones split each block at
    /// the highest X bit and pair 8-wide chunks of the low and high halves.
    /// The sign of a lane is the chunk's Z parity plus an 8-entry table.
    /// Amplitudes agree with the allocate-`P|ψ⟩`-and-combine formula to
    /// within rounding (`1e-12`, checked by `tests/kernel_oracle.rs`), not
    /// bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the rotation acts on a different number of qubits.
    ///
    /// # Examples
    ///
    /// ```
    /// use quclear_circuit::Circuit;
    /// use quclear_pauli::PauliRotation;
    /// use quclear_sim::StateVector;
    ///
    /// // A weight-1 Z rotation is literally an Rz gate.
    /// let mut via_rotation = StateVector::zero_state(1);
    /// let mut h = Circuit::new(1);
    /// h.h(0);
    /// via_rotation.apply_circuit(&h);
    /// via_rotation.apply_rotation(&PauliRotation::parse("Z", 0.7)?);
    ///
    /// let mut circuit = Circuit::new(1);
    /// circuit.h(0);
    /// circuit.rz(0, 0.7);
    /// let via_circuit = StateVector::from_circuit(&circuit);
    /// assert!(via_rotation.approx_eq_up_to_phase(&via_circuit, 1e-12));
    /// # Ok::<(), quclear_pauli::ParsePauliError>(())
    /// ```
    pub fn apply_rotation(&mut self, rotation: &PauliRotation) {
        assert_eq!(
            rotation.num_qubits(),
            self.num_qubits,
            "rotation qubit count does not match the state"
        );
        if rotation.angle() == 0.0 {
            return;
        }
        // The state has at most 26 qubits, so one word holds each mask.
        let low_word = |bits: &BitVec| bits.words().first().map_or(0, |&w| w as usize);
        let x = low_word(rotation.pauli().x_bits());
        let z = low_word(rotation.pauli().z_bits());
        let (s, c) = (rotation.angle() / 2.0).sin_cos();
        // m = −i·s·i^{#Y}: imaginary for an even Y count, real for an odd
        // one; `mu` is its one non-zero component.
        let y_count = (x & z).count_ones();
        let mu = if matches!(y_count % 4, 0 | 3) { -s } else { s };
        let amps = self.amps.as_mut_slice();
        if y_count % 2 == 0 {
            rotate::<true>(amps, x, z, c, mu);
        } else {
            rotate::<false>(amps, x, z, c, mu);
        }
    }

    /// Applies every rotation of a program in time order.
    ///
    /// # Panics
    ///
    /// Panics if any rotation acts on a different number of qubits.
    pub fn apply_rotations(&mut self, rotations: &[PauliRotation]) {
        for rotation in rotations {
            self.apply_rotation(rotation);
        }
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the states have different sizes.
    #[must_use]
    pub fn inner_product(&self, other: &StateVector) -> C64 {
        assert_eq!(self.num_qubits, other.num_qubits);
        let mut acc = C64::ZERO;
        for (a, b) in self.amps.iter().zip(&other.amps) {
            acc += a.conj() * *b;
        }
        acc
    }

    /// Expectation value `⟨ψ|P|ψ⟩` of a (Hermitian) Pauli string.
    #[must_use]
    pub fn expectation(&self, pauli: &PauliString) -> f64 {
        let p_psi = self.apply_pauli(pauli);
        self.inner_product(&p_psi).re
    }

    /// Expectation value of a signed Pauli observable.
    #[must_use]
    pub fn expectation_signed(&self, observable: &SignedPauli) -> f64 {
        observable.sign() * self.expectation(observable.pauli())
    }

    /// Measurement probabilities of every computational basis state.
    #[must_use]
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sq()).collect()
    }

    /// Probability of measuring the given basis index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^n`.
    #[must_use]
    pub fn probability_of(&self, index: usize) -> f64 {
        self.amps[index].norm_sq()
    }

    /// Returns `true` if the two states are equal up to a global phase.
    #[must_use]
    pub fn approx_eq_up_to_phase(&self, other: &StateVector, tol: f64) -> bool {
        if self.num_qubits != other.num_qubits {
            return false;
        }
        // |⟨a|b⟩| must be 1 for pure states equal up to phase.
        let overlap = self.inner_product(other).norm();
        (overlap - 1.0).abs() < tol
    }

    /// Converts a basis index into the left-to-right bitstring convention
    /// (character `q` of the returned string is the value of qubit `q`).
    #[must_use]
    pub fn index_to_bitstring(&self, index: usize) -> String {
        (0..self.num_qubits)
            .map(|q| if index & (1 << q) != 0 { '1' } else { '0' })
            .collect()
    }

    /// Parses a left-to-right bitstring into a basis index.
    ///
    /// # Panics
    ///
    /// Panics if the string length does not match the qubit count or contains
    /// characters other than `0`/`1`.
    #[must_use]
    pub fn bitstring_to_index(&self, bits: &str) -> usize {
        assert_eq!(bits.len(), self.num_qubits, "bitstring length mismatch");
        let mut index = 0usize;
        for (q, c) in bits.chars().enumerate() {
            match c {
                '1' => index |= 1 << q,
                '0' => {}
                _ => panic!("invalid bitstring character `{c}`"),
            }
        }
        index
    }

    /// Total squared norm (should be 1 for a valid state).
    #[must_use]
    pub fn norm_sq(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sq()).sum()
    }

    /// Samples `shots` computational-basis measurement outcomes from the
    /// state's probability distribution (inverse-CDF sampling, one binary
    /// search per shot). Returned indices use the same little-endian
    /// convention as [`Self::probability_of`], so they can be packed
    /// directly into a bit-plane shot batch for CA-Post processing.
    #[must_use]
    pub fn sample_indices<R: Rng + ?Sized>(&self, shots: usize, rng: &mut R) -> Vec<u64> {
        // Cumulative distribution; the final entry is clamped to 1 so a draw
        // of ~1.0 can never fall off the end from rounding.
        let mut cdf = Vec::with_capacity(self.amps.len());
        let mut acc = 0.0f64;
        for amp in &self.amps {
            acc += amp.norm_sq();
            cdf.push(acc);
        }
        if let Some(last) = cdf.last_mut() {
            *last = f64::max(*last, 1.0);
        }
        (0..shots)
            .map(|_| {
                let draw: f64 = rng.gen_range(0.0..1.0);
                cdf.partition_point(|&c| c <= draw) as u64
            })
            .collect()
    }
}

/// Runs `kernel(lo, hi)` on every `2^(q+1)`-amplitude block of the state:
/// `lo` holds the block's amplitudes with bit `q` clear and `hi` the
/// matching amplitudes with bit `q` set, index for index.
fn for_halves(amps: &mut [C64], q: usize, mut kernel: impl FnMut(&mut [C64], &mut [C64])) {
    let stride = 1usize << q;
    for block in amps.chunks_exact_mut(2 * stride) {
        let (lo, hi) = block.split_at_mut(stride);
        kernel(lo, hi);
    }
}

/// Runs `kernel(x00, x01, x10, x11)` on the quarter-slices of the state for
/// two distinct qubits `a` and `b`: `xij` holds the amplitudes with bit `a`
/// equal to `i` and bit `b` equal to `j`, index for index.
fn for_quarters(
    amps: &mut [C64],
    a: usize,
    b: usize,
    mut kernel: impl FnMut(&mut [C64], &mut [C64], &mut [C64], &mut [C64]),
) {
    let (high, low) = (a.max(b), a.min(b));
    let stride = 1usize << low;
    for_halves(amps, high, |h0, h1| {
        for (l0, l1) in h0
            .chunks_exact_mut(2 * stride)
            .zip(h1.chunks_exact_mut(2 * stride))
        {
            // Split by (high bit, low bit), then hand over in (a, b) order.
            let (q00, q01) = l0.split_at_mut(stride);
            let (q10, q11) = l1.split_at_mut(stride);
            if a > b {
                kernel(q00, q01, q10, q11);
            } else {
                kernel(q00, q10, q01, q11);
            }
        }
    });
}

fn negate(amps: &mut [C64]) {
    amps.iter_mut().for_each(|a| *a = -*a);
}

/// Width of the fixed lane arrays of the rotation kernel.
const LANES: usize = 8;

/// `parity(v)` as `0` or `1`.
fn parity(v: usize) -> usize {
    (v.count_ones() & 1) as usize
}

/// `c·a + m·b` for `m = i·mu` (`IMAG`) or `m = mu`: four real multiplies.
#[inline(always)]
fn axpy<const IMAG: bool>(c: f64, a: C64, mu: f64, b: C64) -> C64 {
    if IMAG {
        C64::new(c * a.re - mu * b.im, c * a.im + mu * b.re)
    } else {
        C64::new(c * a.re + mu * b.re, c * a.im + mu * b.im)
    }
}

/// The rotation pass `ψ[j] ← c·ψ[j] + m·σ(j ^ x)·ψ[j ^ x]`, with
/// `σ(i) = (−1)^{|i & z|}` and `m` given by `IMAG` and `mu` (see
/// [`axpy`]).
///
/// A lane's sign splits into the parity of its chunk's high bits (one
/// popcount per chunk) and `lane[r]`, the parity of the lane index under
/// `z`. Each `coef[b]` table holds `±mu` for a chunk of parity `b`.
fn rotate<const IMAG: bool>(amps: &mut [C64], x: usize, z: usize, c: f64, mu: f64) {
    let lane: [usize; LANES] = std::array::from_fn(|r| parity(r & z));
    let signed = |bit: usize| if bit == 0 { mu } else { -mu };
    if x < LANES {
        // Partners share an aligned chunk: lane r pairs with lane r ^ x.
        let coef: [[f64; LANES]; 2] =
            std::array::from_fn(|b| std::array::from_fn(|r| signed(b ^ lane[r ^ x])));
        let mut chunks = amps.chunks_exact_mut(LANES);
        for (k, chunk) in (&mut chunks).enumerate() {
            let coef = &coef[parity((k * LANES) & z)];
            let mut old = [C64::ZERO; LANES];
            old.copy_from_slice(chunk);
            for r in 0..LANES {
                chunk[r] = axpy::<IMAG>(c, old[r], coef[r], old[(r ^ x) % LANES]);
            }
        }
        // A state of fewer than 8 amplitudes is one short chunk; its
        // partners stay inside it because x < 2^n.
        let tail = chunks.into_remainder();
        let mut old = [C64::ZERO; LANES];
        old[..tail.len()].copy_from_slice(tail);
        for (r, amp) in tail.iter_mut().enumerate() {
            *amp = axpy::<IMAG>(c, old[r], coef[0][r], old[r ^ x]);
        }
        return;
    }
    // Pivot p = the highest X bit: in every 2^(p+1) block, low-half offset
    // k pairs with high-half offset k ^ x_low, i.e. chunk t with chunk
    // t ^ x_chunk, lane r with lane r ^ x_lane.
    let half = 1usize << (usize::BITS - 1 - x.leading_zeros());
    let x_low = x & (half - 1);
    let (x_chunk, x_lane) = (x_low / LANES, x_low % LANES);
    // Pair r is low lane r and high lane r ^ x_lane. The high amplitude's
    // partner is the low one, with sign σ(j) = chunk parity + lane[r]; the
    // low amplitude's is σ(j ^ x) = σ(j)·(−1)^{#Y}.
    let y = parity(x & z);
    let lo_coef: [[f64; LANES]; 2] =
        std::array::from_fn(|b| std::array::from_fn(|r| signed(b ^ lane[r] ^ y)));
    let hi_coef: [[f64; LANES]; 2] =
        std::array::from_fn(|b| std::array::from_fn(|r| signed(b ^ lane[r])));
    for (block_index, block) in amps.chunks_exact_mut(2 * half).enumerate() {
        let base = block_index * 2 * half;
        let (lo, hi) = block.split_at_mut(half);
        for (t, lo_chunk) in lo.chunks_exact_mut(LANES).enumerate() {
            let b = parity((base + t * LANES) & z);
            let hi_chunk = &mut hi[(t ^ x_chunk) * LANES..][..LANES];
            let (lo_coef, hi_coef) = (&lo_coef[b], &hi_coef[b]);
            for r in 0..LANES {
                let h = (r ^ x_lane) % LANES;
                let (lo_amp, hi_amp) = (lo_chunk[r], hi_chunk[h]);
                lo_chunk[r] = axpy::<IMAG>(c, lo_amp, lo_coef[r], hi_amp);
                hi_chunk[h] = axpy::<IMAG>(c, hi_amp, hi_coef[r], lo_amp);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bell() -> StateVector {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        StateVector::from_circuit(&c)
    }

    #[test]
    fn zero_state_probabilities() {
        let s = StateVector::zero_state(3);
        assert!((s.probability_of(0) - 1.0).abs() < 1e-12);
        assert!((s.norm_sq() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_tracks_the_distribution() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let state = bell();
        let mut rng = StdRng::seed_from_u64(11);
        let shots = state.sample_indices(4000, &mut rng);
        assert_eq!(shots.len(), 4000);
        // A Bell state only ever measures |00⟩ or |11⟩, roughly half-half.
        let ones = shots.iter().filter(|&&s| s == 0b11).count();
        assert!(shots.iter().all(|&s| s == 0 || s == 0b11));
        assert!((1500..=2500).contains(&ones), "{ones} out of 4000");
        // Deterministic in the seed.
        let mut rng = StdRng::seed_from_u64(11);
        assert_eq!(state.sample_indices(4000, &mut rng), shots);
    }

    #[test]
    fn bell_state_has_correct_correlations() {
        let s = bell();
        let probs = s.probabilities();
        assert!((probs[0] - 0.5).abs() < 1e-12);
        assert!((probs[3] - 0.5).abs() < 1e-12);
        assert!(probs[1].abs() < 1e-12 && probs[2].abs() < 1e-12);
        assert!((s.expectation(&"ZZ".parse().unwrap()) - 1.0).abs() < 1e-12);
        assert!((s.expectation(&"XX".parse().unwrap()) - 1.0).abs() < 1e-12);
        assert!((s.expectation(&"YY".parse().unwrap()) + 1.0).abs() < 1e-12);
        assert!(s.expectation(&"ZI".parse().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn x_gate_flips_probability() {
        let mut c = Circuit::new(2);
        c.x(1);
        let s = StateVector::from_circuit(&c);
        assert!((s.probability_of(0b10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rz_only_adds_phase() {
        let mut c = Circuit::new(1);
        c.rz(0, 1.234);
        let s = StateVector::from_circuit(&c);
        assert!((s.probability_of(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rx_rotation_probability() {
        let theta = 0.7f64;
        let mut c = Circuit::new(1);
        c.rx(0, theta);
        let s = StateVector::from_circuit(&c);
        assert!((s.probability_of(1) - (theta / 2.0).sin().powi(2)).abs() < 1e-12);
        // ⟨Z⟩ = cos θ.
        assert!((s.expectation(&"Z".parse().unwrap()) - theta.cos()).abs() < 1e-12);
    }

    #[test]
    fn pauli_rotation_expectation_matches_theory() {
        // exp(-iθ/2 Z⊗Z) on |++⟩: ⟨X⊗X⟩ stays 1? No — check ⟨Z⊗Z⟩ = 0 and
        // ⟨Y⊗X⟩ relation instead: e^{-iθ/2 ZZ} |++⟩ gives ⟨XX⟩ = cos... use a
        // simpler check: ⟨XI⟩ = cos θ.
        let theta = 0.9;
        let mut c = Circuit::new(2);
        c.h(0);
        c.h(1);
        c.cx(0, 1);
        c.rz(1, theta);
        c.cx(0, 1);
        let s = StateVector::from_circuit(&c);
        assert!((s.expectation(&"XI".parse().unwrap()) - theta.cos()).abs() < 1e-10);
        assert!((s.expectation(&"IX".parse().unwrap()) - theta.cos()).abs() < 1e-10);
        assert!((s.expectation(&"XX".parse().unwrap()) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn swap_and_cz_act_correctly() {
        let mut c = Circuit::new(2);
        c.x(0);
        c.swap(0, 1);
        let s = StateVector::from_circuit(&c);
        assert!((s.probability_of(0b10) - 1.0).abs() < 1e-12);

        // CZ phase shows up in the X basis.
        let mut c = Circuit::new(2);
        c.h(0);
        c.x(1);
        c.cz(0, 1);
        c.h(0);
        let s = StateVector::from_circuit(&c);
        assert!((s.probability_of(0b11) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn apply_pauli_y_phases() {
        let s = StateVector::zero_state(1);
        let y_applied = s.apply_pauli(&"Y".parse().unwrap());
        // Y|0⟩ = i|1⟩.
        assert!((y_applied.amplitudes()[1] - C64::I).norm() < 1e-12);
    }

    #[test]
    fn expectation_signed_flips_sign() {
        let s = bell();
        let obs: SignedPauli = "-ZZ".parse().unwrap();
        assert!((s.expectation_signed(&obs) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn bitstring_conversion_roundtrip() {
        let s = StateVector::zero_state(4);
        for idx in [0usize, 1, 5, 15, 8] {
            let bits = s.index_to_bitstring(idx);
            assert_eq!(s.bitstring_to_index(&bits), idx);
        }
        assert_eq!(s.index_to_bitstring(0b0001), "1000");
    }

    #[test]
    fn circuit_and_inverse_give_identity() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.rz(1, 0.8);
        c.ry(2, 0.4);
        c.cx(1, 2);
        let mut state = StateVector::from_circuit(&c);
        state.apply_circuit(&c.inverse());
        let zero = StateVector::zero_state(3);
        assert!(state.approx_eq_up_to_phase(&zero, 1e-10));
    }

    #[test]
    #[should_panic(expected = "touches qubit")]
    fn out_of_range_gate_panics() {
        let mut s = StateVector::zero_state(2);
        s.apply_gate(&Gate::H(2));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_circuit_panics() {
        let mut s = StateVector::zero_state(2);
        let c = Circuit::new(3);
        s.apply_circuit(&c);
    }
}
