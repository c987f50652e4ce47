//! Dense state-vector simulation.

use quclear_circuit::math::{single_qubit_matrix, C64};
use quclear_circuit::{Circuit, Gate, MonomialMap};
use quclear_pauli::{PauliRotation, PauliString, SignedPauli};
use rand::Rng;

use crate::runs::{masks, parity, RotationRun, RunKey, Table, TABLE};

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

    /// A state holding the given amplitudes, unnormalized ones included.
    ///
    /// # Panics
    ///
    /// Panics unless the length is a power of two of at most `2^26`.
    #[must_use]
    pub fn from_amplitudes(amps: Vec<C64>) -> Self {
        assert!(
            amps.len().is_power_of_two() && amps.len() <= 1 << 26,
            "{} amplitudes are not a state of at most 26 qubits",
            amps.len()
        );
        let num_qubits = amps.len().trailing_zeros() as usize;
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

    /// Overwrites this state with `M·from` for a monomial Clifford `M`, in
    /// one gather pass and no allocation. Every amplitude is `==` to running
    /// `M`'s gates on a copy of `from` with [`Self::apply_gate`].
    ///
    /// # Panics
    ///
    /// Panics if the three register widths differ.
    pub fn gather(&mut self, from: &StateVector, map: &MonomialMap) {
        assert!(
            from.num_qubits == self.num_qubits && map.num_qubits() == self.num_qubits,
            "gather needs equal register widths"
        );
        map.apply(&from.amps, &mut self.amps);
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
    /// validated directly against circuits. It is the one-member case of
    /// [`Self::apply_rotation_run`] and runs the same kernel: every
    /// amplitude `j` becomes `c·ψ[j] + m·σ(j ^ x)·ψ[j ^ x]`, where `x` is the
    /// string's X mask, `σ` the Z-parity sign and `m = −i·sin(θ/2)·i^{#Y}`
    /// is purely real or purely imaginary, so each update is four real
    /// multiplies. Amplitudes agree with the allocate-`P|ψ⟩`-and-combine
    /// formula to within rounding (`1e-12`, checked by
    /// `tests/kernel_oracle.rs`), not bit for bit.
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
        let (x, z) = masks(rotation);
        let mut key = RunKey::new(x, z);
        let code = key.admit(x, z).expect("a run admits its own reference");
        self.run_pass(&key, [(code, rotation.angle())]);
    }

    /// Applies a whole [`RotationRun`] in one dense pass: `rotations` are
    /// the run's members (`program[run.range()]` of the program it was
    /// planned from), angles included. Each amplitude pair `(j, j ^ x)`
    /// gets the rotation `exp(−i·φ(j)/2·P_1)` about the run's first axis,
    /// with `(cos(φ/2), sin(φ/2))` read from a table of at most 128 entries
    /// keyed by a GF(2)-linear function of `j`, so a pass costs what one
    /// [`Self::apply_rotation`] pass does. The state agrees with applying
    /// the members one by one to within rounding (`1e-12`, checked by
    /// `tests/kernel_oracle.rs`).
    ///
    /// # Panics
    ///
    /// Panics if the run acts on a different number of qubits or
    /// `rotations` is not as long as the run.
    pub fn apply_rotation_run(&mut self, run: &RotationRun, rotations: &[PauliRotation]) {
        assert_eq!(
            run.num_qubits(),
            self.num_qubits,
            "run qubit count does not match the state"
        );
        assert_eq!(
            rotations.len(),
            run.range().len(),
            "a run needs one rotation per member"
        );
        if rotations.iter().all(|r| r.angle() == 0.0) {
            return;
        }
        let members = run.codes().iter().zip(rotations);
        self.run_pass(run.key(), members.map(|(&code, r)| (code, r.angle())));
    }

    /// One pass of the rotation kernel for a run key and its members.
    fn run_pass(&mut self, key: &RunKey, members: impl IntoIterator<Item = (u8, f64)>) {
        let table = key.table(members);
        let (key_masks, len) = key.key_masks();
        let pass = Pass {
            x: key.x,
            masks: &key_masks[..len],
            table: &table,
            y_sign: if key.imaginary() { 1.0 } else { -1.0 },
        };
        let amps = self.amps.as_mut_slice();
        if key.imaginary() {
            pass.rotate::<true>(amps);
        } else {
            pass.rotate::<false>(amps);
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

    /// Samples `shots` computational-basis measurement outcomes from the
    /// state's probability distribution by inverse-CDF sampling: shot `s`
    /// is the first index whose cumulative probability exceeds the `s`-th
    /// draw `rng.gen_range(0.0..1.0)`, one `next_u64` per shot. A guide
    /// table over the CDF finds that index in O(1) expected steps; the
    /// result equals a binary search (`partition_point`) draw for draw.
    /// Returned indices use the same little-endian convention as
    /// [`Self::probabilities`], so they can be packed directly into a
    /// bit-plane shot batch for CA-Post processing.
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
        let guide = guide_table(&cdf);
        let buckets = (guide.len() - 1) as f64;
        (0..shots)
            .map(|_| {
                let draw: f64 = rng.gen_range(0.0..1.0);
                // Every index before guide[b] has cdf <= b/K <= draw; the
                // last cdf is >= 1 > draw, so no step passes the end.
                let mut i = guide[(draw * buckets) as u32 as usize] as usize;
                i += usize::from(cdf[i] <= draw);
                i += usize::from(cdf[i] <= draw);
                while cdf[i] <= draw {
                    i += 1;
                }
                i as u64
            })
            .collect()
    }
}

/// The guide table of a non-decreasing CDF over `2^n` outcomes with
/// `K = 2^n` buckets: `guide[b]` is the number of entries `<= b/K`, the
/// first index a draw in `[b/K, (b+1)/K)` can land on (`guide[K]` is never
/// read). Scaling by the power of two `K` is exact, so `cdf[i] <= b/K`
/// exactly when `⌈cdf[i]·K⌉ <= b`: one pass counts each entry at its
/// ceiling, a prefix pass sums the counts. A draw steps over index `i` only
/// if it falls in the bucket holding `cdf[i]`, so it takes at most
/// `2^n / K = 1` step past `guide[b]` in expectation.
fn guide_table(cdf: &[f64]) -> Vec<u32> {
    let buckets = cdf.len();
    let scale = buckets as f64;
    let mut guide = vec![0u32; buckets + 1];
    for &c in cdf {
        // ⌈x⌉ for 0 <= x <= K without `f64::ceil` (no `roundsd` on
        // baseline x86-64); the clamp also sends a NaN to K.
        let x = (c * scale).min(scale);
        let floor = x as u32;
        guide[(floor + u32::from(f64::from(floor) < x)) as usize] += 1;
    }
    let mut total = 0u32;
    for slot in &mut guide {
        total += *slot;
        *slot = total;
    }
    guide
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

/// `c·a + m·b` for `m = i·mu` (`IMAG`) or `m = mu`: four real multiplies.
#[inline(always)]
fn axpy<const IMAG: bool>(c: f64, a: C64, mu: f64, b: C64) -> C64 {
    if IMAG {
        C64::new(c * a.re - mu * b.im, c * a.im + mu * b.re)
    } else {
        C64::new(c * a.re + mu * b.re, c * a.im + mu * b.im)
    }
}

/// One pass of the rotation kernel: `ψ[j] ← c·ψ[j] + m·ψ[j ^ x]`, with
/// `(c, mu)` (see [`axpy`]) read from `table` at the key of `j ^ x`.
///
/// Bit `i` of the key of an index is its parity under `masks[i]`; the last
/// mask is the run's reference Z mask, so the last bit is the sign
/// `σ(j ^ x)`. The key is GF(2)-linear, so a lane's key is its chunk's key
/// (carried from chunk to chunk by one XOR) XOR its lane's, and each chunk
/// reads one precomputed row of eight `(c, mu)` lanes per chunk key.
struct Pass<'a> {
    x: usize,
    masks: &'a [usize],
    table: &'a Table,
    /// `σ(j ^ x)·σ(j)`: `−1` when the reference has an odd Y count.
    y_sign: f64,
}

impl Pass<'_> {
    fn key(&self, v: usize) -> usize {
        self.masks
            .iter()
            .enumerate()
            .fold(0, |key, (i, &m)| key | parity(v & m) << i)
    }

    /// `steps[t]` is the key of bits `shift..=shift + t`: what flips when a
    /// counter of units `2^shift` steps past `t` trailing ones.
    fn steps(&self, shift: u32) -> [usize; 32] {
        std::array::from_fn(|t| {
            let bits = t as u32 + 1 + shift;
            if bits < usize::BITS {
                self.key(((2usize << t) - 1) << shift)
            } else {
                0
            }
        })
    }

    /// For every chunk key `k`, the `(c, mu)` lanes of a chunk: entry `r`
    /// is the table at `k ^ lane[r]`.
    fn lane_coefs(&self, lane: &[usize; LANES]) -> Vec<Lanes> {
        (0..1usize << self.masks.len())
            .map(|k| {
                let entry = |r: usize| self.table[(k ^ lane[r]) % TABLE];
                Lanes {
                    c: std::array::from_fn(|r| entry(r).0),
                    mu: std::array::from_fn(|r| entry(r).1),
                    mu_low: std::array::from_fn(|r| entry(r).1 * self.y_sign),
                }
            })
            .collect()
    }

    fn rotate<const IMAG: bool>(&self, amps: &mut [C64]) {
        let x = self.x;
        let lane: [usize; LANES] = std::array::from_fn(|r| self.key(r));
        if x < LANES {
            // Partners share an aligned chunk: lane r pairs with lane
            // r ^ x, and key(j ^ x) = key(j) ^ key(x).
            let coefs = self.lane_coefs(&lane.map(|k| k ^ self.key(x)));
            let last = coefs.len() - 1;
            let steps = self.steps(LANES.trailing_zeros());
            let mut chunk_key = 0;
            let mut chunks = amps.chunks_exact_mut(LANES);
            for (k, chunk) in (&mut chunks).enumerate() {
                let coef = &coefs[chunk_key & last];
                let mut old = [C64::ZERO; LANES];
                old.copy_from_slice(chunk);
                for r in 0..LANES {
                    chunk[r] = axpy::<IMAG>(coef.c[r], old[r], coef.mu[r], old[(r ^ x) % LANES]);
                }
                chunk_key ^= steps[(k + 1).trailing_zeros() as usize % 32];
            }
            // A state of fewer than 8 amplitudes is one short chunk; its
            // partners stay inside it because x < 2^n.
            let tail = chunks.into_remainder();
            let mut old = [C64::ZERO; LANES];
            old[..tail.len()].copy_from_slice(tail);
            for (r, amp) in tail.iter_mut().enumerate() {
                *amp = axpy::<IMAG>(coefs[0].c[r], old[r], coefs[0].mu[r], old[r ^ x]);
            }
            return;
        }
        // Pivot p = the highest X bit: in every 2^(p+1) block, low-half
        // offset k pairs with high-half offset k ^ x_low, i.e. chunk t with
        // chunk t ^ x_chunk, lane r with lane r ^ x_lane.
        let half = 1usize << (usize::BITS - 1 - x.leading_zeros());
        let x_low = x & (half - 1);
        let (x_chunk, x_lane) = (x_low / LANES, x_low % LANES);
        // With j the low amplitude, the high one (j ^ x) reads the table
        // at key(j); the low one at key(j ^ x), which differs only in the
        // sign bit: the same entry with mu times `y_sign`.
        let coefs = self.lane_coefs(&lane);
        let last = coefs.len() - 1;
        let chunk_steps = self.steps(LANES.trailing_zeros());
        let block_steps = self.steps(half.trailing_zeros() + 1);
        let mut block_key = 0;
        for (b, block) in amps.chunks_exact_mut(2 * half).enumerate() {
            let (lo, hi) = block.split_at_mut(half);
            let mut chunk_key = block_key;
            for (t, lo_chunk) in lo.chunks_exact_mut(LANES).enumerate() {
                let hi_chunk = &mut hi[(t ^ x_chunk) * LANES..][..LANES];
                let coef = &coefs[chunk_key & last];
                for (r, lo) in lo_chunk.iter_mut().enumerate() {
                    let h = (r ^ x_lane) % LANES;
                    let (lo_amp, hi_amp) = (*lo, hi_chunk[h]);
                    *lo = axpy::<IMAG>(coef.c[r], lo_amp, coef.mu_low[r], hi_amp);
                    hi_chunk[h] = axpy::<IMAG>(coef.c[r], hi_amp, coef.mu[r], lo_amp);
                }
                chunk_key ^= chunk_steps[(t + 1).trailing_zeros() as usize % 32];
            }
            block_key ^= block_steps[(b + 1).trailing_zeros() as usize % 32];
        }
    }
}

/// The `(c, mu)` coefficients of the eight lanes of a chunk, and the
/// pivot path's `mu` for the low amplitude of a pair (`mu · y_sign`).
struct Lanes {
    c: [f64; LANES],
    mu: [f64; LANES],
    mu_low: [f64; LANES],
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
        assert!((s.probabilities()[0] - 1.0).abs() < 1e-12);
        assert!((s.probabilities().iter().sum::<f64>() - 1.0).abs() < 1e-12);
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

    /// Replays fixed words, so draws can sit exactly on CDF values and
    /// bucket edges.
    struct Words<I>(I);

    impl<I: Iterator<Item = u64>> rand::RngCore for Words<I> {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("enough words")
        }
    }

    #[test]
    fn draws_on_cdf_values_and_bucket_edges_take_the_next_index() {
        // Probabilities 1/4, 1/4, 0, 1/2: CDF 0.25, 0.5, 0.5, 1.0, whose
        // values are also the edges of the four guide buckets.
        let half = std::f64::consts::FRAC_1_SQRT_2;
        let state = StateVector::from_amplitudes(vec![
            C64::new(0.5, 0.0),
            C64::new(0.0, 0.5),
            C64::ZERO,
            C64::new(half, 0.0),
        ]);
        assert_eq!(state.probabilities().iter().sum::<f64>(), 1.0);
        let draws = [
            0.0,
            0.25,
            0.5,
            0.75,
            0.2499,
            0.4999,
            1.0 - f64::EPSILON / 2.0,
        ];
        // `gen_range(0.0..1.0)` maps word `w` to `(w >> 11)·2^-53`.
        let words = draws.map(|d| ((d * (1u64 << 53) as f64) as u64) << 11);
        let drawn = state.sample_indices(draws.len(), &mut Words(words.into_iter()));
        assert_eq!(drawn, vec![0, 1, 3, 3, 0, 1, 3]);
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
        assert!((s.probabilities()[0b10] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rz_only_adds_phase() {
        let mut c = Circuit::new(1);
        c.rz(0, 1.234);
        let s = StateVector::from_circuit(&c);
        assert!((s.probabilities()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rx_rotation_probability() {
        let theta = 0.7f64;
        let mut c = Circuit::new(1);
        c.rx(0, theta);
        let s = StateVector::from_circuit(&c);
        assert!((s.probabilities()[1] - (theta / 2.0).sin().powi(2)).abs() < 1e-12);
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
        assert!((s.probabilities()[0b10] - 1.0).abs() < 1e-12);

        // CZ phase shows up in the X basis.
        let mut c = Circuit::new(2);
        c.h(0);
        c.x(1);
        c.cz(0, 1);
        c.h(0);
        let s = StateVector::from_circuit(&c);
        assert!((s.probabilities()[0b11] - 1.0).abs() < 1e-12);
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
