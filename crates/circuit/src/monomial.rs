//! Monomial Clifford layers as one gather pass.
//!
//! A layer of `CX` gates followed by `S` and `CZ` gates only permutes and
//! phases computational basis states. Amplitude `k` of the output is
//! `i^{q(k)}·ψ[s(k)]`, where the source index `s` is a linear map over
//! GF(2) and the phase exponent `q` is a Z₄-valued quadratic form.
//! [`MonomialMap`] stores both as split low/high-bit tables, so a dense
//! state runs the whole layer as one gather instead of one pass per gate.

use crate::math::C64;
use crate::Gate;

/// Widest register a [`MonomialMap`] indexes: a table entry packs a source
/// index and a 2-bit phase exponent into one `u32`.
const MAX_MONOMIAL_QUBITS: usize = 30;

const SOURCE_MASK: u32 = (1 << MAX_MONOMIAL_QUBITS) - 1;

/// A monomial Clifford `|j⟩ ↦ i^{q(k)}·|k⟩` in gather form.
///
/// Output index `k` splits into its low `⌈n/2⌉` bits `l` and high bits `h`.
/// Then `s(k) = s_low(l) ⊕ s_high(h)`, and
/// `q(k) = q_low(l) + q_high(h) + 2·|l ∧ c(h)| (mod 4)`, where `c(h)` masks
/// the low qubits that share a `CZ` with an odd number of `h`'s set bits.
/// The tables hold `O(2^{n/2})` entries.
///
/// # Examples
///
/// ```
/// use quclear_circuit::{Gate, MonomialMap, C64};
///
/// // CX(0→1) then S on qubit 1: |01⟩ (index 1) ↦ i·|11⟩ (index 3).
/// let map = MonomialMap::from_gates(2, &[Gate::Cx { control: 0, target: 1 }, Gate::S(1)]);
/// let mut from = [C64::ZERO; 4];
/// from[1] = C64::ONE;
/// let mut to = [C64::ZERO; 4];
/// map.apply(&from, &mut to);
/// assert_eq!(to[3], C64::I);
/// ```
#[derive(Clone, Debug)]
pub struct MonomialMap {
    num_qubits: usize,
    /// Per low-bit pattern `l`: `s_low(l) | q_low(l) << 30`.
    low: Vec<u32>,
    /// Per high-bit pattern `h`: `(s_high(h) | q_high(h) << 30, c(h))`.
    high: Vec<(u32, u32)>,
}

impl MonomialMap {
    /// The map of a monomial circuit: any `CX` gates first, then any `S`
    /// and `CZ` gates.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` exceeds 30, a gate touches a qubit outside
    /// the register or has coinciding operands, a gate is not one of those
    /// kinds, or a `CX` follows a phase gate.
    #[must_use]
    pub fn from_gates(num_qubits: usize, gates: &[Gate]) -> Self {
        let n = num_qubits;
        assert!(
            n <= MAX_MONOMIAL_QUBITS,
            "monomial map of {n} qubits exceeds {MAX_MONOMIAL_QUBITS}"
        );
        // s(k) = ⊕ k_b·column[b];
        // q(k) = Σ k_b·linear[b] + 2·Σ_{a<b} k_a·k_b·[b ∈ cz[a]].
        let mut column: Vec<u32> = (0..n).map(|q| 1 << q).collect();
        let mut linear = vec![0u32; n];
        let mut cz = vec![0u32; n];
        let mut diagonal = false;
        for gate in gates {
            for &q in gate.qubit_list().as_slice() {
                assert!(q < n, "gate {gate} touches qubit {q} >= {n}");
            }
            match *gate {
                // A CX after the layer so far reads s(CX·k): output bit
                // `control` now also flips the source bits of `target`.
                Gate::Cx { control, target } if control != target => {
                    assert!(
                        !diagonal,
                        "monomial map needs every CX before S/CZ, got {gate}"
                    );
                    column[control] ^= column[target];
                }
                Gate::S(q) => {
                    diagonal = true;
                    linear[q] += 1;
                }
                Gate::Cz { a, b } if a != b => {
                    diagonal = true;
                    cz[a] ^= 1 << b;
                    cz[b] ^= 1 << a;
                }
                _ => panic!("{gate} is not a CX, S or CZ gate on distinct qubits"),
            }
        }
        let low_bits = n - n / 2;
        let low_mask = (1u32 << low_bits) - 1;
        // Each entry extends the entry without its lowest set bit `b`.
        let extend = |entry: u32, rest: u32, b: usize| {
            let phase = (entry >> 30) + (linear[b] & 3) + 2 * parity(rest & cz[b]);
            ((entry & SOURCE_MASK) ^ column[b]) | (phase & 3) << 30
        };
        let mut low = vec![0u32; 1 << low_bits];
        for l in 1..low.len() {
            let rest = l & (l - 1);
            low[l] = extend(low[rest], rest as u32, l.trailing_zeros() as usize);
        }
        let mut high = vec![(0u32, 0u32); 1 << (n / 2)];
        for h in 1..high.len() {
            let rest = h & (h - 1);
            let b = low_bits + h.trailing_zeros() as usize;
            let (entry, cross) = high[rest];
            high[h] = (
                extend(entry, (rest as u32) << low_bits, b),
                cross ^ (cz[b] & low_mask),
            );
        }
        MonomialMap {
            num_qubits,
            low,
            high,
        }
    }

    /// Register width in qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Writes the mapped state into `to`: `to[k] = i^{q(k)}·from[s(k)]`,
    /// one pass over `to`. Each phase is exact: multiplying by a power of
    /// `i` only swaps and negates components, so `to` is bit for bit what
    /// the gate-by-gate kernels produce.
    ///
    /// # Panics
    ///
    /// Panics unless both slices hold `2^n` amplitudes.
    pub fn apply(&self, from: &[C64], to: &mut [C64]) {
        let len = 1usize << self.num_qubits;
        assert!(
            from.len() == len && to.len() == len,
            "monomial map of {} qubits needs {len} amplitudes",
            self.num_qubits
        );
        for (block, &(high, cross)) in to.chunks_exact_mut(self.low.len()).zip(&self.high) {
            for (l, (amp, &low)) in block.iter_mut().zip(&self.low).enumerate() {
                let source = ((low ^ high) & SOURCE_MASK) as usize;
                let phase = (low >> 30) + (high >> 30) + 2 * parity(l as u32 & cross);
                *amp = from[source].times_i_pow(phase);
            }
        }
    }
}

/// `|v| mod 2`.
fn parity(v: u32) -> u32 {
    v.count_ones() & 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn powers_of_i_match_complex_multiplication() {
        let a = C64::new(0.25, -1.5);
        let mut expected = a;
        for p in 0..8 {
            assert_eq!(a.times_i_pow(p), expected, "p = {p}");
            expected = C64::I * expected;
        }
    }

    #[test]
    fn basis_states_move_and_pick_up_phases() {
        // CX(0→2), CX(2→1), then S(1), CZ(0,1), S(2), S(2) on three qubits.
        let cx = |control, target| Gate::Cx { control, target };
        let gates = [
            cx(0, 2),
            cx(2, 1),
            Gate::S(1),
            Gate::Cz { a: 0, b: 1 },
            Gate::S(2),
            Gate::S(2),
        ];
        let map = MonomialMap::from_gates(3, &gates);
        for j in 0..8usize {
            // Follow |j⟩ gate by gate.
            let mut k = j ^ ((j & 1) << 2);
            k ^= ((k >> 2) & 1) << 1;
            let bit = |q: usize| ((k >> q) & 1) as u32;
            let phase = bit(1) + 2 * (bit(0) & bit(1)) + 2 * bit(2);
            let mut from = [C64::ZERO; 8];
            from[j] = C64::ONE;
            let mut to = [C64::ZERO; 8];
            map.apply(&from, &mut to);
            assert_eq!(to[k], C64::ONE.times_i_pow(phase), "j = {j}");
            assert_eq!(to.iter().filter(|a| **a != C64::ZERO).count(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "every CX before")]
    fn a_permutation_after_a_phase_is_rejected() {
        let _ = MonomialMap::from_gates(
            2,
            &[
                Gate::S(0),
                Gate::Cx {
                    control: 0,
                    target: 1,
                },
            ],
        );
    }

    #[test]
    #[should_panic(expected = "not a CX, S or CZ gate")]
    fn a_hadamard_is_rejected() {
        let _ = MonomialMap::from_gates(1, &[Gate::H(0)]);
    }
}
