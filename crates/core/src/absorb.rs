//! Clifford Absorption (Section VI of the QuCLEAR paper).
//!
//! The Clifford subcircuit `U_CL` produced by extraction never has to run on
//! the quantum device:
//!
//! * **Observable measurements** (VQE-style workloads): each Pauli observable
//!   `O` is replaced by `O' = U_CL† O U_CL` (CA-Pre), measured with a layer of
//!   single-qubit basis rotations, and mapped back by the CA-Post dictionary.
//! * **Probability measurements** (QAOA-style workloads): the extracted
//!   Clifford reduces to a single layer of single-qubit basis rotations
//!   followed by a CNOT network (Proposition 1); the basis layer is appended
//!   to the quantum circuit and the CNOT network becomes a classical affine
//!   map `x ↦ A·x ⊕ b` applied to measured bitstrings.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use quclear_circuit::{Circuit, Gate};
use quclear_pauli::{PauliFrame, PauliOp, PauliString, SignedPauli};
use quclear_tableau::{conjugate_all_by_gate, CliffordTableau};

use crate::gf2::Gf2Matrix;
use crate::shots::ShotBatch;

/// A reusable, batch-first recipe for Clifford Absorption: everything that
/// depends only on the extracted Clifford (never on the observables, angles
/// or shots), built once and applied to arbitrarily many observable sets.
///
/// CA-Pre rewrites a whole observable set in one word-parallel sweep: the
/// set is loaded into a [`PauliFrame`] and conjugated through the extracted
/// Clifford by replaying the inverse extracted gates with
/// [`conjugate_all_by_gate`] (`O(gates · observables/64)` word operations).
/// The plan expects the served, resynthesized `U_CL`
/// ([`crate::ExtractionResult::resynthesized`]), whose `O(n²)` gates make
/// the replay cheaper than a full tableau sweep. No per-string
/// [`CliffordTableau::apply`] calls are made anywhere.
///
/// # Examples
///
/// ```
/// use quclear_core::{compile, QuClearConfig};
/// use quclear_pauli::{PauliRotation, SignedPauli};
///
/// let program = vec![
///     PauliRotation::parse("ZZZZ", 0.3)?,
///     PauliRotation::parse("YYXX", 0.7)?,
/// ];
/// let result = compile(&program, &QuClearConfig::default());
/// let plan = result.absorption_plan();
/// let observables: Vec<SignedPauli> = vec!["XXZZ".parse()?, "ZIIZ".parse()?];
/// let absorbed = plan.absorb(&observables);
/// assert_eq!(absorbed.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct AbsorptionPlan {
    n: usize,
    /// Gate sequence whose frame replay implements `P ↦ U_CL† P U_CL`
    /// (the gates of the inverse extracted circuit, in time order).
    inverse_gates: Vec<Gate>,
}

impl AbsorptionPlan {
    /// Builds a plan from the extracted Clifford circuit. CA-Pre replays the
    /// inverse extracted gates over the observable frame, so `extracted`
    /// should be the short resynthesized `U_CL` the pipeline serves.
    #[must_use]
    pub fn from_extracted(extracted: &Circuit) -> Self {
        AbsorptionPlan {
            n: extracted.num_qubits(),
            inverse_gates: extracted.inverse().gates().to_vec(),
        }
    }

    /// Number of qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The gates of `U_CL†` in time order: the sequence CA-Pre replays, and
    /// the circuit that takes the program's state to the optimized
    /// circuit's.
    #[must_use]
    pub fn inverse_gates(&self) -> &[Gate] {
        &self.inverse_gates
    }

    /// CA-Pre on a whole observable set: loads the set into one frame,
    /// conjugates it through the extracted Clifford in a single sweep, and
    /// returns the rewritten observables (with their coefficient signs).
    ///
    /// The sweep replays the inverse extracted gates, one word-parallel
    /// plane update per gate (`O(gates · rows/64)`).
    ///
    /// # Panics
    ///
    /// Panics if any observable's qubit count differs from the plan's.
    #[must_use]
    pub fn absorb(&self, observables: &[SignedPauli]) -> AbsorbedObservables {
        let mut frame = PauliFrame::from_signed(self.n, observables);
        for gate in &self.inverse_gates {
            conjugate_all_by_gate(&mut frame, gate);
        }
        AbsorbedObservables { frame }
    }
}

/// A batch of observables rewritten by CA-Pre, stored as a [`PauliFrame`].
///
/// Row `i` is `U_CL† O_i U_CL` for input observable `O_i`; the sign plane
/// carries the coefficient signs (input sign folded with the conjugation
/// sign), so `⟨O_i⟩ = sign(i) · ⟨P'_i⟩` where `P'_i` is the sign-free row
/// measured on the optimized circuit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbsorbedObservables {
    frame: PauliFrame,
}

impl AbsorbedObservables {
    /// Number of observables in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.frame.num_rows()
    }

    /// Returns `true` if the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frame.num_rows() == 0
    }

    /// Number of qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.frame.num_qubits()
    }

    /// The rewritten observables as a column-major frame (the layout the
    /// batch estimators consume directly).
    #[must_use]
    pub fn frame(&self) -> &PauliFrame {
        &self.frame
    }

    /// The `i`-th rewritten observable.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn get(&self, i: usize) -> SignedPauli {
        self.frame.get(i)
    }

    /// The coefficient sign of the `i`-th rewritten observable (`±1.0`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn sign(&self, i: usize) -> f64 {
        if self.frame.sign(i) {
            -1.0
        } else {
            1.0
        }
    }

    /// Unpacks the batch into signed Pauli strings, in input order.
    #[must_use]
    pub fn to_vec(&self) -> Vec<SignedPauli> {
        (0..self.len()).map(|i| self.frame.get(i)).collect()
    }

    /// CA-Post sign folding: converts the measured expectation of the `i`-th
    /// sign-free rewritten Pauli into the expectation of the `i`-th original
    /// observable.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn original_expectation(&self, i: usize, measured_pauli_expectation: f64) -> f64 {
        self.sign(i) * measured_pauli_expectation
    }

    /// Greedily partitions the rewritten observables into groups of mutually
    /// commuting strings (bitwise symplectic-product tests), so a VQE
    /// workload measures one basis per group instead of one per observable.
    #[must_use]
    pub fn commuting_groups(&self) -> Vec<Vec<usize>> {
        crate::grouping::group_commuting_frame(&self.frame)
    }
}

/// Estimates `⟨P⟩` from computational-basis probabilities measured *after*
/// [`basis_change_circuit`](crate::basis_change_circuit) was applied: the
/// expectation is the ±1 parity of the measured bits over the observable's
/// support.
///
/// # Panics
///
/// Panics if `probabilities.len() != 2^n`.
#[must_use]
pub fn expectation_from_probabilities(observable: &PauliString, probabilities: &[f64]) -> f64 {
    let n = observable.num_qubits();
    assert_eq!(
        probabilities.len(),
        1 << n,
        "probability vector has wrong length"
    );
    let mask: usize = observable
        .support()
        .iter()
        .fold(0, |acc, &q| acc | (1 << q));
    probabilities
        .iter()
        .enumerate()
        .map(|(x, p)| {
            let parity = (x & mask).count_ones() % 2;
            if parity == 1 {
                -p
            } else {
                *p
            }
        })
        .sum()
}

/// Error returned when the extracted Clifford cannot be absorbed into
/// probability measurements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbsorptionError {
    /// No single-qubit basis change on this qubit turns the extracted
    /// Clifford into a classical (basis-permuting) network. This happens when
    /// the input was not of the QAOA form covered by Proposition 1; use
    /// observable absorption instead.
    NotReducible {
        /// The qubit at which the reduction failed.
        qubit: usize,
    },
    /// The recovered CNOT network matrix was singular (cannot happen for a
    /// valid Clifford; kept as a defensive error instead of a panic).
    SingularNetwork,
}

impl fmt::Display for AbsorptionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbsorptionError::NotReducible { qubit } => write!(
                f,
                "extracted Clifford is not a basis layer + CNOT network at qubit {qubit}"
            ),
            AbsorptionError::SingularNetwork => write!(f, "recovered CNOT network is singular"),
        }
    }
}

impl Error for AbsorptionError {}

/// The CA modules for probability-distribution measurements: a single layer
/// of measurement-basis rotations (CA-Pre) plus a classical affine map over
/// GF(2) applied to measured bitstrings (CA-Post).
#[derive(Clone, Debug)]
pub struct ProbabilityAbsorber {
    n: usize,
    /// Per-qubit measurement basis: `Z` (nothing), `X` (`H`) or `Y` (`S†H`).
    basis_layer: Vec<PauliOp>,
    /// The classical linear map `A`.
    matrix: Gf2Matrix,
    /// The affine offset `b`.
    offset: Vec<bool>,
}

impl ProbabilityAbsorber {
    /// Analyses the extracted Clifford circuit and splits it into a basis
    /// layer and a classical network.
    ///
    /// # Errors
    ///
    /// Returns [`AbsorptionError::NotReducible`] if the Clifford is not of the
    /// basis-layer + CNOT-network form guaranteed by Proposition 1 for QAOA
    /// circuits.
    pub fn from_extracted(extracted: &Circuit) -> Result<Self, AbsorptionError> {
        let n = extracted.num_qubits();
        let forward = CliffordTableau::from_circuit(extracted);
        let is_z_type = |p: &SignedPauli| p.pauli().x_bits().is_zero();

        let mut basis_layer = Vec::with_capacity(n);
        let mut rows: Vec<Vec<bool>> = Vec::with_capacity(n);
        let mut signs: Vec<bool> = Vec::with_capacity(n);
        for q in 0..n {
            // Find the single-qubit Pauli whose image under E·(·)·E† is a
            // Z-type string; that determines the measurement basis of qubit q.
            // E Y_q E† = i·(E X_q E†)(E Z_q E†) is computed from the rows.
            let candidates = [
                (PauliOp::Z, forward.z_image(q)),
                (PauliOp::X, forward.x_image(q)),
                (PauliOp::Y, y_image(&forward, q)),
            ];
            let mut chosen = None;
            for (basis, image) in candidates {
                if is_z_type(&image) {
                    chosen = Some((basis, image));
                    break;
                }
            }
            let Some((basis, image)) = chosen else {
                return Err(AbsorptionError::NotReducible { qubit: q });
            };
            basis_layer.push(basis);
            rows.push((0..n).map(|j| image.pauli().op(j) == PauliOp::Z).collect());
            signs.push(image.is_negative());
        }

        let b_matrix = Gf2Matrix::from_rows(rows);
        let matrix = b_matrix.inverse().ok_or(AbsorptionError::SingularNetwork)?;
        let offset = matrix.mul_vec(&signs);
        Ok(ProbabilityAbsorber {
            n,
            basis_layer,
            matrix,
            offset,
        })
    }

    /// Number of qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The per-qubit measurement basis (`Z`, `X` or `Y`). For QAOA circuits
    /// this is the "single layer of Hadamard gates" of Proposition 1 (all `X`
    /// on mixer qubits).
    #[must_use]
    pub fn basis_layer(&self) -> &[PauliOp] {
        &self.basis_layer
    }

    /// The CA-Pre circuit: single-qubit rotations appended to the optimized
    /// circuit before measuring in the computational basis.
    #[must_use]
    pub fn pre_circuit(&self) -> Circuit {
        let mut circuit = Circuit::new(self.n);
        for (q, &basis) in self.basis_layer.iter().enumerate() {
            match basis {
                PauliOp::X => circuit.h(q),
                PauliOp::Y => {
                    circuit.sdg(q);
                    circuit.h(q);
                }
                _ => {}
            }
        }
        circuit
    }

    /// CA-Post on a single measured basis-state index: returns the basis
    /// state the *original* circuit would have produced.
    #[must_use]
    pub fn map_index(&self, measured: usize) -> usize {
        let mapped = self.matrix.mul_index(measured);
        let offset_bits =
            self.offset
                .iter()
                .enumerate()
                .fold(0usize, |acc, (q, &b)| if b { acc | (1 << q) } else { acc });
        mapped ^ offset_bits
    }

    /// CA-Post on a full probability vector (length `2^n`).
    ///
    /// # Panics
    ///
    /// Panics if the vector length is not `2^n`.
    #[must_use]
    pub fn post_process_probabilities(&self, probabilities: &[f64]) -> Vec<f64> {
        assert_eq!(
            probabilities.len(),
            1 << self.n,
            "probability vector has wrong length"
        );
        let mut out = vec![0.0; probabilities.len()];
        for (x, &p) in probabilities.iter().enumerate() {
            out[self.map_index(x)] += p;
        }
        out
    }

    /// CA-Post on a bit-plane shot batch: applies `x ↦ A·x ⊕ b` to every
    /// shot as a packed GF(2) matvec over the per-qubit planes
    /// ([`Gf2Matrix::mul_planes`]) followed by one whole-plane complement
    /// per set offset bit — `O(n² · shots/64)` word operations with no
    /// per-shot or per-bit loop.
    ///
    /// # Panics
    ///
    /// Panics if the batch's qubit count differs from the absorber's.
    #[must_use]
    pub fn post_process_shots(&self, shots: &ShotBatch) -> ShotBatch {
        assert_eq!(
            shots.num_qubits(),
            self.n,
            "shot batch qubit count must match the absorber"
        );
        let mut planes = self.matrix.mul_planes(shots.planes());
        for (plane, &flip) in planes.iter_mut().zip(&self.offset) {
            if flip {
                plane.flip_all();
            }
        }
        ShotBatch::from_planes(planes)
    }

    /// CA-Post on measurement counts: the cost is `O(m·s)` for `s` distinct
    /// measured states and `m` CNOTs, independent of `2^n`.
    #[must_use]
    pub fn post_process_counts(&self, counts: &BTreeMap<usize, u64>) -> BTreeMap<usize, u64> {
        let mut out = BTreeMap::new();
        for (&state, &count) in counts {
            *out.entry(self.map_index(state)).or_insert(0) += count;
        }
        out
    }
}

/// Computes `E Y_q E†` from the X and Z images: `Y = i·X·Z`, so the image is
/// `i · (E X_q E†)(E Z_q E†)`, which is again a ±1 Pauli.
fn y_image(forward: &CliffordTableau, q: usize) -> SignedPauli {
    let x_img = forward.x_image(q);
    let z_img = forward.z_image(q);
    let (pauli, phase) = x_img.pauli().mul(z_img.pauli());
    // Total phase: i · i^phase · (±1 from the row signs). It must be ±1.
    let mut exponent = (1 + phase) % 4;
    if x_img.is_negative() {
        exponent = (exponent + 2) % 4;
    }
    if z_img.is_negative() {
        exponent = (exponent + 2) % 4;
    }
    assert!(exponent % 2 == 0, "Y image must be Hermitian");
    SignedPauli::new(pauli, exponent == 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quclear_circuit::Gate as G;

    /// The per-string CA-Pre oracle: conjugates each observable through the
    /// Heisenberg tableau on its own.
    fn per_string(heisenberg: &CliffordTableau, observables: &[SignedPauli]) -> Vec<SignedPauli> {
        observables
            .iter()
            .map(|o| heisenberg.apply_signed(o))
            .collect()
    }

    #[test]
    fn absorb_observables_through_cnot() {
        // U_CL = CNOT(0→1): O = XX becomes XI (Heisenberg map of CNOT).
        let mut e = Circuit::new(2);
        e.cx(0, 1);
        let obs: Vec<SignedPauli> = vec!["XX".parse().unwrap(), "ZZ".parse().unwrap()];
        let absorbed = AbsorptionPlan::from_extracted(&e).absorb(&obs);
        assert_eq!(absorbed.get(0).to_string(), "+XI");
        assert_eq!(absorbed.get(1).to_string(), "+IZ");
    }

    #[test]
    fn measurement_basis_circuit_shapes() {
        let c = crate::basis_change_circuit(3, &"XYZ".parse().unwrap());
        // X needs one H, Y needs S†+H, Z needs nothing.
        assert_eq!(c.len(), 3);
        assert!(matches!(c.gates()[0], G::H(0)));
    }

    #[test]
    fn expectation_from_probabilities_parity() {
        // Distribution concentrated on |11⟩ on 2 qubits: ⟨ZZ⟩ = +1, ⟨ZI⟩ = -1.
        let mut probs = vec![0.0; 4];
        probs[0b11] = 1.0;
        assert!(
            (expectation_from_probabilities(&"ZZ".parse().unwrap(), &probs) - 1.0).abs() < 1e-12
        );
        assert!(
            (expectation_from_probabilities(&"ZI".parse().unwrap(), &probs) + 1.0).abs() < 1e-12
        );
    }

    #[test]
    fn pure_cnot_network_is_absorbable_with_z_basis() {
        let mut e = Circuit::new(3);
        e.cx(0, 1);
        e.cx(1, 2);
        let absorber = ProbabilityAbsorber::from_extracted(&e).unwrap();
        assert!(absorber.basis_layer().iter().all(|&b| b == PauliOp::Z));
        assert!(absorber.pre_circuit().is_empty());
        // CNOT(0→1) then CNOT(1→2) maps |100⟩ → |111⟩ (qubit 0 set).
        assert_eq!(absorber.map_index(0b001), 0b111);
        assert_eq!(absorber.map_index(0), 0);
    }

    #[test]
    fn hadamard_layer_plus_cnot_network_is_absorbable() {
        // E = [CNOTs][H layer] in time order H first.
        let mut e = Circuit::new(2);
        e.h(0);
        e.h(1);
        e.cx(0, 1);
        let absorber = ProbabilityAbsorber::from_extracted(&e).unwrap();
        assert!(absorber.basis_layer().iter().all(|&b| b == PauliOp::X));
        assert_eq!(absorber.pre_circuit().len(), 2);
    }

    #[test]
    fn x_gates_produce_affine_offsets() {
        let mut e = Circuit::new(2);
        e.x(0);
        e.cx(0, 1);
        let absorber = ProbabilityAbsorber::from_extracted(&e).unwrap();
        // |00⟩ → X(0) → |10⟩ (index 0b01) → CX → |11⟩ (index 0b11).
        assert_eq!(absorber.map_index(0), 0b11);
    }

    #[test]
    fn non_reducible_clifford_is_rejected() {
        // An S gate sandwiched between Hadamards is not a basis layer + CNOT
        // network on qubit 0 together with the entangling structure below.
        let mut e = Circuit::new(2);
        e.h(0);
        e.s(0);
        e.cx(0, 1);
        e.h(1);
        e.s(1);
        e.h(1);
        e.cx(1, 0);
        e.s(0);
        // Either it reduces (fine: S contributes only phases) or it reports a
        // clean `NotReducible` error — it must never panic.
        if let Err(err) = ProbabilityAbsorber::from_extracted(&e) {
            assert!(matches!(err, AbsorptionError::NotReducible { .. }));
        }
    }

    #[test]
    fn counts_post_processing_matches_index_map() {
        let mut e = Circuit::new(3);
        e.cx(2, 0);
        e.cx(0, 1);
        let absorber = ProbabilityAbsorber::from_extracted(&e).unwrap();
        let mut counts = BTreeMap::new();
        counts.insert(0b101usize, 60u64);
        counts.insert(0b011usize, 40u64);
        let post = absorber.post_process_counts(&counts);
        assert_eq!(post.values().sum::<u64>(), 100);
        assert_eq!(post.get(&absorber.map_index(0b101)), Some(&60));
    }

    #[test]
    fn absorption_plan_matches_per_string_absorption() {
        let mut layer = Circuit::new(3);
        layer.h(0);
        layer.cx(0, 1);
        layer.s(2);
        layer.cx(1, 2);
        layer.sdg(0);
        // A short circuit and a five-layer (25-gate) one.
        let mut deep = Circuit::new(3);
        for _ in 0..5 {
            deep.append(&layer);
        }
        let observables: Vec<SignedPauli> = ["XXI", "-ZZZ", "IYI", "ZIX", "-YYY", "III"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        for extracted in [&layer, &deep] {
            let heisenberg = CliffordTableau::heisenberg_from_circuit(extracted);
            let scalar = per_string(&heisenberg, &observables);
            let absorbed = AbsorptionPlan::from_extracted(extracted).absorb(&observables);
            assert_eq!(absorbed.to_vec(), scalar);
            // Sign plane mirrors the per-row signs.
            for (i, o) in scalar.iter().enumerate() {
                assert_eq!(absorbed.frame().sign_plane().get(i), o.is_negative());
                assert_eq!(absorbed.sign(i), o.sign());
                assert_eq!(absorbed.original_expectation(i, 0.25), o.sign() * 0.25);
            }
        }
    }

    #[test]
    fn absorbed_observables_grouping_and_circuits() {
        let mut e = Circuit::new(2);
        e.cx(0, 1);
        let observables: Vec<SignedPauli> = vec!["ZZ".parse().unwrap(), "XX".parse().unwrap()];
        let absorbed = AbsorptionPlan::from_extracted(&e).absorb(&observables);
        // CNOT absorption: ZZ → IZ, XX → XI — they commute qubit-wise.
        let groups = absorbed.commuting_groups();
        let covered: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(covered, 2);
        // Measurement circuit of the X-type row needs one H.
        let circuit = crate::basis_change_circuit(2, absorbed.get(1).pauli());
        assert_eq!(circuit.len(), 1);
    }

    #[test]
    fn shot_post_processing_matches_per_shot_map() {
        let mut e = Circuit::new(5);
        e.x(1);
        e.cx(0, 1);
        e.cx(1, 3);
        e.cx(4, 2);
        e.x(4);
        let absorber = ProbabilityAbsorber::from_extracted(&e).unwrap();
        // 137 shots: crosses a word boundary with a partial tail.
        let shots: Vec<u64> = (0..137).map(|i| (i * 2654435761) % (1 << 5)).collect();
        let batch = ShotBatch::from_indices(5, &shots);
        let mapped = absorber.post_process_shots(&batch);
        let scalar: Vec<u64> = shots
            .iter()
            .map(|&s| absorber.map_index(s as usize) as u64)
            .collect();
        assert_eq!(mapped.to_indices(), scalar);
        // Counts agree with the BTreeMap path.
        let mut counts = BTreeMap::new();
        for &s in &shots {
            *counts.entry(s as usize).or_insert(0u64) += 1;
        }
        let mapped_counts = absorber.post_process_counts(&counts);
        let plane_counts: BTreeMap<usize, u64> = mapped
            .counts()
            .into_iter()
            .map(|(k, v)| (k as usize, v))
            .collect();
        assert_eq!(mapped_counts, plane_counts);
    }

    #[test]
    fn probability_post_processing_is_a_permutation() {
        let mut e = Circuit::new(3);
        e.h(1);
        e.cx(1, 2);
        e.cx(0, 1);
        let absorber = ProbabilityAbsorber::from_extracted(&e).unwrap();
        let probs: Vec<f64> = (0..8).map(|i| (i as f64 + 1.0) / 36.0).collect();
        let post = absorber.post_process_probabilities(&probs);
        let mut sorted_in = probs.clone();
        let mut sorted_out = post.clone();
        sorted_in.sort_by(f64::total_cmp);
        sorted_out.sort_by(f64::total_cmp);
        assert_eq!(
            sorted_in, sorted_out,
            "post-processing must permute the distribution"
        );
    }
}
