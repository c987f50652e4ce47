//! The circuit container and its metrics.

use std::fmt;

use crate::Gate;

/// A quantum circuit: an ordered list of gates on a fixed-size qubit register.
///
/// Gates are stored in execution (time) order. The struct exposes the metrics
/// the QuCLEAR evaluation reports: CNOT count, entangling depth, total depth
/// and single-qubit gate count.
///
/// # Examples
///
/// ```
/// use quclear_circuit::{Circuit, Gate};
///
/// let mut qc = Circuit::new(3);
/// qc.h(0);
/// qc.cx(0, 1);
/// qc.cx(1, 2);
/// qc.rz(2, 0.5);
/// assert_eq!(qc.cnot_count(), 2);
/// assert_eq!(qc.entangling_depth(), 2);
/// assert_eq!(qc.single_qubit_count(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Circuit {
    num_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit on `num_qubits` qubits.
    #[must_use]
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            gates: Vec::new(),
        }
    }

    /// Creates a circuit from an existing gate list.
    ///
    /// # Panics
    ///
    /// Panics if any gate touches a qubit `>= num_qubits`.
    #[must_use]
    pub fn from_gates(num_qubits: usize, gates: Vec<Gate>) -> Self {
        for g in &gates {
            for &q in g.qubit_list().as_slice() {
                assert!(q < num_qubits, "gate {g} touches qubit {q} >= {num_qubits}");
            }
        }
        Circuit { num_qubits, gates }
    }

    /// Number of qubits in the register.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The gates in execution order.
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Total number of gates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` if the circuit contains no gates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate touches a qubit outside the register.
    pub fn push(&mut self, gate: Gate) {
        for &q in gate.qubit_list().as_slice() {
            assert!(
                q < self.num_qubits,
                "gate {gate} touches qubit {q} >= {}",
                self.num_qubits
            );
        }
        self.gates.push(gate);
    }

    /// Appends every gate of `other` (which must act on the same register
    /// size).
    ///
    /// # Panics
    ///
    /// Panics if `other` has a different number of qubits.
    pub fn append(&mut self, other: &Circuit) {
        assert_eq!(
            self.num_qubits, other.num_qubits,
            "cannot append circuits with different register sizes"
        );
        self.gates.extend_from_slice(&other.gates);
    }

    /// Appends a Hadamard gate on `q`.
    pub fn h(&mut self, q: usize) {
        self.push(Gate::H(q));
    }

    /// Appends an S gate on `q`.
    pub fn s(&mut self, q: usize) {
        self.push(Gate::S(q));
    }

    /// Appends an S† gate on `q`.
    pub fn sdg(&mut self, q: usize) {
        self.push(Gate::Sdg(q));
    }

    /// Appends a Pauli-X gate on `q`.
    pub fn x(&mut self, q: usize) {
        self.push(Gate::X(q));
    }

    /// Appends a Pauli-Y gate on `q`.
    pub fn y(&mut self, q: usize) {
        self.push(Gate::Y(q));
    }

    /// Appends a Pauli-Z gate on `q`.
    pub fn z(&mut self, q: usize) {
        self.push(Gate::Z(q));
    }

    /// Appends an `Rz(angle)` gate on `q`.
    pub fn rz(&mut self, q: usize, angle: f64) {
        self.push(Gate::Rz { qubit: q, angle });
    }

    /// Appends an `Rx(angle)` gate on `q`.
    pub fn rx(&mut self, q: usize, angle: f64) {
        self.push(Gate::Rx { qubit: q, angle });
    }

    /// Appends an `Ry(angle)` gate on `q`.
    pub fn ry(&mut self, q: usize, angle: f64) {
        self.push(Gate::Ry { qubit: q, angle });
    }

    /// Appends a CNOT gate.
    pub fn cx(&mut self, control: usize, target: usize) {
        self.push(Gate::Cx { control, target });
    }

    /// Appends a CZ gate.
    pub fn cz(&mut self, a: usize, b: usize) {
        self.push(Gate::Cz { a, b });
    }

    /// Appends a SWAP gate.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.push(Gate::Swap { a, b });
    }

    /// Number of CNOT-equivalent two-qubit gates (SWAP counts as three).
    #[must_use]
    pub fn cnot_count(&self) -> usize {
        self.gates.iter().map(Gate::cnot_cost).sum()
    }

    /// Number of single-qubit gates.
    #[must_use]
    pub fn single_qubit_count(&self) -> usize {
        self.gates.iter().filter(|g| !g.is_two_qubit()).count()
    }

    /// Entangling depth (CNOT depth): circuit depth counting only two-qubit
    /// gates.
    #[must_use]
    pub fn entangling_depth(&self) -> usize {
        self.depth_impl(true)
    }

    fn depth_impl(&self, entangling_only: bool) -> usize {
        let mut per_qubit = vec![0usize; self.num_qubits];
        let mut max_depth = 0;
        for g in &self.gates {
            if entangling_only && !g.is_two_qubit() {
                continue;
            }
            let qs = g.qubit_list();
            let layer = qs
                .as_slice()
                .iter()
                .map(|&q| per_qubit[q])
                .max()
                .unwrap_or(0)
                + 1;
            for &q in qs.as_slice() {
                per_qubit[q] = layer;
            }
            max_depth = max_depth.max(layer);
        }
        max_depth
    }

    /// The inverse circuit: gates reversed and individually inverted.
    #[must_use]
    pub fn inverse(&self) -> Circuit {
        let gates = self.gates.iter().rev().map(Gate::inverse).collect();
        Circuit {
            num_qubits: self.num_qubits,
            gates,
        }
    }
}

impl Extend<Gate> for Circuit {
    fn extend<T: IntoIterator<Item = Gate>>(&mut self, iter: T) {
        for g in iter {
            self.push(g);
        }
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit on {} qubits, {} gates:",
            self.num_qubits,
            self.gates.len()
        )?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Circuit {
        /// Full circuit depth counting every gate.
        fn depth(&self) -> usize {
            self.depth_impl(false)
        }
    }

    fn ghz(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        c
    }

    #[test]
    fn counts_on_ghz() {
        let c = ghz(4);
        assert_eq!(c.cnot_count(), 3);
        assert_eq!(c.single_qubit_count(), 1);
        assert_eq!(c.entangling_depth(), 3);
        assert_eq!(c.depth(), 4);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn parallel_cnots_have_depth_one() {
        let mut c = Circuit::new(4);
        c.cx(0, 1);
        c.cx(2, 3);
        assert_eq!(c.entangling_depth(), 1);
        assert_eq!(c.cnot_count(), 2);
    }

    #[test]
    fn swap_counts_as_three_cnots() {
        let mut c = Circuit::new(2);
        c.swap(0, 1);
        assert_eq!(c.cnot_count(), 3);
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut c = Circuit::new(2);
        c.s(0);
        c.cx(0, 1);
        c.rz(1, 0.5);
        let inv = c.inverse();
        assert_eq!(
            inv.gates(),
            &[
                Gate::Rz {
                    qubit: 1,
                    angle: -0.5
                },
                Gate::Cx {
                    control: 0,
                    target: 1
                },
                Gate::Sdg(0),
            ]
        );
    }

    #[test]
    fn append_and_extend() {
        let mut a = ghz(3);
        let b = ghz(3);
        a.append(&b);
        assert_eq!(a.len(), 6);
        let mut c = Circuit::new(2);
        c.extend([Gate::H(0), Gate::H(1)]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn map_qubits_into_larger_register() {
        let c = ghz(3);
        let gates = c.gates().iter().map(|g| g.map_qubits(|q| q + 5)).collect();
        let mapped = Circuit::from_gates(10, gates);
        assert_eq!(mapped.num_qubits(), 10);
        assert_eq!(mapped.cnot_count(), 2);
        assert_eq!(
            mapped.gates()[1],
            Gate::Cx {
                control: 5,
                target: 6
            }
        );
    }

    #[test]
    fn clifford_detection() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        assert!(c.gates().iter().all(Gate::is_clifford));
        c.rz(1, 0.3);
        assert!(!c.gates().iter().all(Gate::is_clifford));
    }

    #[test]
    #[should_panic(expected = "touches qubit")]
    fn push_out_of_range_panics() {
        let mut c = Circuit::new(2);
        c.cx(0, 2);
    }

    #[test]
    fn empty_circuit_metrics() {
        let c = Circuit::new(5);
        assert!(c.is_empty());
        assert_eq!(c.depth(), 0);
        assert_eq!(c.entangling_depth(), 0);
        assert_eq!(c.cnot_count(), 0);
    }
}
