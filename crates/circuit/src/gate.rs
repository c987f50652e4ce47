//! The gate set of the circuit IR.

use std::fmt;

/// The (one or two) qubits a gate acts on, stored inline.
///
/// A stack-only alternative to `Vec<usize>` for the optimizer's inner loops:
/// no heap allocation, `Copy`, and cheap disjointness tests.
///
/// # Examples
///
/// ```
/// use quclear_circuit::Gate;
///
/// let cx = Gate::Cx { control: 3, target: 1 };
/// let list = cx.qubit_list();
/// assert_eq!(list.as_slice(), &[3, 1]);
/// assert!(list.contains(1));
/// assert!(list.is_disjoint(Gate::H(0).qubit_list()));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QubitList {
    qubits: [usize; 2],
    len: u8,
}

impl QubitList {
    /// A single-qubit list.
    #[must_use]
    pub fn one(q: usize) -> Self {
        QubitList {
            qubits: [q, usize::MAX],
            len: 1,
        }
    }

    /// A two-qubit list (order preserved).
    #[must_use]
    pub fn two(a: usize, b: usize) -> Self {
        QubitList {
            qubits: [a, b],
            len: 2,
        }
    }

    /// The qubits as a slice, in gate order.
    #[must_use]
    pub fn as_slice(&self) -> &[usize] {
        &self.qubits[..self.len as usize]
    }

    /// Whether `q` is in the list.
    #[must_use]
    pub fn contains(&self, q: usize) -> bool {
        self.qubits[0] == q || (self.len == 2 && self.qubits[1] == q)
    }

    /// Whether the two lists share no qubit.
    #[must_use]
    pub fn is_disjoint(&self, other: QubitList) -> bool {
        !other.contains(self.qubits[0]) && (self.len == 1 || !other.contains(self.qubits[1]))
    }
}

/// A quantum gate acting on one or two qubits.
///
/// The gate set covers everything the QuCLEAR pipeline and its baselines
/// emit: the single-qubit Cliffords used for basis changes, parameterized
/// rotations, and the CNOT/SWAP entangling gates.
///
/// # Examples
///
/// ```
/// use quclear_circuit::Gate;
///
/// let g = Gate::Cx { control: 0, target: 2 };
/// assert!(g.is_two_qubit());
/// assert!(g.is_clifford());
/// assert_eq!(g.qubit_list().as_slice(), &[0, 2]);
/// assert_eq!(g.inverse(), g);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gate {
    /// Hadamard gate.
    H(usize),
    /// Phase gate `S = diag(1, i)`.
    S(usize),
    /// Inverse phase gate `S† = diag(1, -i)`.
    Sdg(usize),
    /// Pauli X gate.
    X(usize),
    /// Pauli Y gate.
    Y(usize),
    /// Pauli Z gate.
    Z(usize),
    /// Square root of X (`√X`), a Clifford.
    SqrtX(usize),
    /// Inverse square root of X.
    SqrtXdg(usize),
    /// Rotation about Z: `Rz(θ) = exp(-i·θ/2·Z)`.
    Rz {
        /// Target qubit.
        qubit: usize,
        /// Rotation angle θ.
        angle: f64,
    },
    /// Rotation about X: `Rx(θ) = exp(-i·θ/2·X)`.
    Rx {
        /// Target qubit.
        qubit: usize,
        /// Rotation angle θ.
        angle: f64,
    },
    /// Rotation about Y: `Ry(θ) = exp(-i·θ/2·Y)`.
    Ry {
        /// Target qubit.
        qubit: usize,
        /// Rotation angle θ.
        angle: f64,
    },
    /// Controlled-NOT gate.
    Cx {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
    },
    /// Controlled-Z gate.
    Cz {
        /// First qubit (CZ is symmetric).
        a: usize,
        /// Second qubit.
        b: usize,
    },
    /// SWAP gate (counted as three CNOTs by the CNOT-count metric).
    Swap {
        /// First qubit.
        a: usize,
        /// Second qubit.
        b: usize,
    },
}

impl Gate {
    /// The qubits the gate acts on (one or two entries), without
    /// allocating.
    #[must_use]
    pub fn qubit_list(&self) -> QubitList {
        match *self {
            Gate::H(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::X(q)
            | Gate::Y(q)
            | Gate::Z(q)
            | Gate::SqrtX(q)
            | Gate::SqrtXdg(q)
            | Gate::Rz { qubit: q, .. }
            | Gate::Rx { qubit: q, .. }
            | Gate::Ry { qubit: q, .. } => QubitList::one(q),
            Gate::Cx { control, target } => QubitList::two(control, target),
            Gate::Cz { a, b } | Gate::Swap { a, b } => QubitList::two(a, b),
        }
    }

    /// Returns `true` for two-qubit (entangling) gates.
    #[must_use]
    pub fn is_two_qubit(&self) -> bool {
        matches!(self, Gate::Cx { .. } | Gate::Cz { .. } | Gate::Swap { .. })
    }

    /// Returns `true` if the gate belongs to the Clifford group.
    ///
    /// Rotation gates are Clifford only for multiples of π/2; this method is
    /// conservative and reports `false` for all parameterized rotations.
    #[must_use]
    pub fn is_clifford(&self) -> bool {
        !matches!(self, Gate::Rz { .. } | Gate::Rx { .. } | Gate::Ry { .. })
    }

    /// Number of CNOT-equivalent entangling gates this gate contributes to the
    /// CNOT-count metric (SWAP counts as 3).
    #[must_use]
    pub fn cnot_cost(&self) -> usize {
        match self {
            Gate::Cx { .. } | Gate::Cz { .. } => 1,
            Gate::Swap { .. } => 3,
            _ => 0,
        }
    }

    /// The inverse gate.
    #[must_use]
    pub fn inverse(&self) -> Gate {
        match *self {
            Gate::S(q) => Gate::Sdg(q),
            Gate::Sdg(q) => Gate::S(q),
            Gate::SqrtX(q) => Gate::SqrtXdg(q),
            Gate::SqrtXdg(q) => Gate::SqrtX(q),
            Gate::Rz { qubit, angle } => Gate::Rz {
                qubit,
                angle: -angle,
            },
            Gate::Rx { qubit, angle } => Gate::Rx {
                qubit,
                angle: -angle,
            },
            Gate::Ry { qubit, angle } => Gate::Ry {
                qubit,
                angle: -angle,
            },
            g => g,
        }
    }

    /// Returns `true` if the gate is diagonal in the computational basis.
    #[must_use]
    pub fn is_diagonal(&self) -> bool {
        matches!(
            self,
            Gate::S(_) | Gate::Sdg(_) | Gate::Z(_) | Gate::Rz { .. } | Gate::Cz { .. }
        )
    }

    /// Remaps the qubits of the gate through `f`.
    #[must_use]
    pub fn map_qubits(&self, mut f: impl FnMut(usize) -> usize) -> Gate {
        match *self {
            Gate::H(q) => Gate::H(f(q)),
            Gate::S(q) => Gate::S(f(q)),
            Gate::Sdg(q) => Gate::Sdg(f(q)),
            Gate::X(q) => Gate::X(f(q)),
            Gate::Y(q) => Gate::Y(f(q)),
            Gate::Z(q) => Gate::Z(f(q)),
            Gate::SqrtX(q) => Gate::SqrtX(f(q)),
            Gate::SqrtXdg(q) => Gate::SqrtXdg(f(q)),
            Gate::Rz { qubit, angle } => Gate::Rz {
                qubit: f(qubit),
                angle,
            },
            Gate::Rx { qubit, angle } => Gate::Rx {
                qubit: f(qubit),
                angle,
            },
            Gate::Ry { qubit, angle } => Gate::Ry {
                qubit: f(qubit),
                angle,
            },
            Gate::Cx { control, target } => Gate::Cx {
                control: f(control),
                target: f(target),
            },
            Gate::Cz { a, b } => Gate::Cz { a: f(a), b: f(b) },
            Gate::Swap { a, b } => Gate::Swap { a: f(a), b: f(b) },
        }
    }

    /// Short mnemonic name of the gate kind (e.g. `"cx"`, `"rz"`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Gate::H(_) => "h",
            Gate::S(_) => "s",
            Gate::Sdg(_) => "sdg",
            Gate::X(_) => "x",
            Gate::Y(_) => "y",
            Gate::Z(_) => "z",
            Gate::SqrtX(_) => "sx",
            Gate::SqrtXdg(_) => "sxdg",
            Gate::Rz { .. } => "rz",
            Gate::Rx { .. } => "rx",
            Gate::Ry { .. } => "ry",
            Gate::Cx { .. } => "cx",
            Gate::Cz { .. } => "cz",
            Gate::Swap { .. } => "swap",
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Gate::Rz { qubit, angle } => write!(f, "rz({angle:.4}) q{qubit}"),
            Gate::Rx { qubit, angle } => write!(f, "rx({angle:.4}) q{qubit}"),
            Gate::Ry { qubit, angle } => write!(f, "ry({angle:.4}) q{qubit}"),
            Gate::Cx { control, target } => write!(f, "cx q{control}, q{target}"),
            Gate::Cz { a, b } => write!(f, "cz q{a}, q{b}"),
            Gate::Swap { a, b } => write!(f, "swap q{a}, q{b}"),
            ref g => write!(f, "{} q{}", g.name(), g.qubit_list().as_slice()[0]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubit_listing() {
        assert_eq!(Gate::H(3).qubit_list().as_slice(), &[3]);
        let cx = Gate::Cx {
            control: 1,
            target: 4,
        };
        assert_eq!(cx.qubit_list().as_slice(), &[1, 4]);
        assert_eq!(Gate::Swap { a: 2, b: 0 }.qubit_list().as_slice(), &[2, 0]);
    }

    #[test]
    fn clifford_classification() {
        assert!(Gate::H(0).is_clifford());
        assert!(Gate::S(0).is_clifford());
        assert!(Gate::Cx {
            control: 0,
            target: 1
        }
        .is_clifford());
        assert!(!Gate::Rz {
            qubit: 0,
            angle: 0.3
        }
        .is_clifford());
    }

    #[test]
    fn inverse_pairs() {
        assert_eq!(Gate::S(1).inverse(), Gate::Sdg(1));
        assert_eq!(Gate::Sdg(1).inverse(), Gate::S(1));
        assert_eq!(Gate::H(1).inverse(), Gate::H(1));
        assert_eq!(
            Gate::Rz {
                qubit: 0,
                angle: 0.5
            }
            .inverse(),
            Gate::Rz {
                qubit: 0,
                angle: -0.5
            }
        );
        assert_eq!(Gate::SqrtX(2).inverse(), Gate::SqrtXdg(2));
    }

    #[test]
    fn cnot_cost_of_swap_is_three() {
        assert_eq!(Gate::Swap { a: 0, b: 1 }.cnot_cost(), 3);
        assert_eq!(
            Gate::Cx {
                control: 0,
                target: 1
            }
            .cnot_cost(),
            1
        );
        assert_eq!(Gate::H(0).cnot_cost(), 0);
    }

    #[test]
    fn map_qubits_relabels() {
        let g = Gate::Cx {
            control: 0,
            target: 1,
        };
        let mapped = g.map_qubits(|q| q + 10);
        assert_eq!(
            mapped,
            Gate::Cx {
                control: 10,
                target: 11
            }
        );
    }

    #[test]
    fn diagonal_and_self_inverse_flags() {
        assert!(Gate::Z(0).is_diagonal());
        assert!(Gate::Rz {
            qubit: 0,
            angle: 1.0
        }
        .is_diagonal());
        assert!(!Gate::H(0).is_diagonal());
    }

    #[test]
    fn display_contains_name_and_qubit() {
        let s = Gate::Cx {
            control: 2,
            target: 5,
        }
        .to_string();
        assert!(s.contains("cx") && s.contains("q2") && s.contains("q5"));
    }
}
