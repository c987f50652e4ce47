//! The end-to-end QuCLEAR pipeline: Clifford Extraction followed by local
//! clean-up and Clifford Absorption helpers.

use quclear_circuit::{optimize, Circuit};
use quclear_pauli::{PauliRotation, SignedPauli};

use crate::absorb::{AbsorbedObservables, AbsorptionError, AbsorptionPlan, ProbabilityAbsorber};
use crate::extract::{extract_clifford, ExtractionConfig};

/// Configuration of the full QuCLEAR pipeline.
///
/// The flags correspond to the individual features whose contributions the
/// paper breaks down in Figure 10: recursive tree synthesis, commuting-block
/// reordering, and the local ("Qiskit") peephole pass.
#[derive(Clone, Copy, Debug)]
pub struct QuClearConfig {
    /// Clifford-Extraction options (recursion, reordering, lookahead).
    pub extraction: ExtractionConfig,
    /// Apply the peephole optimizer to the optimized circuit afterwards
    /// (the paper's "with Qiskit optimization" configuration, Figure 9).
    pub apply_peephole: bool,
}

impl Default for QuClearConfig {
    fn default() -> Self {
        QuClearConfig {
            extraction: ExtractionConfig::default(),
            apply_peephole: true,
        }
    }
}

impl QuClearConfig {
    /// QuCLEAR without the trailing peephole pass (Figure 9's "without Qiskit
    /// optimization" variant).
    #[must_use]
    pub fn without_peephole() -> Self {
        QuClearConfig {
            apply_peephole: false,
            ..QuClearConfig::default()
        }
    }
}

/// The output of the QuCLEAR pipeline.
#[derive(Clone, Debug)]
pub struct QuClearResult {
    /// The optimized circuit `U'` to execute on the quantum device.
    pub optimized: Circuit,
    /// The extracted Clifford `U_CL` (never executed; absorbed classically),
    /// resynthesized from its tableau ([`crate::ExtractionResult::resynthesized`]):
    /// `O(n²)` gates, equal to the raw extraction log up to global phase.
    /// [`crate::extract_clifford`] still returns the raw log.
    pub extracted: Circuit,
}

impl QuClearResult {
    /// The circuit `optimized` followed by `extracted`; equivalent to the
    /// input program up to global phase.
    #[must_use]
    pub fn full_circuit(&self) -> Circuit {
        let mut full = self.optimized.clone();
        full.append(&self.extracted);
        full
    }

    /// CNOT count of the optimized circuit (the paper's headline metric).
    #[must_use]
    pub fn cnot_count(&self) -> usize {
        self.optimized.cnot_count()
    }

    /// Entangling depth of the optimized circuit.
    #[must_use]
    pub fn entangling_depth(&self) -> usize {
        self.optimized.entangling_depth()
    }

    /// CA-Pre for a set of Pauli observables: row `i` of the result is
    /// `U_CL† O_i U_CL`, with its CA-Post sign folding.
    ///
    /// This builds the [`Self::absorption_plan`] and sweeps the set through
    /// it once. To absorb many observable sets, build the plan once and call
    /// [`AbsorptionPlan::absorb`] on it.
    ///
    /// # Panics
    ///
    /// Panics if any observable's qubit count differs from the program's.
    #[must_use]
    pub fn absorb_observables(&self, observables: &[SignedPauli]) -> AbsorbedObservables {
        self.absorption_plan().absorb(observables)
    }

    /// The batch-first absorption recipe for this compilation: built once,
    /// it rewrites whole observable frames word-parallel (CA-Pre) instead of
    /// conjugating one string at a time.
    #[must_use]
    pub fn absorption_plan(&self) -> AbsorptionPlan {
        AbsorptionPlan::from_extracted(&self.extracted)
    }

    /// CA modules for probability-distribution measurements.
    ///
    /// # Errors
    ///
    /// Returns an error if the extracted Clifford is not of the
    /// basis-layer + CNOT-network form (Proposition 1), in which case
    /// observable absorption should be used instead.
    pub fn probability_absorber(&self) -> Result<ProbabilityAbsorber, AbsorptionError> {
        ProbabilityAbsorber::from_extracted(&self.extracted)
    }
}

/// Runs the QuCLEAR pipeline on a Pauli-rotation program.
///
/// # Examples
///
/// ```
/// use quclear_circuit::Gate;
/// use quclear_core::{compile, QuClearConfig};
/// use quclear_pauli::PauliRotation;
///
/// let program = vec![
///     PauliRotation::parse("ZZZZ", 0.3)?,
///     PauliRotation::parse("YYXX", 0.7)?,
/// ];
/// let result = compile(&program, &QuClearConfig::default());
/// assert!(result.cnot_count() <= 4);
/// assert!(result.extracted.gates().iter().all(Gate::is_clifford));
/// # Ok::<(), quclear_pauli::ParsePauliError>(())
/// ```
#[must_use]
pub fn compile(rotations: &[PauliRotation], config: &QuClearConfig) -> QuClearResult {
    let extraction = extract_clifford(rotations, &config.extraction).resynthesized();
    let optimized = if config.apply_peephole {
        optimize(&extraction.optimized)
    } else {
        extraction.optimized
    };
    QuClearResult {
        optimized,
        extracted: extraction.extracted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rot(s: &str, a: f64) -> PauliRotation {
        PauliRotation::parse(s, a).unwrap()
    }

    #[test]
    fn pipeline_reduces_the_motivating_example() {
        let program = vec![rot("ZZZZ", 0.3), rot("YYXX", 0.7)];
        let result = compile(&program, &QuClearConfig::default());
        assert!(result.cnot_count() <= 4);
        assert!(result.entangling_depth() <= 4);
    }

    #[test]
    fn peephole_never_increases_cnots() {
        let program = vec![
            rot("ZZII", 0.1),
            rot("IZZI", 0.2),
            rot("XXXX", 0.3),
            rot("IIZZ", 0.4),
        ];
        let with = compile(&program, &QuClearConfig::default());
        let without = compile(&program, &QuClearConfig::without_peephole());
        assert!(with.cnot_count() <= without.cnot_count());
        assert_eq!(with.extracted.gates(), without.extracted.gates());
    }

    #[test]
    fn qaoa_like_program_is_probability_absorbable() {
        // One QAOA layer on a triangle: ZZ problem terms + X mixers.
        let program = vec![
            rot("ZZI", 0.4),
            rot("IZZ", 0.4),
            rot("ZIZ", 0.4),
            rot("XII", 0.8),
            rot("IXI", 0.8),
            rot("IIX", 0.8),
        ];
        let result = compile(&program, &QuClearConfig::default());
        let absorber = result.probability_absorber();
        assert!(absorber.is_ok(), "Proposition 1 should apply: {absorber:?}");
    }

    #[test]
    fn observable_absorption_roundtrip_shape() {
        let program = vec![rot("ZZ", 0.3), rot("XX", 0.5)];
        let result = compile(&program, &QuClearConfig::default());
        let obs: Vec<quclear_pauli::SignedPauli> =
            vec!["ZI".parse().unwrap(), "XX".parse().unwrap()];
        let absorption = result.absorb_observables(&obs);
        assert_eq!(absorption.len(), 2);
        assert_eq!(absorption.get(0).num_qubits(), 2);
    }

    #[test]
    fn empty_program_compiles_to_empty_circuits() {
        let result = compile(&[], &QuClearConfig::default());
        assert!(result.optimized.is_empty());
        assert!(result.extracted.is_empty());
    }
}
