//! Compiled templates: run Clifford Extraction once, rebind angles cheaply.
//!
//! # Why this is sound
//!
//! Every decision Clifford Extraction makes — commuting-block partitioning,
//! `find_next_pauli` reordering, CNOT-tree shapes, which Clifford gates are
//! deferred — depends only on the Pauli *axes* of the program, never on the
//! rotation angles. Angles enter the output in exactly one place: each
//! non-trivial rotation contributes a single `Rz` whose angle is
//! `±θ` (the sign coming from Heisenberg conjugation through the extracted
//! Clifford, itself angle-independent).
//!
//! A [`CompiledTemplate`] therefore compiles the program once with
//! *marker angles* (the i-th rotation gets angle `i + 1`), reads back which
//! `Rz` belongs to which input rotation and with which sign, and stores the
//! peephole-optimized marker skeleton: the peephole's structural decisions
//! are angle-independent too. [`CompiledTemplate::bind`] patches the
//! recorded `Rz` slots with real angles in `O(gates)` — producing, for
//! programs whose angles are all non-zero, **gate-for-gate the same
//! circuit** as a from-scratch [`quclear_core::compile`] (a property-tested
//! invariant).
//!
//! The one caveat is exact zeros: a from-scratch compile *skips* zero-angle
//! rotations entirely (changing downstream extraction), while a template
//! keeps the rotation's structure and lets the peephole drop the `Rz(0)`.
//! Both circuits implement the same unitary; they just need not be
//! gate-identical.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use quclear_circuit::qasm::{to_qasm, QasmHoles};
use quclear_circuit::{is_zero_rotation, optimize, Circuit, Gate};
use quclear_core::{
    extract_clifford, AbsorbedObservables, AbsorptionPlan, MeasurementPlan, QuClearConfig,
    QuClearResult,
};
use quclear_pauli::{PauliRotation, SignedPauli};
use quclear_sim::RotationRun;
use quclear_telemetry::Histogram;

use crate::cache::LruCache;
use crate::error::EngineError;

/// Histogram handles for the template-side pipeline stages, attached by the
/// owning [`crate::Engine`] after compilation. Templates compiled directly
/// (without an engine) carry no handles and record nothing.
#[derive(Clone, Debug)]
pub(crate) struct StageMetrics {
    /// Whole `bind` latency (validate + patch + peephole).
    pub(crate) bind: Arc<Histogram>,
    /// The peephole sub-stage of a bind (only recorded when a pass runs).
    pub(crate) peephole: Arc<Histogram>,
    /// CA-Pre conjugation work (memo misses only — hits do no stage work).
    pub(crate) absorb_pre: Arc<Histogram>,
    /// Measurement-plan synthesis: grouping plus per-group diagonalizing
    /// Clifford sweeps (memo misses only).
    pub(crate) diagonalize: Arc<Histogram>,
    /// Both OpenQASM texts of one served bind ([`CompiledTemplate::render_qasm`]).
    pub(crate) render: Arc<Histogram>,
}

/// One parameterized `Rz` in the template skeleton, bound to
/// `sign · θ[param] + offset`.
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// Index of the `Rz` gate within the skeleton circuit.
    gate: usize,
    /// Index of the parameter (input rotation) the slot binds.
    param: usize,
    /// Sign acquired by Heisenberg conjugation (and the axis sign).
    sign: f64,
    /// Constant angle the peephole folded in from Z-axis Clifford gates (a
    /// multiple of `π/2`; zero in a raw skeleton).
    offset: f64,
}

/// A rotation program compiled once, ready to be re-bound to new angles.
///
/// Produced by [`CompiledTemplate::compile`] (or through the caching
/// [`crate::Engine`]). Templates are immutable and [`Send`]`+`[`Sync`]; a
/// single template can serve concurrent `bind` calls from many threads.
///
/// A template holds one patchable skeleton (the peephole-optimized marker
/// circuit, with its parameterized `Rz` slots decoded) and the extracted
/// Clifford every bind shares. What is derived from them on demand is built
/// once, on first use, and owned by the template: a bounded LRU of
/// observable sets (each set's CA-Pre rewriting and its measurement plan),
/// the rotation-run plan, and the served OpenQASM
/// ([`Self::render_qasm`]) — the extracted Clifford's text, and the
/// skeleton's text with its angles cut out, so a bind that returns the
/// patched skeleton renders by filling in its angles. The engine's cache
/// shares a template as an `Arc<CompiledTemplate>`.
///
/// # Examples
///
/// ```
/// use quclear_core::QuClearConfig;
/// use quclear_engine::CompiledTemplate;
/// use quclear_pauli::PauliRotation;
///
/// let program = vec![
///     PauliRotation::parse("ZZZZ", 0.3)?,
///     PauliRotation::parse("YYXX", 0.7)?,
/// ];
/// let template = CompiledTemplate::compile_program(&program, &QuClearConfig::default())?;
/// // Rebind the same structure to new angles without re-extracting:
/// let result = template.bind(&[1.1, -0.4])?;
/// assert!(result.cnot_count() <= 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct CompiledTemplate {
    /// Whether the compiling config ran the peephole, so binds do too.
    peephole: bool,
    num_qubits: usize,
    num_params: usize,
    /// The circuit every bind patches, with marker angles in its slots: the
    /// peephole-optimized extraction output, or the raw one when the config
    /// disables the peephole or `raw_skeleton` is set.
    skeleton: Circuit,
    slots: Vec<Slot>,
    /// Set when the marker peephole merged two slots into one rotation, so
    /// the optimized skeleton cannot be patched: the skeleton is the raw
    /// extraction and every bind re-runs the peephole on it.
    raw_skeleton: bool,
    extracted: Circuit,
    /// Batch absorption recipe (angle-independent, like the extracted
    /// Clifford it derives from): the inverse extracted gates that CA-Pre
    /// replays and an estimate's simulation ends with, built once at
    /// compile time.
    absorption: AbsorptionPlan,
    /// Memoized observable sets, keyed by the exact set: each set's CA-Pre
    /// rewriting and, built on first use, its measurement plan. A template
    /// cache hit never re-conjugates or re-diagonalizes a set it still
    /// holds.
    observable_sets: LruCache<Vec<SignedPauli>, ObservableSet>,
    /// The program's runs of commuting same-X rotations, one dense pass
    /// each in an estimate; built on the first estimate (so templates that
    /// are never estimated pay nothing).
    rotation_runs: OnceLock<Vec<RotationRun>>,
    /// The served OpenQASM, rendered on the first [`Self::render_qasm`]
    /// (so templates that are only estimated or absorbed pay nothing).
    qasm: OnceLock<TemplateQasm>,
    /// Stage histograms attached by the owning engine; `None` for
    /// standalone templates.
    stage_metrics: Option<StageMetrics>,
}

/// A template's OpenQASM, rendered once.
#[derive(Debug)]
struct TemplateQasm {
    /// The extracted Clifford's text: the same for every bind.
    extracted: String,
    /// The skeleton's text with its angles cut out; `None` for a raw
    /// skeleton that every bind peepholes, which never returns it verbatim.
    skeleton: Option<QasmHoles>,
}

/// Observable sets memoized per template: workloads measure a handful of
/// Hamiltonians per ansatz, so this is generous, and it bounds memory if a
/// caller streams unique sets through one template.
const OBSERVABLE_SET_CAPACITY: usize = 16;

/// One memoized observable set: its CA-Pre rewriting, and the measurement
/// plan built from that rewriting on first use.
#[derive(Debug)]
struct ObservableSet {
    absorbed: Arc<AbsorbedObservables>,
    plan: OnceLock<Arc<MeasurementPlan>>,
}

impl CompiledTemplate {
    /// Compiles a template from signed Pauli axes.
    ///
    /// Each axis `±P` stands for the parameterized rotation
    /// `exp(-i·θ/2·(±P))`; a negative sign folds into the bound angle.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InconsistentQubitCounts`] if the axes act on
    /// different register sizes.
    pub fn compile(axes: &[SignedPauli], config: &QuClearConfig) -> Result<Self, EngineError> {
        let num_qubits = axes.first().map_or(0, SignedPauli::num_qubits);
        for (index, axis) in axes.iter().enumerate() {
            if axis.num_qubits() != num_qubits {
                return Err(EngineError::InconsistentQubitCounts {
                    expected: num_qubits,
                    found: axis.num_qubits(),
                    index,
                });
            }
        }

        // Marker angles: parameter i compiles as angle i+1, which survives
        // extraction as ±(i+1) on exactly one Rz. Angles are exact in f64
        // far beyond any realistic program length.
        let marked: Vec<PauliRotation> = axes
            .iter()
            .enumerate()
            .map(|(i, axis)| PauliRotation::with_signed_pauli(axis.clone(), (i + 1) as f64))
            .collect();

        let extraction = extract_clifford(&marked, &config.extraction).resynthesized();
        let raw = extraction.optimized;

        let mut raw_slots = Vec::new();
        for (gate_idx, gate) in raw.gates().iter().enumerate() {
            if let Gate::Rz { angle, .. } = gate {
                let magnitude = angle.abs();
                let param = magnitude.round() as usize - 1;
                debug_assert!(
                    (magnitude - magnitude.round()).abs() < 1e-9 && param < axes.len(),
                    "marker angle {angle} does not decode to a parameter index"
                );
                raw_slots.push(Slot {
                    gate: gate_idx,
                    param,
                    sign: angle.signum(),
                    // `-0.0` is the exact additive identity: `θ + -0.0`
                    // keeps even a bound `-0.0` bit for bit.
                    offset: -0.0,
                });
            }
        }

        // Peephole the marker skeleton once: if every slot survives in it
        // decodably, binds patch the pass's output instead of re-deriving
        // every rewrite from the raw skeleton.
        let (skeleton, slots, raw_skeleton) = if config.apply_peephole {
            let optimized = optimize(&raw);
            match decode_optimized_slots(&optimized, axes.len(), &raw_slots) {
                Some(slots) => (optimized, slots, false),
                None => (raw, raw_slots, true),
            }
        } else {
            (raw, raw_slots, false)
        };

        let absorption = AbsorptionPlan::from_extracted(&extraction.extracted);
        Ok(CompiledTemplate {
            peephole: config.apply_peephole,
            num_qubits,
            num_params: axes.len(),
            skeleton,
            slots,
            raw_skeleton,
            extracted: extraction.extracted,
            absorption,
            observable_sets: LruCache::new(OBSERVABLE_SET_CAPACITY),
            rotation_runs: OnceLock::new(),
            qasm: OnceLock::new(),
            stage_metrics: None,
        })
    }

    /// Attaches the engine's stage histograms (recorded on every bind /
    /// absorb through this template).
    pub(crate) fn set_stage_metrics(&mut self, metrics: StageMetrics) {
        self.stage_metrics = Some(metrics);
    }

    /// Compiles a template from a rotation program, ignoring its angles
    /// (the axes are taken as positive).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InconsistentQubitCounts`] if the rotations act
    /// on different register sizes.
    pub fn compile_program(
        program: &[PauliRotation],
        config: &QuClearConfig,
    ) -> Result<Self, EngineError> {
        let axes: Vec<SignedPauli> = program
            .iter()
            .map(|r| SignedPauli::positive(r.pauli().clone()))
            .collect();
        Self::compile(&axes, config)
    }

    /// Rebinds the template to concrete rotation angles.
    ///
    /// Runs in `O(gates)` — no extraction, tree synthesis or tableau
    /// algebra, and no peephole pass unless a bound slot lands on a zero
    /// rotation or the template keeps a raw skeleton. For programs with no
    /// exactly-zero angle the result is gate-for-gate identical to
    /// [`quclear_core::compile`] on the same program.
    ///
    /// # Errors
    ///
    /// * [`EngineError::AngleCountMismatch`] — `angles.len()` differs from
    ///   [`Self::num_params`].
    /// * [`EngineError::NonFiniteAngle`] — an angle is NaN or infinite.
    pub fn bind(&self, angles: &[f64]) -> Result<QuClearResult, EngineError> {
        // The `bind` stage times validation, patching and the peephole, not
        // the copy of the extracted Clifford below.
        let start = Instant::now();
        let optimized = self.patch_and_peephole(angles);
        if let Some(metrics) = &self.stage_metrics {
            metrics.bind.record_duration(start.elapsed());
        }
        Ok(QuClearResult {
            optimized: optimized?,
            extracted: self.extracted.clone(),
        })
    }

    /// Validates the angles, patches the `Rz` slots, and runs the peephole
    /// when the patched skeleton may differ from the pipeline's output.
    fn patch_and_peephole(&self, angles: &[f64]) -> Result<Circuit, EngineError> {
        self.check_angles(angles.iter().copied())?;

        let mut gates = self.skeleton.gates().to_vec();
        let mut any_zero = false;
        for slot in &self.slots {
            let Gate::Rz { qubit, .. } = gates[slot.gate] else {
                unreachable!("slot {slot:?} does not point at an Rz gate");
            };
            let angle = slot.sign * angles[slot.param] + slot.offset;
            any_zero |= is_zero_rotation(angle);
            gates[slot.gate] = Gate::Rz { qubit, angle };
        }
        let patched = Circuit::from_gates(self.num_qubits, gates);
        // Every value-sensitive rewrite needs either a zero-angle rotation
        // or a mergeable/cancellable rotation pair, and the compile-time
        // peephole already eliminated every such pair angle-independently.
        // So unless a patched slot landed on zero, an optimized skeleton is
        // the pipeline's output verbatim.
        if !self.peephole || !(self.raw_skeleton || any_zero) {
            return Ok(patched);
        }
        Ok(self.run_peephole(&patched))
    }

    /// The peephole pass, timed into the `peephole` stage histogram when
    /// handles are attached.
    fn run_peephole(&self, patched: &Circuit) -> Circuit {
        let start = Instant::now();
        let optimized = optimize(patched);
        if let Some(metrics) = &self.stage_metrics {
            metrics.peephole.record_duration(start.elapsed());
        }
        optimized
    }

    /// Checks a binding's angles as [`Self::bind`] does: one per parameter,
    /// all finite.
    pub(crate) fn check_angles(
        &self,
        mut angles: impl ExactSizeIterator<Item = f64>,
    ) -> Result<(), EngineError> {
        if angles.len() != self.num_params {
            return Err(EngineError::AngleCountMismatch {
                expected: self.num_params,
                found: angles.len(),
            });
        }
        if let Some(index) = angles.position(|a| !a.is_finite()) {
            return Err(EngineError::NonFiniteAngle { index });
        }
        Ok(())
    }

    /// Rebinds using the angles carried by a rotation program.
    ///
    /// The axes of `program` are **not** re-checked against the template;
    /// callers pairing arbitrary programs with cached templates go through
    /// [`crate::Engine`], which keys on the fingerprint.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::bind`].
    pub fn bind_program(&self, program: &[PauliRotation]) -> Result<QuClearResult, EngineError> {
        let angles: Vec<f64> = program.iter().map(PauliRotation::angle).collect();
        self.bind(&angles)
    }

    /// Register size of the compiled program.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of bindable parameters (= number of input rotations, including
    /// trivial ones, whose angles are accepted and ignored).
    #[must_use]
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// CNOT count of the skeleton: an upper bound on every binding's CNOT
    /// count (the peephole only ever removes gates).
    #[must_use]
    pub fn skeleton_cnot_count(&self) -> usize {
        self.skeleton.cnot_count()
    }

    /// The runs of [`RotationRun::plan`] for `program`, memoized: the plan
    /// is structural, so any program with this template's axes shares it.
    pub(crate) fn rotation_runs(&self, program: &[PauliRotation]) -> &[RotationRun] {
        self.rotation_runs
            .get_or_init(|| RotationRun::plan(program))
    }

    /// The extracted Clifford subcircuit shared by every binding.
    #[must_use]
    pub fn extracted(&self) -> &Circuit {
        &self.extracted
    }

    /// The gates of the extracted Clifford's inverse, in time order.
    pub(crate) fn inverse_extracted_gates(&self) -> &[Gate] {
        self.absorption.inverse_gates()
    }

    /// The two OpenQASM texts served for a bind of this template:
    /// `(to_qasm(optimized), to_qasm(extracted))`, byte for byte, where
    /// `optimized` is the bind's optimized circuit and `extracted` the
    /// template's extracted Clifford. Recorded as the `render` stage.
    ///
    /// Both come from text rendered once per template, on the first call.
    /// The extracted text is copied. The optimized text fills the
    /// skeleton's angle holes when `optimized` has the skeleton's length
    /// and a rotation under every hole, and is rendered by `to_qasm`
    /// otherwise. For a bind of this template that check is exact: a bind
    /// either returns the patched skeleton verbatim, or (a zero-angle slot,
    /// or a raw skeleton) runs the peephole on it. On a patchable skeleton
    /// that pass drops the zero rotation and adds no gate, so the result is
    /// shorter; a raw skeleton keeps no holes.
    ///
    /// # Panics
    ///
    /// Panics if an angle of `optimized` is NaN or infinite, as `to_qasm`
    /// does.
    #[must_use]
    pub fn render_qasm(&self, optimized: &Circuit) -> (String, String) {
        let start = Instant::now();
        let qasm = self.qasm.get_or_init(|| TemplateQasm {
            extracted: to_qasm(&self.extracted),
            skeleton: (!self.raw_skeleton).then(|| QasmHoles::new(&self.skeleton)),
        });
        let optimized = qasm
            .skeleton
            .as_ref()
            .and_then(|holes| holes.fill(optimized))
            .unwrap_or_else(|| to_qasm(optimized));
        let texts = (optimized, qasm.extracted.clone());
        if let Some(metrics) = &self.stage_metrics {
            metrics.render.record_duration(start.elapsed());
        }
        texts
    }

    /// The memo entry for an observable set: on a miss, CA-Pre conjugates
    /// the whole set through the extracted Clifford in one word-parallel
    /// frame sweep, recorded as the `absorb_pre` stage, with no lock held.
    fn observable_set(&self, observables: &[SignedPauli]) -> Arc<ObservableSet> {
        if let Some(set) = self.observable_sets.get(observables) {
            return set;
        }
        let start = Instant::now();
        let absorbed = self.absorption.absorb(observables);
        if let Some(metrics) = &self.stage_metrics {
            metrics.absorb_pre.record_duration(start.elapsed());
        }
        let set = Arc::new(ObservableSet {
            absorbed: Arc::new(absorbed),
            plan: OnceLock::new(),
        });
        self.observable_sets
            .insert(observables.to_vec(), Arc::clone(&set));
        set
    }

    /// CA-Pre on an observable set, memoized per template: the first call
    /// conjugates the whole set through the extracted Clifford in one
    /// word-parallel frame sweep; repeat calls with the same set return the
    /// shared result without re-conjugating anything (a hash lookup keyed
    /// by the exact set, in an LRU of the last 16 sets).
    ///
    /// The memo lives on the template, so an [`crate::Engine`] cache hit
    /// reuses rewritten sets from earlier requests.
    ///
    /// # Panics
    ///
    /// Panics if an observable's qubit count differs from the template's.
    #[must_use]
    pub fn absorb_observables(&self, observables: &[SignedPauli]) -> Arc<AbsorbedObservables> {
        Arc::clone(&self.observable_set(observables).absorbed)
    }

    /// The measurement-reduction plan for an observable set, memoized per
    /// template next to the set's CA-Pre rewriting: the absorbed frame is
    /// partitioned into general-commuting groups and each group gets a
    /// diagonalizing Clifford plus a composed affine readout map. Repeat
    /// calls with the same set return the shared `Arc` without
    /// re-diagonalizing, and an [`crate::Engine`] cache hit reuses plans
    /// from earlier requests.
    ///
    /// Only the grouping + diagonalization work (the plan's first build) is
    /// recorded in the `diagonalize` stage histogram; the CA-Pre part
    /// records under `absorb_pre`, once per memoized set.
    ///
    /// # Panics
    ///
    /// Panics if an observable's qubit count differs from the template's.
    #[must_use]
    pub fn measurement_plan(&self, observables: &[SignedPauli]) -> Arc<MeasurementPlan> {
        let set = self.observable_set(observables);
        let plan = set.plan.get_or_init(|| {
            let start = Instant::now();
            let plan = MeasurementPlan::from_absorbed(&set.absorbed);
            if let Some(metrics) = &self.stage_metrics {
                metrics.diagonalize.record_duration(start.elapsed());
            }
            Arc::new(plan)
        });
        Arc::clone(plan)
    }
}

/// Locates every marker slot in the peephole-optimized marker skeleton.
///
/// A surviving slot carries angle `±(i+1) + c·π/2`: the marker value,
/// possibly sign-flipped, plus a constant folded in by Z-axis merges. The
/// decomposition is unique (an integer is a multiple of `π/2` only at zero),
/// and constants synthesized by Clifford-run fusion always lie *on* the
/// `π/2` grid, so they decode to `i = none` and are skipped.
///
/// Returns `None` — meaning "bind from the raw skeleton instead" — unless
/// the decoded parameters are exactly the raw skeleton's slot parameters,
/// each appearing once. That rules out the one ambiguous case: the peephole
/// merging two marker slots into a single rotation (`θᵢ + θⱼ`, whose marker
/// angle would decode as some unrelated single parameter); a merge always
/// changes the surviving parameter set, so set equality detects it. Binding
/// from the raw skeleton plus a peephole run stays bit-for-bit correct for
/// such templates.
fn decode_optimized_slots(
    optimized: &Circuit,
    num_params: usize,
    raw_slots: &[Slot],
) -> Option<Vec<Slot>> {
    use std::f64::consts::FRAC_PI_2;
    const TOL: f64 = 1e-6;
    let mut slots = Vec::new();
    let mut seen = vec![false; num_params];
    for (gate_idx, gate) in optimized.gates().iter().enumerate() {
        let Gate::Rz { angle, .. } = gate else {
            continue;
        };
        let mut decoded = None;
        for c in -16i32..=16 {
            let residual = angle - f64::from(c) * FRAC_PI_2;
            let k = residual.round();
            if (residual - k).abs() < TOL && k != 0.0 && k.abs() <= num_params as f64 {
                decoded = Some((k, f64::from(c) * FRAC_PI_2));
                break;
            }
        }
        let Some((k, offset)) = decoded else {
            // Not decodable as a slot. Constants synthesized by Clifford
            // fusion and Z-axis merges lie on the π/2 grid; anything off
            // the grid is unexplained → raw skeleton.
            let angle = match gate {
                Gate::Rz { angle, .. } => *angle,
                _ => unreachable!(),
            };
            let steps = angle / FRAC_PI_2;
            if (steps - steps.round()).abs() > TOL {
                return None;
            }
            continue;
        };
        let param = k.abs() as usize - 1;
        if seen[param] {
            return None; // duplicate decode; be conservative
        }
        seen[param] = true;
        slots.push(Slot {
            gate: gate_idx,
            param,
            sign: k.signum(),
            offset,
        });
    }
    // The surviving parameter set must match the raw skeleton's exactly.
    let mut raw_params: Vec<usize> = raw_slots.iter().map(|s| s.param).collect();
    let mut found_params: Vec<usize> = slots.iter().map(|s| s.param).collect();
    raw_params.sort_unstable();
    found_params.sort_unstable();
    if raw_params != found_params {
        return None;
    }
    Some(slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quclear_core::compile;

    fn rot(s: &str, angle: f64) -> PauliRotation {
        PauliRotation::parse(s, angle).unwrap()
    }

    #[test]
    fn bind_matches_direct_compile_on_the_motivating_example() {
        let config = QuClearConfig::default();
        let program = vec![rot("ZZZZ", 0.37), rot("YYXX", -0.91)];
        let template = CompiledTemplate::compile_program(&program, &config).unwrap();
        let bound = template.bind(&[0.37, -0.91]).unwrap();
        let direct = compile(&program, &config);
        assert_eq!(bound.optimized.gates(), direct.optimized.gates());
        assert_eq!(bound.extracted.gates(), direct.extracted.gates());
    }

    #[test]
    fn rebinding_changes_only_angles() {
        let config = QuClearConfig::without_peephole();
        let program = vec![rot("ZZI", 0.1), rot("IXX", 0.2), rot("YIZ", 0.3)];
        let template = CompiledTemplate::compile_program(&program, &config).unwrap();
        let a = template.bind(&[0.1, 0.2, 0.3]).unwrap();
        let b = template.bind(&[2.1, -0.7, 0.9]).unwrap();
        assert_eq!(a.optimized.len(), b.optimized.len());
        assert_eq!(a.cnot_count(), b.cnot_count());
        // Same structure, different Rz angles.
        let angles = |c: &Circuit| -> Vec<f64> {
            c.gates()
                .iter()
                .filter_map(|g| match g {
                    Gate::Rz { angle, .. } => Some(*angle),
                    _ => None,
                })
                .collect()
        };
        assert_ne!(angles(&a.optimized), angles(&b.optimized));
    }

    #[test]
    fn negative_axis_sign_folds_into_the_bound_angle() {
        let config = QuClearConfig::default();
        let minus: SignedPauli = "-ZZ".parse().unwrap();
        let template = CompiledTemplate::compile(std::slice::from_ref(&minus), &config).unwrap();
        let bound = template.bind(&[0.8]).unwrap();
        let direct = compile(&[PauliRotation::with_signed_pauli(minus, 0.8)], &config);
        assert_eq!(bound.optimized.gates(), direct.optimized.gates());
    }

    #[test]
    fn trivial_rotations_consume_a_parameter_slot() {
        let config = QuClearConfig::default();
        let program = vec![rot("III", 0.5), rot("ZZZ", 0.3)];
        let template = CompiledTemplate::compile_program(&program, &config).unwrap();
        assert_eq!(template.num_params(), 2);
        let bound = template.bind(&[9.9, 0.3]).unwrap();
        let direct = compile(&program, &config);
        assert_eq!(bound.optimized.gates(), direct.optimized.gates());
    }

    #[test]
    fn observable_set_memos_stay_bounded_and_share_results() {
        let config = QuClearConfig::default();
        let program = vec![rot("ZZZ", 0.3), rot("XXI", 0.7)];
        let template = CompiledTemplate::compile_program(&program, &config).unwrap();
        // Twenty distinct single-observable sets: 1..=20 in base 4 over IXYZ.
        let sets: Vec<Vec<SignedPauli>> = (1..=20usize)
            .map(|i| {
                let axis: String = (0..3)
                    .map(|q| ['I', 'X', 'Y', 'Z'][(i >> (2 * q)) & 3])
                    .collect();
                vec![axis.parse().unwrap()]
            })
            .collect();
        let plans: Vec<_> = sets
            .iter()
            .map(|set| template.measurement_plan(set))
            .collect();
        // Each plan sits next to its set's CA-Pre result; the memo stays at
        // the cap.
        assert_eq!(template.observable_sets.len(), OBSERVABLE_SET_CAPACITY);
        // The memo is an LRU, so the latest set is retained, with its
        // rewriting and its plan.
        let last = sets.last().unwrap();
        let absorbed = template.absorb_observables(last);
        let again = template.measurement_plan(last);
        assert!(Arc::ptr_eq(&again, plans.last().unwrap()));
        assert!(Arc::ptr_eq(&absorbed, &template.absorb_observables(last)));
        assert_eq!(template.observable_sets.len(), OBSERVABLE_SET_CAPACITY);

        // Through an engine: an absorb and then an estimate of the same
        // set conjugate it once.
        let engine = crate::Engine::new(4);
        let observables = &sets[0];
        engine.absorb_observables(&program, observables).unwrap();
        engine
            .estimate_observables(&program, observables, 64, 7)
            .unwrap();
        let stage = |name: &str| {
            engine
                .metrics_snapshot()
                .histogram(crate::ENGINE_STAGE_METRIC, Some(("stage", name)))
                .map_or(0, |h| h.count())
        };
        assert_eq!(stage("absorb_pre"), 1);
        assert_eq!(stage("diagonalize"), 1);
    }

    #[test]
    fn bind_validates_inputs() {
        let config = QuClearConfig::default();
        let template = CompiledTemplate::compile_program(&[rot("XX", 0.1)], &config).unwrap();
        assert_eq!(
            template.bind(&[]).unwrap_err(),
            EngineError::AngleCountMismatch {
                expected: 1,
                found: 0
            }
        );
        assert_eq!(
            template.bind(&[f64::NAN]).unwrap_err(),
            EngineError::NonFiniteAngle { index: 0 }
        );
    }

    #[test]
    fn mixed_register_sizes_are_rejected() {
        let config = QuClearConfig::default();
        let program = vec![rot("XX", 0.1), rot("XXX", 0.2)];
        let err = CompiledTemplate::compile_program(&program, &config).unwrap_err();
        assert_eq!(
            err,
            EngineError::InconsistentQubitCounts {
                expected: 2,
                found: 3,
                index: 1
            }
        );
    }

    #[test]
    fn empty_program_binds_to_empty_result() {
        let config = QuClearConfig::default();
        let template = CompiledTemplate::compile(&[], &config).unwrap();
        assert_eq!(template.num_params(), 0);
        let bound = template.bind(&[]).unwrap();
        assert!(bound.optimized.is_empty());
        assert!(bound.extracted.is_empty());
    }
}
