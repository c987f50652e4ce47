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

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};
use std::time::Instant;

use quclear_circuit::{is_zero_rotation, optimize, Circuit, Gate};
use quclear_core::{
    extract_clifford, AbsorbedObservables, AbsorptionError, AbsorptionPlan, MeasurementPlan,
    ProbabilityAbsorber, QuClearConfig, QuClearResult,
};
use quclear_pauli::{PauliRotation, SignedPauli};
use quclear_telemetry::Histogram;

use crate::error::EngineError;
use crate::fingerprint::ProgramFingerprint;

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
#[derive(Clone, Debug)]
pub struct CompiledTemplate {
    fingerprint: ProgramFingerprint,
    config: QuClearConfig,
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
    /// Clifford it derives from): built once at compile time so every warm
    /// bind gets CA-Pre/CA-Post for free. It holds the template's one copy
    /// of the Heisenberg tableau.
    absorption: AbsorptionPlan,
    /// Memoized CA-Pre results per observable set. Shared across template
    /// clones (the cache hands out `Arc<CompiledTemplate>` clones), so a
    /// template cache hit never re-conjugates an observable set it has
    /// already rewritten.
    absorbed_memo: Arc<ObservableSetMemo<AbsorbedObservables>>,
    /// Memoized measurement-reduction plans (commuting groups + per-group
    /// diagonalizers + composed readout maps) per observable set, shared
    /// across clones like the CA-Pre memo.
    measurement_memo: Arc<ObservableSetMemo<MeasurementPlan>>,
    /// Memoized CA-Post shot absorber (or the reason the extracted Clifford
    /// does not reduce to one), built on first use and shared across clones.
    probability_absorber: Arc<OnceLock<Result<Arc<ProbabilityAbsorber>, AbsorptionError>>>,
    /// Stage histograms attached by the owning engine; `None` for
    /// standalone templates.
    stage_metrics: Option<StageMetrics>,
}

/// Soft cap on memoized observable sets per template and memo: workloads
/// measure a handful of Hamiltonians per ansatz, so this is generous, and it
/// bounds memory if a caller streams unique sets through one template.
const OBSERVABLE_SET_MEMO_CAPACITY: usize = 16;

/// A per-template memo from observable sets to a result derived from them.
///
/// Entries are keyed by a 64-bit hash of the set, and the stored set
/// disambiguates collisions exactly: a collision recomputes, never
/// corrupts. Past [`OBSERVABLE_SET_MEMO_CAPACITY`] sets, an arbitrary entry
/// is dropped: the memo is a convenience cache, not an LRU.
#[derive(Debug)]
struct ObservableSetMemo<T> {
    entries: RwLock<HashMap<u64, MemoEntry<T>>>,
}

/// One memoized set: the exact observables (the collision check) and the
/// shared result.
type MemoEntry<T> = (Vec<SignedPauli>, Arc<T>);

impl<T> Default for ObservableSetMemo<T> {
    fn default() -> Self {
        ObservableSetMemo {
            entries: RwLock::new(HashMap::new()),
        }
    }
}

impl<T> ObservableSetMemo<T> {
    /// Returns the memoized result for `observables`, or runs `compute`
    /// (with no lock held) and memoizes its result.
    fn get_or_compute(&self, observables: &[SignedPauli], compute: impl FnOnce() -> T) -> Arc<T> {
        let key = observable_set_key(observables);
        // Both acquisitions recover from lock poisoning: the map only holds
        // `Arc`s and every mutation below is a single HashMap operation, so
        // it is structurally valid at every panic point. A panicked request
        // (e.g. an `absorb` on mismatched register sizes, contained by the
        // engine) must not disable the memo for the template's lifetime.
        if let Some((set, value)) = self
            .entries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            if set == observables {
                return Arc::clone(value);
            }
        }
        let value = Arc::new(compute());
        let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
        if entries.len() >= OBSERVABLE_SET_MEMO_CAPACITY && !entries.contains_key(&key) {
            if let Some(&evict) = entries.keys().next() {
                entries.remove(&evict);
            }
        }
        entries.insert(key, (observables.to_vec(), Arc::clone(&value)));
        value
    }
}

/// Order-sensitive 64-bit hash of an observable set (axes + signs + size).
fn observable_set_key(observables: &[SignedPauli]) -> u64 {
    let mut hasher = DefaultHasher::new();
    observables.len().hash(&mut hasher);
    for observable in observables {
        observable.is_negative().hash(&mut hasher);
        observable.pauli().num_qubits().hash(&mut hasher);
        observable.pauli().x_bits().words().hash(&mut hasher);
        observable.pauli().z_bits().words().hash(&mut hasher);
    }
    hasher.finish()
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

        let absorption =
            AbsorptionPlan::from_extraction(extraction.heisenberg, &extraction.extracted);
        Ok(CompiledTemplate {
            fingerprint: ProgramFingerprint::of_axes(axes, config),
            config: *config,
            num_qubits,
            num_params: axes.len(),
            skeleton,
            slots,
            raw_skeleton,
            extracted: extraction.extracted,
            absorption,
            absorbed_memo: Arc::default(),
            measurement_memo: Arc::default(),
            probability_absorber: Arc::new(OnceLock::new()),
            stage_metrics: None,
        })
    }

    /// Attaches the engine's stage histograms (recorded on every bind /
    /// absorb through this template and its clones).
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
        // the copies of the shared parts below.
        let start = Instant::now();
        let optimized = self.patch_and_peephole(angles);
        if let Some(metrics) = &self.stage_metrics {
            metrics.bind.record_duration(start.elapsed());
        }
        Ok(QuClearResult {
            optimized: optimized?,
            extracted: self.extracted.clone(),
            heisenberg: self.absorption.heisenberg().clone(),
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
        if !self.config.apply_peephole || !(self.raw_skeleton || any_zero) {
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

    /// The structural fingerprint the template was compiled from.
    #[must_use]
    pub fn fingerprint(&self) -> ProgramFingerprint {
        self.fingerprint
    }

    /// The pipeline configuration the template was compiled with.
    #[must_use]
    pub fn config(&self) -> &QuClearConfig {
        &self.config
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

    /// The extracted Clifford subcircuit shared by every binding.
    #[must_use]
    pub fn extracted(&self) -> &Circuit {
        &self.extracted
    }

    /// CA-Pre on an observable set, memoized per template: the first call
    /// conjugates the whole set through the extracted Clifford in one
    /// word-parallel frame sweep; repeat calls with the same set return the
    /// shared result without re-conjugating anything (hash lookup plus an
    /// exact equality check — collisions recompute, never corrupt).
    ///
    /// The memo is shared across clones of the template, so an
    /// [`crate::Engine`] cache hit reuses rewritten sets from earlier binds.
    ///
    /// # Panics
    ///
    /// Panics if an observable's qubit count differs from the template's.
    #[must_use]
    pub fn absorb_observables(&self, observables: &[SignedPauli]) -> Arc<AbsorbedObservables> {
        self.absorbed_memo.get_or_compute(observables, || {
            let start = Instant::now();
            let absorbed = self.absorption.absorb(observables);
            if let Some(metrics) = &self.stage_metrics {
                metrics.absorb_pre.record_duration(start.elapsed());
            }
            absorbed
        })
    }

    /// The measurement-reduction plan for an observable set, memoized per
    /// template: CA-Pre absorbs the set (reusing [`Self::absorb_observables`]'s
    /// memo), then the absorbed frame is partitioned into general-commuting
    /// groups and each group gets a diagonalizing Clifford plus a composed
    /// affine readout map. Repeat calls with the same set return the shared
    /// `Arc` without re-diagonalizing (hash lookup plus exact equality —
    /// collisions recompute, never corrupt). Shared across template clones,
    /// so an [`crate::Engine`] cache hit reuses plans from earlier requests.
    ///
    /// Only the grouping + diagonalization work (memo misses) is recorded in
    /// the `diagonalize` stage histogram; the CA-Pre part records under
    /// `absorb_pre` as usual.
    ///
    /// # Panics
    ///
    /// Panics if an observable's qubit count differs from the template's.
    #[must_use]
    pub fn measurement_plan(&self, observables: &[SignedPauli]) -> Arc<MeasurementPlan> {
        self.measurement_memo.get_or_compute(observables, || {
            let absorbed = self.absorb_observables(observables);
            let start = Instant::now();
            let plan = MeasurementPlan::from_absorbed(&absorbed);
            if let Some(metrics) = &self.stage_metrics {
                metrics.diagonalize.record_duration(start.elapsed());
            }
            plan
        })
    }

    /// The CA-Post shot absorber for this template's extracted Clifford,
    /// built on first use and shared across template clones (so an engine
    /// cache hit never re-derives the affine map).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`AbsorptionError`] when the extracted
    /// Clifford is not a basis layer + CNOT network (Proposition 1 of the
    /// QuCLEAR paper does not apply); the error is memoized too, so
    /// repeated probes of a non-absorbable template stay cheap.
    pub fn probability_absorber(&self) -> Result<Arc<ProbabilityAbsorber>, AbsorptionError> {
        self.probability_absorber
            .get_or_init(|| ProbabilityAbsorber::from_extracted(&self.extracted).map(Arc::new))
            .clone()
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

    impl<T> ObservableSetMemo<T> {
        fn len(&self) -> usize {
            self.entries
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .len()
        }
    }

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
        assert_eq!(bound.heisenberg, direct.heisenberg);
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
        // Each plan also filled the CA-Pre memo; both stay at the cap.
        assert_eq!(template.absorbed_memo.len(), OBSERVABLE_SET_MEMO_CAPACITY);
        let plan_count = template.measurement_memo.len();
        assert_eq!(plan_count, OBSERVABLE_SET_MEMO_CAPACITY);
        // Eviction runs before the insert, so the latest set is retained.
        let again = template.measurement_plan(sets.last().unwrap());
        assert!(Arc::ptr_eq(&again, plans.last().unwrap()));
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
