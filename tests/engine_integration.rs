//! Workspace-level integration of the compilation engine: templates cached
//! through the facade, sweeps over real workloads, and agreement with the
//! core pipeline validated by the simulator.

use quclear::core::{compile, QuClearConfig};
use quclear::prelude::*;
use quclear::sim::StateVector;
use quclear::tableau::CliffordTableau;
use quclear::workloads::{qaoa_grid_sweep, vqe_sweep, Benchmark, Graph};

/// An engine-compiled sweep point implements the same unitary as the
/// reference pipeline on a real UCCSD ansatz.
#[test]
fn engine_sweep_matches_core_on_uccsd() {
    let sweep = vqe_sweep(&Benchmark::Ucc(2, 4), 6, 123);
    let engine = Engine::new(16);
    let results = engine.sweep(&sweep.program, &sweep.angle_sets).unwrap();
    assert_eq!(results.len(), 6);

    for (angles, result) in sweep.angle_sets.iter().zip(&results) {
        let result = result.as_ref().expect("sweep point must compile");
        let program: Vec<PauliRotation> = sweep
            .program
            .iter()
            .zip(angles)
            .map(|(r, &a)| PauliRotation::new(r.pauli().clone(), a))
            .collect();
        let reference = compile(&program, &QuClearConfig::default());
        assert_eq!(result.optimized.gates(), reference.optimized.gates());

        let engine_state = StateVector::from_circuit(&result.full_circuit());
        let reference_state = StateVector::from_circuit(&reference.full_circuit());
        assert!(engine_state.approx_eq_up_to_phase(&reference_state, 1e-8));
    }
    assert_eq!(engine.stats().misses, 1);
}

/// A QAOA angle grid shares one template across the whole grid and keeps
/// probability absorption available on every binding.
#[test]
fn qaoa_grid_reuses_template_and_stays_absorbable() {
    let graph = Graph::regular(6, 2, 9);
    let sweep = qaoa_grid_sweep(&graph, &[0.2, 0.5, 0.9], &[0.3, 0.7]);
    let engine = Engine::new(16);
    let results = engine.sweep(&sweep.program, &sweep.angle_sets).unwrap();
    assert_eq!(results.len(), 6);
    for result in &results {
        let result = result.as_ref().unwrap();
        assert!(
            result.probability_absorber().is_ok(),
            "QAOA binding must stay probability-absorbable (Proposition 1)"
        );
    }
    let stats = engine.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.binds, 6);

    // The prelude's fingerprint ignores angles, which is why one miss
    // served every grid point.
    let config = QuClearConfig::default();
    let rebound: Vec<PauliRotation> = sweep
        .program
        .iter()
        .map(|r| PauliRotation::new(r.pauli().clone(), 1.5))
        .collect();
    assert_eq!(
        ProgramFingerprint::of_program(&sweep.program, &config),
        ProgramFingerprint::of_program(&rebound, &config)
    );
}

/// Warm binds get absorption for free: on a template cache hit, a
/// previously absorbed observable set is returned from the template's memo
/// (same `Arc`) instead of being re-conjugated — and the rewriting agrees
/// with the scalar per-string path.
#[test]
fn warm_binds_reuse_the_cached_absorption_plan() {
    use std::sync::Arc;

    let sweep = vqe_sweep(&Benchmark::Ucc(2, 4), 2, 7);
    let observables: Vec<SignedPauli> = ["ZIII", "IZII", "ZZII", "XXYY", "-YYXX"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let engine = Engine::new(16);

    // Cold: compiles the template and conjugates the set once.
    let first = engine
        .absorb_observables(&sweep.program, &observables)
        .unwrap();
    // Warm: template cache hit + absorption memo hit — the same Arc comes
    // back, proving nothing was re-conjugated.
    let again = engine
        .absorb_observables(&sweep.program, &observables)
        .unwrap();
    assert!(
        Arc::ptr_eq(&first, &again),
        "cache hit must reuse the memoized absorption"
    );
    let stats = engine.stats();
    assert_eq!((stats.misses, stats.hits), (1, 1));

    // The batch rewriting agrees with the per-string reference.
    let reference = compile(&sweep.program, &QuClearConfig::default());
    let heisenberg = CliffordTableau::heisenberg_from_circuit(&reference.extracted);
    let scalar: Vec<SignedPauli> = observables
        .iter()
        .map(|o| heisenberg.apply_signed(o))
        .collect();
    assert_eq!(first.to_vec(), scalar);

    // A different set on the same (cached) template is a fresh conjugation.
    let other: Vec<SignedPauli> = vec!["XIXI".parse().unwrap()];
    let third = engine.absorb_observables(&sweep.program, &other).unwrap();
    assert_eq!(third.len(), 1);
    assert_eq!(engine.stats().hits, 2);

    // And binding through the same template still works as usual.
    let results = engine.sweep(&sweep.program, &sweep.angle_sets).unwrap();
    assert!(results.iter().all(Result::is_ok));
    assert_eq!(engine.stats().misses, 1, "no recompilation happened");
}
