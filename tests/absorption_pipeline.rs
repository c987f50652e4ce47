//! End-to-end validation of the word-parallel absorption pipeline: batch
//! CA-Pre observable rewriting through the engine's cached plan (VQE path)
//! and bit-plane CA-Post shot post-processing (QAOA sampling path), both
//! checked against the scalar reference implementations and the simulator.

use quclear::core::ShotBatch;
use quclear::prelude::*;
use quclear::sim::StateVector;
use quclear::workloads::{
    qaoa_initial_layer, qaoa_sampling_sweep, vqe_expectation_sweep, Benchmark, Graph,
};
use quclear_baselines::synthesize_naive;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// VQE expectation path: the engine binds one template per sweep, CA-Pre
/// rewrites the whole observable set in one frame sweep, and every original
/// expectation is recovered from the optimized circuit alone.
#[test]
fn vqe_expectation_sweep_recovers_original_expectations() {
    let sweep = vqe_expectation_sweep(&Benchmark::Ucc(2, 4), 3, 41);
    let engine = Engine::new(16);
    let absorbed = engine
        .absorb_observables(&sweep.scenario.program, &sweep.observables)
        .unwrap();
    assert_eq!(absorbed.len(), sweep.observables.len());

    let results = engine
        .sweep(&sweep.scenario.program, &sweep.scenario.angle_sets)
        .unwrap();
    for result in &results {
        let result = result.as_ref().unwrap();
        // Reference: the full circuit (optimized + extracted Clifford).
        let reference = StateVector::from_circuit(&result.full_circuit());
        let optimized = StateVector::from_circuit(&result.optimized);
        for (i, observable) in sweep.observables.iter().enumerate() {
            let direct = reference.expectation_signed(observable);
            let measured = optimized.expectation(&absorbed.frame().row_pauli(i));
            let recovered = absorbed.original_expectation(i, measured);
            assert!(
                (direct - recovered).abs() < 1e-8,
                "observable {i} ({observable}) mismatch: {direct} vs {recovered}"
            );
        }
    }

    // The commuting groups are valid and cover the set exactly once.
    let groups = absorbed.commuting_groups();
    let covered: usize = groups.iter().map(Vec::len).sum();
    assert_eq!(covered, sweep.observables.len());
    let rewritten = absorbed.to_vec();
    for group in &groups {
        for (a, &i) in group.iter().enumerate() {
            for &j in &group[a + 1..] {
                assert!(rewritten[i].pauli().commutes_with(rewritten[j].pauli()));
            }
        }
    }
}

/// QAOA sampling path: shots drawn from the optimized circuit are remapped
/// by the bit-plane affine CA-Post exactly like the scalar per-shot map,
/// and the word-parallel expectation accumulator reproduces the exact cut
/// expectations within sampling error.
#[test]
fn qaoa_shot_post_processing_matches_scalar_and_simulator() {
    let graph = Graph::regular(6, 2, 9);
    let sweep = qaoa_sampling_sweep(&graph, &[0.55], &[0.95]);
    let engine = Engine::new(16);
    let results = engine
        .sweep(&sweep.scenario.program, &sweep.scenario.angle_sets)
        .unwrap();
    let result = results[0].as_ref().unwrap();
    let absorber = result.probability_absorber().unwrap();
    let n = graph.num_vertices();

    // Measured state: initial |+…+⟩ layer, optimized circuit, CA-Pre basis
    // rotations — then computational-basis shots.
    let mut measured = qaoa_initial_layer(n);
    measured.append(&result.optimized);
    measured.append(&absorber.pre_circuit());
    let state = StateVector::from_circuit(&measured);
    let mut rng = StdRng::seed_from_u64(2024);
    let shots = state.sample_indices(60_000, &mut rng);

    // Bit-plane CA-Post vs the scalar per-shot map: bit-for-bit identical.
    let batch = ShotBatch::from_indices(n, &shots);
    let mapped = absorber.post_process_shots(&batch);
    let scalar: Vec<u64> = shots
        .iter()
        .map(|&s| absorber.map_index(s as usize) as u64)
        .collect();
    assert_eq!(mapped.to_indices(), scalar);

    // Exact reference distribution of the original program, re-angled to
    // the grid point the engine bound.
    let reangled: Vec<PauliRotation> = sweep
        .scenario
        .program
        .iter()
        .zip(&sweep.scenario.angle_sets[0])
        .map(|(r, &a)| PauliRotation::new(r.pauli().clone(), a))
        .collect();
    let mut reference = qaoa_initial_layer(n);
    reference.append(&synthesize_naive(&reangled));
    let exact = StateVector::from_circuit(&reference);

    // Word-parallel expectation accumulator vs exact edge expectations.
    for observable in &sweep.observables {
        // Edge observables are Z-only, so their Z bits are their support.
        assert!(observable.pauli().x_bits().is_zero());
        let estimate = observable.sign() * mapped.parity_expectation(observable.pauli().z_bits());
        let truth = exact.expectation_signed(observable);
        assert!(
            (estimate - truth).abs() < 0.05,
            "edge {observable}: sampled {estimate} vs exact {truth}"
        );
    }

    // The remapped histogram matches the exact distribution in total
    // variation distance (loose sampling bound).
    let counts = mapped.counts();
    let total: u64 = counts.values().sum();
    assert_eq!(total, 60_000);
    let exact_probabilities = exact.probabilities();
    let tv: f64 = (0..1u64 << n)
        .map(|idx| {
            let sampled = *counts.get(&idx).unwrap_or(&0) as f64 / total as f64;
            (sampled - exact_probabilities[idx as usize]).abs()
        })
        .sum::<f64>()
        / 2.0;
    assert!(tv < 0.04, "total variation {tv} too large");
}
