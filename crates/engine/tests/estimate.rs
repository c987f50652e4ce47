//! Engine-level tests for sampled observable estimation: the differential
//! scalar oracle (bit-for-bit agreement with a naive per-observable
//! diagonalize → simulate → count loop), the rotation-pass state against
//! the optimized circuit's, the end-to-end statistical VQE sweep against
//! exact statevector expectations, plan memoization across template clones,
//! deadline handling (inside the simulation too), angle validation, and
//! panic containment.

use std::sync::Arc;
use std::time::{Duration, Instant};

use quclear_engine::{
    group_shot_seed, Deadline, Engine, EngineError, ENGINE_STAGE_METRIC, MAX_ESTIMATE_SHOTS,
};
use quclear_pauli::{PauliOp, PauliRotation, PauliString, SignedPauli};
use quclear_sim::StateVector;
use quclear_workloads::{vqe_expectation_sweep, Benchmark, Molecule, SweepScenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The sweep's structure re-bound to the angles of evaluation point `point`.
fn program_at(scenario: &SweepScenario, point: usize) -> Vec<PauliRotation> {
    scenario
        .program
        .iter()
        .zip(&scenario.angle_sets[point])
        .map(|(rotation, &angle)| PauliRotation::new(rotation.pauli().clone(), angle))
        .collect()
}

/// The Table-3-style UCC workload: ansatz program plus a Hamiltonian-shaped
/// observable set, with a few members negated so sign handling is exercised.
fn ucc_workload() -> (Vec<PauliRotation>, Vec<SignedPauli>) {
    let sweep = vqe_expectation_sweep(&Benchmark::Ucc(2, 4), 1, 13);
    let mut observables = sweep.observables;
    for (i, observable) in observables.iter_mut().enumerate() {
        if i % 3 == 1 {
            *observable = SignedPauli::new(observable.pauli().clone(), true);
        }
    }
    (program_at(&sweep.scenario, 0), observables)
}

/// The naive scalar oracle: for one observable, find its group, re-simulate
/// the optimized circuit plus that group's diagonalizer gate by gate,
/// re-sample the group's batch from the same derived seed with one binary
/// search per shot, and count parities one shot at a time with no plane
/// kernels.
fn scalar_estimate(
    engine: &Engine,
    program: &[PauliRotation],
    observables: &[SignedPauli],
    observable: usize,
    shots: u64,
    seed: u64,
) -> f64 {
    let plan = engine.measurement_plan(program, observables).unwrap();
    let optimized = engine.compile(program).unwrap().optimized;
    let base = StateVector::from_circuit(&optimized);
    let (g, slot) = plan
        .groups()
        .iter()
        .enumerate()
        .find_map(|(g, group)| {
            group
                .members()
                .iter()
                .position(|&m| m == observable)
                .map(|slot| (g, slot))
        })
        .expect("every observable is covered by some group");
    let diagonalizer = plan.groups()[g].diagonalizer();
    let mut rotated = base.clone();
    rotated.apply_circuit(diagonalizer.circuit());
    let mut rng = StdRng::seed_from_u64(group_shot_seed(seed, g));
    let indices = binary_search_draws(&rotated, shots as usize, &mut rng);
    let mask: u64 = (0..plan.num_qubits())
        .filter(|&q| diagonalizer.z_support(slot).get(q))
        .map(|q| 1u64 << q)
        .sum();
    let parity_sum: i64 = indices
        .iter()
        .map(|&shot| {
            if (shot & mask).count_ones().is_multiple_of(2) {
                1
            } else {
                -1
            }
        })
        .sum();
    diagonalizer.sign(slot) * parity_sum as f64 / indices.len() as f64
}

/// Inverse-CDF draws with one `partition_point` per shot, independent of
/// `StateVector::sample_indices`' guide table.
fn binary_search_draws(state: &StateVector, shots: usize, rng: &mut StdRng) -> Vec<u64> {
    let mut cdf: Vec<f64> = state
        .amplitudes()
        .iter()
        .scan(0.0, |acc, amp| {
            *acc += amp.norm_sq();
            Some(*acc)
        })
        .collect();
    if let Some(last) = cdf.last_mut() {
        *last = f64::max(*last, 1.0);
    }
    (0..shots)
        .map(|_| {
            let draw: f64 = rng.gen_range(0.0..1.0);
            cdf.partition_point(|&c| c <= draw) as u64
        })
        .collect()
}

#[test]
fn estimate_matches_scalar_oracle_bit_for_bit() {
    let engine = Engine::new(8);
    let (program, observables) = ucc_workload();
    // 70 shots: deliberately not a multiple of the 64-bit plane width.
    for shots in [70u64, 64, 129] {
        let result = engine
            .estimate_observables(&program, &observables, shots, 9)
            .unwrap();
        assert_eq!(result.expectations.len(), observables.len());
        for i in 0..observables.len() {
            let oracle = scalar_estimate(&engine, &program, &observables, i, shots, 9);
            assert_eq!(
                result.expectations[i].to_bits(),
                oracle.to_bits(),
                "observable {i} at {shots} shots"
            );
        }
    }
}

#[test]
fn benzene_measures_in_at_most_528_dense_passes() {
    let engine = Engine::new(8);
    let benzene = Benchmark::Molecule(Molecule::Benzene);
    let plan = engine
        .measurement_plan(&benzene.rotations(), &benzene.observables())
        .unwrap();
    // One gather per group plus one Hadamard pass per unit of X-rank:
    // 74 + 454, against 4,679 gate passes before the canonical form.
    assert_eq!(plan.num_groups(), 74);
    assert!(
        plan.dense_passes() <= 528,
        "{} dense passes",
        plan.dense_passes()
    );
    assert_eq!(
        engine
            .metrics_snapshot()
            .gauge_value("quclear_engine_measurement_dense_passes", None),
        Some(plan.dense_passes() as i64)
    );
}

#[test]
fn estimate_is_deterministic_in_seed() {
    let engine = Engine::new(8);
    let (program, observables) = ucc_workload();
    let a = engine
        .estimate_observables(&program, &observables, 100, 21)
        .unwrap();
    let b = engine
        .estimate_observables(&program, &observables, 100, 21)
        .unwrap();
    let c = engine
        .estimate_observables(&program, &observables, 100, 22)
        .unwrap();
    assert_eq!(a, b);
    assert_ne!(a.expectations, c.expectations);
}

#[test]
fn vqe_sweep_converges_to_statevector_within_sampling_bound() {
    let engine = Engine::new(8);
    let sweep = vqe_expectation_sweep(&Benchmark::Ucc(2, 4), 3, 5);
    let shots = 20_000u64;
    let bound = 6.0 / (shots as f64).sqrt();
    for point in 0..sweep.scenario.len() {
        let program = program_at(&sweep.scenario, point);
        let result = engine
            .estimate_observables(&program, &sweep.observables, shots, 7)
            .unwrap();
        // The Table-3-style UCC workload must actually group observables.
        assert!(
            result.shot_budget_divisor > 1.0,
            "divisor {} at point {point}",
            result.shot_budget_divisor
        );
        let full = engine.compile(&program).unwrap().full_circuit();
        let psi = StateVector::from_circuit(&full);
        for (i, observable) in sweep.observables.iter().enumerate() {
            let exact = psi.expectation_signed(observable);
            assert!(
                (result.expectations[i] - exact).abs() < bound,
                "point {point} observable {i}: sampled {} vs exact {exact} (bound {bound})",
                result.expectations[i]
            );
        }
    }
}

#[test]
fn measurement_plan_is_memoized_and_shared_across_template_clones() {
    let engine = Engine::new(8);
    let (program, observables) = ucc_workload();
    let first = engine.measurement_plan(&program, &observables).unwrap();
    let second = engine.measurement_plan(&program, &observables).unwrap();
    assert!(
        Arc::ptr_eq(&first, &second),
        "repeat requests must share one plan"
    );
    // A fresh template lookup (cache hit → clone) shares the same memo.
    let template = engine.template_for(&program).unwrap();
    let via_template = template.measurement_plan(&observables);
    assert!(Arc::ptr_eq(&first, &via_template));
}

#[test]
fn estimate_respects_an_expired_deadline() {
    let engine = Engine::new(8);
    let (program, observables) = ucc_workload();
    // Warm the caches so only the deadline can fail the request.
    engine
        .estimate_observables(&program, &observables, 10, 1)
        .unwrap();
    let expired = Deadline::within(Duration::ZERO);
    std::thread::sleep(Duration::from_millis(2));
    let result = engine
        .with_deadline(expired)
        .estimate_observables(&program, &observables, 10, 1);
    assert!(matches!(result, Err(EngineError::DeadlineExceeded)));
}

#[test]
fn a_warm_estimate_looks_its_template_up_once() {
    let engine = Engine::new(8);
    let (program, observables) = ucc_workload();
    engine
        .estimate_observables(&program, &observables, 10, 1)
        .unwrap();
    let fingerprints = |engine: &Engine| {
        engine
            .metrics_snapshot()
            .histogram(ENGINE_STAGE_METRIC, Some(("stage", "fingerprint")))
            .expect("fingerprint stage registered")
            .count()
    };
    let (lookups, fingerprinted) = (engine.stats().lookups(), fingerprints(&engine));
    let result = engine
        .estimate_observables(&program, &observables, 10, 2)
        .unwrap();
    assert_eq!(engine.stats().lookups(), lookups + 1);
    assert_eq!(fingerprints(&engine), fingerprinted + 1);
    // The plan built on that one lookup still reports its group count.
    assert_eq!(
        engine
            .metrics_snapshot()
            .gauge_value("quclear_engine_measurement_groups", None),
        Some(result.groups.len() as i64)
    );
}

#[test]
fn zero_shots_and_oversized_registers_are_not_estimable() {
    let engine = Engine::new(8);
    let (program, observables) = ucc_workload();
    let zero = engine.estimate_observables(&program, &observables, 0, 1);
    assert!(matches!(zero, Err(EngineError::NotEstimable { .. })));

    // 27 qubits compiles fine but exceeds the dense simulator budget.
    let n = 27;
    let big_program = vec![PauliRotation::new(
        PauliString::single(n, 0, PauliOp::Z),
        0.4,
    )];
    let big_observables = vec![SignedPauli::positive(PauliString::single(n, 1, PauliOp::Z))];
    let big = engine.estimate_observables(&big_program, &big_observables, 10, 1);
    assert!(matches!(big, Err(EngineError::NotEstimable { .. })));

    // The per-group shot cap is inclusive.
    let small = vec![PauliRotation::parse("ZZ", 0.4).unwrap()];
    let small_observables = vec![SignedPauli::positive("ZZ".parse().unwrap())];
    let at_cap = engine.estimate_observables(&small, &small_observables, MAX_ESTIMATE_SHOTS, 1);
    assert_eq!(at_cap.unwrap().expectations, vec![1.0]);
    let over = engine.estimate_observables(&small, &small_observables, MAX_ESTIMATE_SHOTS + 1, 1);
    assert!(matches!(over, Err(EngineError::NotEstimable { .. })));
}

#[test]
fn estimate_times_one_simulation_and_one_sample_per_group() {
    let engine = Engine::new(8);
    let (program, observables) = ucc_workload();
    let result = engine
        .estimate_observables(&program, &observables, 64, 5)
        .unwrap();
    let snapshot = engine.metrics_snapshot();
    let count = |stage: &str| {
        snapshot
            .histogram(ENGINE_STAGE_METRIC, Some(("stage", stage)))
            .unwrap_or_else(|| panic!("stage `{stage}` not registered"))
            .count()
    };
    assert_eq!(count("simulate"), 1);
    assert_eq!(count("sample"), result.groups.len() as u64);
    assert_eq!(count("readout"), 1);
}

/// The estimate builds its state as `U_CL† · U_program|0⟩` — one pass per
/// program rotation, then the template's resynthesized extracted Clifford
/// inverted. On every Table II program of at most 12 qubits that state is
/// the optimized circuit's, up to global phase.
#[test]
fn rotation_passes_reproduce_the_optimized_circuit_state() {
    let engine = Engine::new(32);
    for bench in Benchmark::all() {
        let program = bench.rotations();
        if program[0].num_qubits() > 12 {
            continue;
        }
        let template = engine.template_for(&program).unwrap();
        let mut state = StateVector::zero_state(template.num_qubits());
        state.apply_rotations(&program);
        state.apply_circuit(&template.extracted().inverse());
        let optimized = StateVector::from_circuit(&engine.compile(&program).unwrap().optimized);
        assert!(
            state.approx_eq_up_to_phase(&optimized, 1e-10),
            "{}: |<rotations|optimized>| = {}",
            bench.name(),
            state.inner_product(&optimized).norm()
        );
    }
}

#[test]
fn a_non_finite_angle_is_rejected_with_its_index() {
    let engine = Engine::new(8);
    let (mut program, observables) = ucc_workload();
    let index = program.len() / 2;
    program[index] = PauliRotation::new(program[index].pauli().clone(), f64::NAN);
    let result = engine.estimate_observables(&program, &observables, 64, 1);
    assert_eq!(result, Err(EngineError::NonFiniteAngle { index }));
}

/// A spent deadline stops the simulation itself, not just the stages
/// around it: on a warm 18-qubit template the request answers
/// `DeadlineExceeded` long before the few hundred rotation passes could
/// finish, and no simulation is recorded as completed.
#[test]
fn a_deadline_interrupts_the_simulation() {
    let n = 18;
    let mut rng = StdRng::seed_from_u64(18);
    let program: Vec<PauliRotation> = (0..300)
        .map(|_| {
            let mut pauli = PauliString::identity(n);
            for _ in 0..4 {
                let op = [PauliOp::X, PauliOp::Y, PauliOp::Z][rng.gen_range(0..3usize)];
                pauli.set_op(rng.gen_range(0..n), op);
            }
            PauliRotation::new(pauli, rng.gen_range(0.1..3.0))
        })
        .collect();
    let observables: Vec<SignedPauli> = (0..n)
        .map(|q| SignedPauli::positive(PauliString::single(n, q, PauliOp::Z)))
        .collect();
    let engine = Engine::new(8);
    // Warm the template and the plan so only the simulation is left.
    engine.measurement_plan(&program, &observables).unwrap();
    let simulations = |engine: &Engine| {
        engine
            .metrics_snapshot()
            .histogram(ENGINE_STAGE_METRIC, Some(("stage", "simulate")))
            .expect("simulate stage registered")
            .count()
    };
    let start = Instant::now();
    let result = engine
        .with_deadline(Deadline::within(Duration::from_millis(20)))
        .estimate_observables(&program, &observables, 64, 1);
    let elapsed = start.elapsed();
    assert_eq!(result, Err(EngineError::DeadlineExceeded));
    assert_eq!(simulations(&engine), 0, "the simulation ran to completion");
    assert!(
        elapsed < Duration::from_secs(1),
        "answered after {elapsed:?}"
    );
}

#[test]
fn panicking_diagonalization_is_contained_to_its_request() {
    let engine = Engine::new(8);
    let (program, observables) = ucc_workload();
    // Observables on the wrong register size panic inside the contained
    // plan-building region.
    let mismatched = vec![SignedPauli::positive(PauliString::single(7, 0, PauliOp::Z))];
    let bad = engine.estimate_observables(&program, &mismatched, 10, 1);
    assert!(matches!(bad, Err(EngineError::CompilationPanicked { .. })));
    // The engine (and the same template) keeps serving afterwards.
    let good = engine
        .estimate_observables(&program, &observables, 50, 1)
        .unwrap();
    assert_eq!(good.expectations.len(), observables.len());
}
