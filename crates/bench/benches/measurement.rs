//! Criterion benchmarks of grouped measurement reduction: diagonalizing the
//! commuting groups of a UCC Hamiltonian-shaped observable set and reading
//! every member's expectation out of one packed shot batch per group.
//!
//! Three ids measure the pipeline against its naive baseline:
//!
//! * `measurement/diagonalize` — building a [`MeasurementPlan`] (grouping +
//!   Clifford diagonalizer synthesis + parity-block packing) from the
//!   absorbed observable frame.
//! * `measurement/grouped_planes` — the CA-Post readout: pack one batch per
//!   commuting group and estimate every observable via the plan's bit-plane
//!   parity kernels.
//! * `measurement/per_observable_scalar` — the pre-grouping baseline: one
//!   shot vector per observable, parities counted one shot at a time.
//!
//! Two smokes run under
//! `cargo bench -p quclear-bench --bench measurement -- --test` and are
//! wired into CI:
//!
//! * `grouped_vs_per_observable_smoke` — grouped estimation must agree with
//!   the scalar readout bit-for-bit and must not be slower than the
//!   per-observable loop.
//! * `per_group_path_smoke` — over every benzene commuting group, the
//!   production per-group path of `estimate` (gather the diagonalizer's
//!   monomial prefix into a reused scratch state, one `H` pass per pivot,
//!   guide-table draws, pack) must draw the same shots as the gate-by-gate
//!   oracle path (clone, run the diagonalizer gate by gate, one binary
//!   search per shot, pack) in under 0.7× its time.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use quclear_circuit::{Circuit, Gate};
use quclear_core::{MeasurementPlan, ShotBatch};
use quclear_engine::Engine;
use quclear_pauli::PauliFrame;
use quclear_sim::StateVector;
use quclear_workloads::{vqe_expectation_sweep, Benchmark, Molecule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shots per batch (per group for the grouped path, per observable for the
/// scalar baseline).
const SHOTS: usize = 1 << 16;

/// The UCC-(4,8) Hamiltonian-shaped observable set (every single-qubit `Z`
/// plus each distinct ansatz rotation axis), as a Pauli frame plus its
/// measurement plan.
fn ucc_plan() -> (usize, PauliFrame, MeasurementPlan) {
    let sweep = vqe_expectation_sweep(&Benchmark::Ucc(4, 8), 1, 13);
    let n = sweep.observables[0].num_qubits();
    let frame = PauliFrame::from_signed(n, &sweep.observables);
    let plan = MeasurementPlan::from_frame(&frame);
    (n, frame, plan)
}

/// One random shot-index vector per batch, deterministic in `seed`.
fn random_shots(n: usize, batches: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..batches)
        .map(|_| (0..SHOTS).map(|_| rng.gen_range(0..1u64 << n)).collect())
        .collect()
}

/// The naive per-observable readout over one group's raw indices: mask,
/// popcount, count parities one shot at a time, apply the tracked sign.
fn scalar_readout(plan: &MeasurementPlan, indices: &[Vec<u64>]) -> Vec<f64> {
    let mut out = vec![0.0; plan.num_observables()];
    for (group, shots) in plan.groups().iter().zip(indices) {
        let diagonalizer = group.diagonalizer();
        for (slot, &member) in group.members().iter().enumerate() {
            let mask: u64 = (0..plan.num_qubits())
                .filter(|&q| diagonalizer.z_support(slot).get(q))
                .map(|q| 1u64 << q)
                .sum();
            let parity_sum: i64 = shots
                .iter()
                .map(|&s| {
                    if (s & mask).count_ones().is_multiple_of(2) {
                        1
                    } else {
                        -1
                    }
                })
                .sum();
            out[member] = diagonalizer.sign(slot) * parity_sum as f64 / shots.len() as f64;
        }
    }
    out
}

fn bench_measurement(c: &mut Criterion) {
    let (n, frame, plan) = ucc_plan();
    let grouped_shots = random_shots(n, plan.num_groups(), 0xD1A6);
    let per_observable_shots = random_shots(n, plan.num_observables(), 0xD1A6);
    let batches: Vec<ShotBatch> = grouped_shots
        .iter()
        .map(|shots| ShotBatch::from_indices(n, shots))
        .collect();

    let mut group = c.benchmark_group("measurement");
    group.sample_size(20);
    group.bench_with_input(
        BenchmarkId::new("diagonalize", plan.num_observables()),
        &frame,
        |b, frame| {
            b.iter(|| MeasurementPlan::from_frame(black_box(frame)));
        },
    );
    group.bench_with_input(
        BenchmarkId::new("grouped_planes", SHOTS),
        &grouped_shots,
        |b, shots| {
            b.iter(|| {
                let batches: Vec<ShotBatch> = shots
                    .iter()
                    .map(|shots| ShotBatch::from_indices(n, shots))
                    .collect();
                plan.estimate(black_box(&batches))
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("grouped_readout", SHOTS),
        &batches,
        |b, batches| {
            b.iter(|| plan.estimate(black_box(batches)));
        },
    );
    group.bench_with_input(
        BenchmarkId::new("per_observable_scalar", SHOTS),
        &per_observable_shots,
        |b, shots| {
            b.iter(|| {
                // One vector per observable: count every batch even though
                // the masks repeat across groups — that is the pre-grouping
                // shot budget.
                shots
                    .iter()
                    .enumerate()
                    .map(|(i, shots)| {
                        let (g, slot) = plan
                            .groups()
                            .iter()
                            .enumerate()
                            .find_map(|(g, group)| {
                                group.members().iter().position(|&m| m == i).map(|s| (g, s))
                            })
                            .expect("every observable is grouped");
                        let diagonalizer = plan.groups()[g].diagonalizer();
                        let mask: u64 = (0..n)
                            .filter(|&q| diagonalizer.z_support(slot).get(q))
                            .map(|q| 1u64 << q)
                            .sum();
                        let parity_sum: i64 = shots
                            .iter()
                            .map(|&s| {
                                if (s & mask).count_ones().is_multiple_of(2) {
                                    1
                                } else {
                                    -1
                                }
                            })
                            .sum();
                        diagonalizer.sign(slot) * parity_sum as f64 / shots.len() as f64
                    })
                    .sum::<f64>()
            });
        },
    );
    group.finish();
}

/// Noise margin for the grouped-vs-scalar smoke: grouped estimation must not
/// be slower than the per-observable loop beyond measurement jitter. The
/// grouped path does `groups` batches of plane kernels against
/// `observables` batches of scalar parity loops, so in practice it wins by
/// the shot-budget divisor times the plane-kernel speedup.
const GROUPED_SLOWDOWN_TOLERANCE: f64 = 1.10;

/// Best-of-N wall time of `f`, in nanoseconds, plus a checksum.
fn best_of<F: FnMut() -> u64>(mut f: F) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut sink = 0u64;
    for _ in 0..5 {
        let start = Instant::now();
        sink = sink.wrapping_add(f());
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    (best, sink)
}

/// The acceptance smoke: on the UCC-(4,8) observable set, grouped
/// estimation (pack one batch per commuting group, bit-plane parity
/// readout) must agree bit-for-bit with the scalar per-observable readout
/// of the same batches, and must not run slower than estimating each
/// observable from its own per-observable shot vector. Runs in `--test`
/// mode too, where the criterion stand-in skips timing but this `Instant`
/// loop does not.
fn grouped_vs_per_observable_smoke(_c: &mut Criterion) {
    let (n, _, plan) = ucc_plan();
    assert!(
        plan.shot_budget_divisor() > 1.0,
        "UCC workload must actually group observables (divisor {})",
        plan.shot_budget_divisor()
    );
    let grouped_shots = random_shots(n, plan.num_groups(), 0xD1A6);
    let per_observable_shots = random_shots(n, plan.num_observables(), 0xD1A6);

    // Correctness: plane readout equals the scalar readout of the SAME
    // batches, bit for bit.
    let batches: Vec<ShotBatch> = grouped_shots
        .iter()
        .map(|shots| ShotBatch::from_indices(n, shots))
        .collect();
    let planes = plan.estimate(&batches);
    let scalar = scalar_readout(&plan, &grouped_shots);
    for (i, (a, b)) in planes.iter().zip(&scalar).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "observable {i}: planes {a} vs scalar {b}"
        );
    }

    // Wall clock: the full grouped path (pack + plane readout, one batch
    // per group) against the per-observable scalar loop (one shot vector
    // per observable).
    let (grouped_ns, grouped_sum) = best_of(|| {
        let batches: Vec<ShotBatch> = grouped_shots
            .iter()
            .map(|shots| ShotBatch::from_indices(n, black_box(shots)))
            .collect();
        plan.estimate(&batches)
            .iter()
            .map(|e| e.to_bits())
            .fold(0u64, u64::wrapping_add)
    });
    let (scalar_ns, scalar_sum) = best_of(|| {
        per_observable_shots
            .iter()
            .enumerate()
            .map(|(i, shots)| {
                let (g, slot) = plan
                    .groups()
                    .iter()
                    .enumerate()
                    .find_map(|(g, group)| {
                        group.members().iter().position(|&m| m == i).map(|s| (g, s))
                    })
                    .expect("every observable is grouped");
                let diagonalizer = plan.groups()[g].diagonalizer();
                let mask: u64 = (0..n)
                    .filter(|&q| diagonalizer.z_support(slot).get(q))
                    .map(|q| 1u64 << q)
                    .sum();
                let parity_sum: i64 = black_box(shots)
                    .iter()
                    .map(|&s| {
                        if (s & mask).count_ones().is_multiple_of(2) {
                            1
                        } else {
                            -1
                        }
                    })
                    .sum();
                (diagonalizer.sign(slot) * parity_sum as f64).to_bits()
            })
            .fold(0u64, u64::wrapping_add)
    });
    // An opaque use keeps the scalar loop from being optimized away.
    black_box(scalar_sum);
    let expected_sum = planes
        .iter()
        .map(|e| e.to_bits())
        .fold(0u64, u64::wrapping_add);
    assert_eq!(
        grouped_sum,
        expected_sum.wrapping_mul(5),
        "grouped readout drifted across smoke iterations"
    );
    let ratio = grouped_ns / scalar_ns;
    println!(
        "measurement/grouped_vs_per_observable_smoke: grouped={:.2} ms scalar={:.2} ms \
         ratio={ratio:.3} ({} observables in {} groups, shot budget divisor {:.2})",
        grouped_ns / 1e6,
        scalar_ns / 1e6,
        plan.num_observables(),
        plan.num_groups(),
        plan.shot_budget_divisor(),
    );
    assert!(
        ratio < GROUPED_SLOWDOWN_TOLERANCE,
        "grouped estimation is {ratio:.3}x the per-observable path (tolerance \
         {GROUPED_SLOWDOWN_TOLERANCE})"
    );
}

/// Shots per group of the per-group path smoke, as `vqe_estimate` sends.
const ESTIMATE_SHOTS: usize = 8192;

/// Ceiling on production / oracle time in `per_group_path_smoke`.
const PER_GROUP_RATIO_CEILING: f64 = 0.7;

/// The gate-by-gate oracle of one group's sampling: clone the state, run
/// the diagonalizer one gate at a time, draw with one binary search per
/// shot.
fn oracle_group_shots(base: &StateVector, circuit: &Circuit, seed: u64) -> Vec<u64> {
    let mut rotated = base.clone();
    rotated.apply_circuit(circuit);
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = rotated
        .amplitudes()
        .iter()
        .map(|a| {
            acc += a.norm_sq();
            acc
        })
        .collect();
    if let Some(last) = cdf.last_mut() {
        *last = f64::max(*last, 1.0);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    (0..ESTIMATE_SHOTS)
        .map(|_| {
            let draw: f64 = rng.gen_range(0.0..1.0);
            cdf.partition_point(|&c| c <= draw) as u64
        })
        .collect()
}

/// The per-group acceptance smoke on benzene (12 qubits, 74 groups): the
/// production path and the gate-by-gate oracle path draw identical shots
/// for every group, and over 15 interleaved rounds the median round's
/// production / oracle time ratio stays under [`PER_GROUP_RATIO_CEILING`].
fn per_group_path_smoke(_c: &mut Criterion) {
    let engine = Engine::new(8);
    let benzene = Benchmark::Molecule(Molecule::Benzene);
    let program = benzene.rotations();
    let plan = engine
        .measurement_plan(&program, &benzene.observables())
        .expect("benzene measurement plan");
    let base = StateVector::from_circuit(&engine.compile(&program).expect("compile").optimized);
    let n = plan.num_qubits();
    let mut scratch = StateVector::zero_state(n);
    let mut production = |check: bool| {
        let mut sink = 0u64;
        for (g, group) in plan.groups().iter().enumerate() {
            let diagonalizer = group.diagonalizer();
            scratch.gather(black_box(&base), diagonalizer.monomial());
            for &q in diagonalizer.hadamard_qubits() {
                scratch.apply_gate(&Gate::H(q));
            }
            let mut rng = StdRng::seed_from_u64(g as u64);
            let indices = scratch.sample_indices(ESTIMATE_SHOTS, &mut rng);
            if check {
                let oracle = oracle_group_shots(&base, diagonalizer.circuit(), g as u64);
                assert!(
                    indices == oracle,
                    "group {g}: production shots differ from the oracle's"
                );
            }
            sink ^= ShotBatch::from_indices(n, &indices).planes()[0].words()[0];
        }
        sink
    };
    let oracle = || {
        let mut sink = 0u64;
        for (g, group) in plan.groups().iter().enumerate() {
            let indices =
                oracle_group_shots(black_box(&base), group.diagonalizer().circuit(), g as u64);
            sink ^= ShotBatch::from_indices(n, &indices).planes()[0].words()[0];
        }
        sink
    };
    black_box(production(true));
    // Each round times both paths back to back, so host drift hits both
    // sides of a round's ratio alike; the median round ratio is the gate.
    let mut rounds: Vec<(f64, f64)> = (0..15)
        .map(|_| {
            let start = Instant::now();
            black_box(production(false));
            let production_ns = start.elapsed().as_nanos() as f64;
            let start = Instant::now();
            black_box(oracle());
            (production_ns, start.elapsed().as_nanos() as f64)
        })
        .collect();
    rounds.sort_by(|a, b| (a.0 / a.1).total_cmp(&(b.0 / b.1)));
    let (production_ns, oracle_ns) = rounds[rounds.len() / 2];
    let ratio = production_ns / oracle_ns;
    println!(
        "measurement/per_group_path_smoke: production={:.2} ms oracle={:.2} ms median round \
         ratio={ratio:.3} ({} groups, {} dense passes, {ESTIMATE_SHOTS} shots each)",
        production_ns / 1e6,
        oracle_ns / 1e6,
        plan.num_groups(),
        plan.dense_passes(),
    );
    assert!(
        ratio < PER_GROUP_RATIO_CEILING,
        "per-group path is {ratio:.3}x the gate-by-gate oracle (ceiling {PER_GROUP_RATIO_CEILING})"
    );
}

criterion_group!(
    benches,
    bench_measurement,
    grouped_vs_per_observable_smoke,
    per_group_path_smoke
);
criterion_main!(benches);
