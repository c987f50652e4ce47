//! Criterion benchmarks of the word-parallel Clifford kernels.
//!
//! Three groups cover the hot paths rewritten onto bit-planes:
//!
//! * `tableau` — building a Clifford tableau from a circuit (`then_gate`
//!   word kernels) and applying it to Pauli strings (masked popcount
//!   `apply`), at 16/64/128 qubits.
//! * `frame` — batched conjugation of a whole Pauli frame through a random
//!   Clifford circuit (the extraction lookahead kernel).
//! * `extraction` — cold compile of the UCC-(2,6) workload, the headline
//!   acceptance number (≥3× over the pre-bit-plane baseline; see
//!   `BENCH_kernels.json`).
//! * `cache` — template lookups against the engine's LRU cache from one
//!   thread and from 32 threads hammering one hot entry (read-mostly fast
//!   path).
//! * `statevector` — the dense simulation behind `estimate`:
//!   `StateVector::from_circuit` of the optimized UCC-(6,12) circuit, the
//!   same state built the way `estimate` builds it (one in-place pass per
//!   program rotation, then the resynthesized extracted Clifford
//!   inverted), and for the benzene commuting group with the longest
//!   diagonalizer the work every group of a request runs: one gather of the
//!   diagonalizer's monomial prefix into a reused scratch state, one `H`
//!   pass per pivot, and a guide-table `sample_indices(8192)`.
//!
//! Record results with `CRITERION_JSON=<path> cargo bench -p quclear-bench
//! --bench kernels`.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use quclear_circuit::Gate;
use quclear_core::{compile, QuClearConfig};
use quclear_engine::Engine;
use quclear_pauli::{PauliFrame, PauliOp, PauliRotation, PauliString, SignedPauli};
use quclear_sim::StateVector;
use quclear_tableau::{conjugate_all_by_gate, random_clifford_circuit, CliffordTableau};
use quclear_workloads::{Benchmark, Molecule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_pauli(n: usize, rng: &mut StdRng) -> PauliString {
    let mut p = PauliString::identity(n);
    for q in 0..n {
        let op = match rng.gen_range(0..4) {
            0 => PauliOp::I,
            1 => PauliOp::X,
            2 => PauliOp::Y,
            _ => PauliOp::Z,
        };
        p.set_op(q, op);
    }
    p
}

fn bench_tableau(c: &mut Criterion) {
    let mut group = c.benchmark_group("tableau");
    group.sample_size(30);
    for n in [16usize, 64, 128] {
        let mut rng = StdRng::seed_from_u64(42 + n as u64);
        let circuit = random_clifford_circuit(n, 6 * n, &mut rng);
        group.bench_with_input(BenchmarkId::new("from_circuit", n), &circuit, |b, qc| {
            b.iter(|| CliffordTableau::from_circuit(black_box(qc)));
        });
        let tableau = CliffordTableau::from_circuit(&circuit);
        let paulis: Vec<PauliString> = (0..64).map(|_| random_pauli(n, &mut rng)).collect();
        group.bench_with_input(
            BenchmarkId::new("apply_x64", n),
            &(tableau, paulis),
            |b, (t, ps)| {
                b.iter(|| {
                    let mut acc = 0usize;
                    for p in ps {
                        acc += t.apply(black_box(p)).weight();
                    }
                    acc
                });
            },
        );
    }
    group.finish();
}

fn bench_frame(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame");
    group.sample_size(30);
    let n = 32;
    let rows = 256;
    let mut rng = StdRng::seed_from_u64(7);
    let circuit = random_clifford_circuit(n, 4 * n, &mut rng);
    let signed: Vec<SignedPauli> = (0..rows)
        .map(|_| SignedPauli::positive(random_pauli(n, &mut rng)))
        .collect();
    group.bench_with_input(
        BenchmarkId::new("conjugate_256rows", "32q_128gates"),
        &(circuit, signed),
        |b, (qc, rows)| {
            b.iter(|| {
                let mut frame = PauliFrame::from_signed(n, rows);
                for gate in qc.gates() {
                    conjugate_all_by_gate(&mut frame, gate);
                }
                frame.sign_plane().count_ones()
            });
        },
    );
    group.finish();
}

fn bench_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("extraction");
    group.sample_size(30);
    let program = Benchmark::Ucc(2, 6).rotations();
    let config = QuClearConfig::default();
    group.bench_with_input(
        BenchmarkId::new("cold_compile", "ucc26"),
        &program,
        |b, program| {
            b.iter(|| compile(black_box(program), &config));
        },
    );
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    group.sample_size(20);
    let program = Benchmark::Ucc(2, 6).rotations();
    let angles: Vec<f64> = program.iter().map(PauliRotation::angle).collect();

    let engine = Arc::new(Engine::new(64));
    engine.compile(&program).expect("prime");

    // Hot-hit path from a single thread: lookup + bind.
    group.bench_with_input(
        BenchmarkId::new("warm_lookup_bind", "1thread"),
        &(Arc::clone(&engine), program.clone(), angles.clone()),
        |b, (engine, program, angles)| {
            b.iter(|| {
                let template = engine.template_for(black_box(program)).unwrap();
                template.bind(black_box(angles)).unwrap()
            });
        },
    );

    // 32 threads hammering the same hot template: measures contention on
    // the read-mostly fast path (wall time for 32×16 lookups+binds).
    group.bench_with_input(
        BenchmarkId::new("warm_lookup_bind", "32threads"),
        &(Arc::clone(&engine), program, angles),
        |b, (engine, program, angles)| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for _ in 0..32 {
                        let engine = Arc::clone(engine);
                        scope.spawn(move || {
                            for _ in 0..16 {
                                let template = engine.template_for(black_box(program)).unwrap();
                                black_box(template.bind(black_box(angles)).unwrap());
                            }
                        });
                    }
                });
            });
        },
    );
    group.finish();
}

fn bench_statevector(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector");
    group.sample_size(20);
    let engine = Engine::new(4);

    let ucc_program = Benchmark::Ucc(6, 12).rotations();
    let ucc = engine
        .compile(&ucc_program)
        .expect("compile UCC-(6,12)")
        .optimized;
    group.bench_with_input(
        BenchmarkId::new("from_circuit", "ucc612"),
        &ucc,
        |b, circuit| {
            b.iter(|| StateVector::from_circuit(black_box(circuit)));
        },
    );
    // The same state (up to global phase) the way `estimate` builds it:
    // one pass per program rotation, then the resynthesized extracted
    // Clifford inverted.
    let uncompute = engine
        .template_for(&ucc_program)
        .expect("UCC-(6,12) template")
        .extracted()
        .inverse();
    group.bench_with_input(
        BenchmarkId::new("rotations_then_clifford", "ucc612"),
        &(ucc_program, uncompute),
        |b, (program, uncompute)| {
            b.iter(|| {
                let mut state = StateVector::zero_state(uncompute.num_qubits());
                state.apply_rotations(black_box(program));
                state.apply_circuit(black_box(uncompute));
                state
            });
        },
    );

    // The benzene group with the longest diagonalizer: the per-group work
    // of an estimate after its one shared simulation.
    let benzene = Benchmark::Molecule(Molecule::Benzene);
    let program = benzene.rotations();
    let plan = engine
        .measurement_plan(&program, &benzene.observables())
        .expect("benzene measurement plan");
    let widest = plan
        .groups()
        .iter()
        .map(|g| g.diagonalizer())
        .max_by_key(|d| d.circuit().len())
        .expect("benzene has groups")
        .clone();
    let base = StateVector::from_circuit(&engine.compile(&program).expect("compile").optimized);
    let mut scratch = StateVector::zero_state(base.num_qubits());
    group.bench_with_input(
        BenchmarkId::new("diagonalize_sample_8192", "benzene_widest_group"),
        &(base, widest),
        |b, (base, diagonalizer)| {
            b.iter(|| {
                scratch.gather(black_box(base), diagonalizer.monomial());
                for &q in diagonalizer.hadamard_qubits() {
                    scratch.apply_gate(&Gate::H(q));
                }
                let mut rng = StdRng::seed_from_u64(7);
                scratch.sample_indices(8192, &mut rng)
            });
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_tableau,
    bench_frame,
    bench_extraction,
    bench_cache,
    bench_statevector
);
criterion_main!(benches);
