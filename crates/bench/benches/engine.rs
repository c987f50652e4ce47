//! Criterion benchmarks of the `quclear-engine` template cache: cold
//! compiles vs. warm binds vs. batched parameter sweeps.
//!
//! The headline acceptance number is the cold/warm ratio on a 20-rotation
//! program: a warm `bind` skips extraction, reordering and tree synthesis
//! entirely and must be ≥10× faster than a cold `compile`
//! (`warm_vs_cold_smoke` asserts it, in `-- --test` mode too). Record a
//! baseline with `CRITERION_JSON=... cargo bench -p quclear-bench --bench
//! engine` (see `BENCH_engine.json` at the workspace root).

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use quclear_core::{compile, QuClearConfig};
use quclear_engine::Engine;
use quclear_pauli::PauliRotation;
use quclear_workloads::{vqe_sweep, Benchmark};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic 20-rotation, 8-qubit program — the acceptance workload.
fn twenty_rotation_program() -> Vec<PauliRotation> {
    let mut rng = StdRng::seed_from_u64(2025);
    (0..20)
        .map(|_| {
            let pauli: String = (0..8)
                .map(|_| match rng.gen_range(0..4) {
                    0 => 'I',
                    1 => 'X',
                    2 => 'Y',
                    _ => 'Z',
                })
                .collect();
            PauliRotation::parse(&pauli, rng.gen_range(0.05..2.9)).unwrap()
        })
        .collect()
}

fn bench_cold_vs_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(30);
    let program = twenty_rotation_program();
    let config = QuClearConfig::default();

    group.bench_with_input(
        BenchmarkId::new("cold_compile", "20rot"),
        &program,
        |b, program| {
            b.iter(|| compile(black_box(program), &config));
        },
    );

    let engine = Engine::new(64);
    engine.compile(&program).unwrap(); // prime the cache
    group.bench_with_input(
        BenchmarkId::new("warm_bind", "20rot"),
        &program,
        |b, program| {
            b.iter(|| engine.compile(black_box(program)).unwrap());
        },
    );

    let template = engine.template_for(&program).unwrap();
    let angles: Vec<f64> = program.iter().map(PauliRotation::angle).collect();
    group.bench_with_input(
        BenchmarkId::new("bind_only", "20rot"),
        &angles,
        |b, angles| {
            b.iter(|| template.bind(black_box(angles)).unwrap());
        },
    );
    group.finish();
}

fn bench_batched_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_sweep");
    group.sample_size(10);
    let sweep = vqe_sweep(&Benchmark::Ucc(2, 4), 64, 9);

    group.bench_with_input(
        BenchmarkId::new("sequential_compile", "ucc24x64"),
        &sweep,
        |b, sweep| {
            b.iter(|| {
                let config = QuClearConfig::default();
                for angles in &sweep.angle_sets {
                    let reangled: Vec<PauliRotation> = sweep
                        .program
                        .iter()
                        .zip(angles)
                        .map(|(r, &a)| PauliRotation::new(r.pauli().clone(), a))
                        .collect();
                    black_box(compile(&reangled, &config));
                }
            });
        },
    );

    group.bench_with_input(
        BenchmarkId::new("engine_sweep", "ucc24x64"),
        &sweep,
        |b, sweep| {
            b.iter(|| {
                let engine = Engine::new(8);
                black_box(engine.sweep(&sweep.program, &sweep.angle_sets).unwrap())
            });
        },
    );
    group.finish();
}

/// Minimum cold-compile / warm-bind ratio on the 20-rotation program.
const MIN_WARM_SPEEDUP: f64 = 10.0;

/// Best-of-`rounds` wall time of `f`, in nanoseconds.
fn best_of_ns(rounds: usize, mut f: impl FnMut()) -> f64 {
    (0..rounds)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The acceptance smoke: a cold `compile` of the 20-rotation program must
/// take at least [`MIN_WARM_SPEEDUP`]× as long as a warm `Engine::compile`
/// of it. Runs in `--test` mode too, where the criterion stand-in skips
/// timing but this `Instant` loop does not.
fn warm_vs_cold_smoke(_c: &mut Criterion) {
    let program = twenty_rotation_program();
    let config = QuClearConfig::default();
    let engine = Engine::new(4);
    engine.compile(&program).unwrap(); // prime the cache
    let cold_ns = best_of_ns(20, || {
        black_box(compile(black_box(&program), &config));
    });
    let warm_ns = best_of_ns(200, || {
        black_box(engine.compile(black_box(&program)).unwrap());
    });
    let ratio = cold_ns / warm_ns;
    println!(
        "engine/warm_vs_cold_smoke: cold={:.1} us warm={:.2} us ratio={ratio:.1}",
        cold_ns / 1e3,
        warm_ns / 1e3,
    );
    assert!(
        ratio >= MIN_WARM_SPEEDUP,
        "warm bind is only {ratio:.1}x faster than a cold compile (floor {MIN_WARM_SPEEDUP})"
    );
}

criterion_group!(
    benches,
    bench_cold_vs_warm,
    bench_batched_sweep,
    warm_vs_cold_smoke
);
criterion_main!(benches);
