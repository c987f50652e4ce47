//! Criterion micro-benchmarks of the Clifford Extraction pass (compile-time
//! component of Table III).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use quclear_circuit::optimize;
use quclear_core::{compile, extract_clifford, ExtractionConfig, QuClearConfig};
use quclear_pauli::{PauliOp, PauliRotation, PauliString};
use quclear_workloads::Benchmark;

fn bench_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("clifford_extraction");
    group.sample_size(10);
    for bench in [
        Benchmark::Ucc(2, 4),
        Benchmark::Ucc(2, 6),
        Benchmark::Molecule(quclear_workloads::Molecule::LiH),
        Benchmark::MaxCutRegular { n: 15, degree: 4 },
        Benchmark::Labs(10),
        // Programs whose commuting blocks make candidate scoring dominate.
        Benchmark::Ucc(6, 12),
        Benchmark::Molecule(quclear_workloads::Molecule::Benzene),
        Benchmark::Labs(15),
        // One block of 615 diagonal rotations, where picking dominates.
        Benchmark::Labs(20),
        // 13,400 rotations in small blocks, where emission dominates: the
        // trees, and every pending image advanced through every gate.
        Benchmark::Ucc(10, 20),
    ] {
        let rotations = bench.rotations();
        group.bench_with_input(
            BenchmarkId::new("extract", bench.name()),
            &rotations,
            |b, rotations| {
                b.iter(|| extract_clifford(rotations, &ExtractionConfig::default()));
            },
        );
    }
    let rotations = z_block(64, 4_000);
    group.bench_with_input(
        BenchmarkId::new("extract", "z_block-(n64, r4000)"),
        &rotations,
        |b, rotations| {
            b.iter(|| extract_clifford(rotations, &ExtractionConfig::default()));
        },
    );
    group.finish();
}

/// One commuting block of `count` seeded random {I, Z} strings on `n`
/// qubits: every pick chooses among all remaining rotations.
fn z_block(n: usize, count: usize) -> Vec<PauliRotation> {
    let mut state = 0x5EED_u64;
    (0..count)
        .map(|i| {
            let mut pauli = PauliString::identity(n);
            for q in 0..n {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                if (state >> 33) & 1 == 1 {
                    pauli.set_op(q, PauliOp::Z);
                }
            }
            PauliRotation::new(pauli, 0.01 + 0.001 * i as f64)
        })
        .collect()
}

fn bench_full_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("quclear_pipeline");
    group.sample_size(10);
    for bench in [
        Benchmark::Ucc(2, 6),
        Benchmark::MaxCutRegular { n: 20, degree: 8 },
    ] {
        let rotations = bench.rotations();
        group.bench_with_input(
            BenchmarkId::new("compile", bench.name()),
            &rotations,
            |b, rotations| {
                b.iter(|| compile(rotations, &QuClearConfig::default()));
            },
        );
    }
    group.finish();
}

/// The peephole alone on extraction outputs: the second layer of a cold
/// compile after extraction itself.
fn bench_peephole(c: &mut Criterion) {
    let mut group = c.benchmark_group("extraction");
    group.sample_size(20);
    for (id, bench) in [
        ("ucc612", Benchmark::Ucc(6, 12)),
        (
            "benzene",
            Benchmark::Molecule(quclear_workloads::Molecule::Benzene),
        ),
    ] {
        let extracted =
            extract_clifford(&bench.rotations(), &ExtractionConfig::default()).optimized;
        group.bench_with_input(
            BenchmarkId::new("peephole", id),
            &extracted,
            |b, circuit| {
                b.iter(|| optimize(black_box(circuit)));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_extraction,
    bench_full_pipeline,
    bench_peephole
);
criterion_main!(benches);
