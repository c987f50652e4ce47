//! Criterion benchmarks of the word-parallel absorption pipeline, recorded
//! to `BENCH_absorb.json`.
//!
//! Two groups measure the batch paths against their scalar baselines:
//!
//! * `ca_pre` — rewriting ≥10k observables through the extracted Clifford:
//!   per-string `CliffordTableau::apply_signed` (the scalar path) versus the
//!   `AbsorptionPlan` frame sweep.
//! * `ca_post` — post-processing ≥1M shots: the per-shot `map_index` loop
//!   (the pre-PR scalar path) versus bit-plane packing + packed affine map,
//!   plus the expectation accumulators (per-shot parity counting versus
//!   XOR-of-planes popcounts over 64 observables).
//!
//! Record results with `CRITERION_JSON=<path> cargo bench -p quclear-bench
//! --bench absorb`.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use quclear_core::{compile, QuClearConfig, ShotBatch};
use quclear_pauli::{BitVec, PauliOp, PauliString, SignedPauli};
use quclear_tableau::CliffordTableau;
use quclear_workloads::Benchmark;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const OBSERVABLES: usize = 10_240;
const SHOTS: usize = 1 << 20;
const EXPECTATION_OBSERVABLES: usize = 64;

fn random_observables(n: usize, count: usize, seed: u64) -> Vec<SignedPauli> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let ops: Vec<PauliOp> = (0..n)
                .map(|_| match rng.gen_range(0..4) {
                    0 => PauliOp::I,
                    1 => PauliOp::X,
                    2 => PauliOp::Y,
                    _ => PauliOp::Z,
                })
                .collect();
            SignedPauli::new(PauliString::from_ops(&ops), rng.gen_bool(0.5))
        })
        .collect()
}

fn bench_ca_pre(c: &mut Criterion) {
    let bench = Benchmark::Ucc(4, 8);
    let n = bench.num_qubits();
    let result = compile(&bench.rotations(), &QuClearConfig::default());
    let plan = result.absorption_plan();
    let heisenberg = CliffordTableau::heisenberg_from_circuit(&result.extracted);
    let observables = random_observables(n, OBSERVABLES, 0xCAFE);

    let mut group = c.benchmark_group("ca_pre");
    group.sample_size(20);
    group.bench_with_input(
        BenchmarkId::new("scalar", OBSERVABLES),
        &observables,
        |b, obs| {
            b.iter(|| {
                black_box(obs)
                    .iter()
                    .map(|o| heisenberg.apply_signed(o))
                    .collect::<Vec<_>>()
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("plan_frame", OBSERVABLES),
        &observables,
        |b, obs| {
            b.iter(|| plan.absorb(black_box(obs)));
        },
    );
    group.finish();
}

fn bench_ca_post(c: &mut Criterion) {
    let bench = Benchmark::MaxCutRegular { n: 20, degree: 12 };
    let n = 20usize;
    let result = compile(&bench.rotations(), &QuClearConfig::default());
    let absorber = result.probability_absorber().expect("QAOA is absorbable");
    let mut rng = StdRng::seed_from_u64(7);
    let shots: Vec<u64> = (0..SHOTS).map(|_| rng.gen_range(0..1u64 << n)).collect();
    let packed = ShotBatch::from_indices(n, &shots);

    let mut group = c.benchmark_group("ca_post");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("scalar_map", SHOTS), &shots, |b, shots| {
        b.iter(|| {
            shots
                .iter()
                .fold(0usize, |acc, &s| acc ^ absorber.map_index(s as usize))
        });
    });
    group.bench_with_input(BenchmarkId::new("planes_map", SHOTS), &shots, |b, shots| {
        b.iter(|| {
            let batch = ShotBatch::from_indices(n, black_box(shots));
            absorber.post_process_shots(&batch)
        });
    });

    // Expectation accumulation over 64 random Z-supports.
    let supports: Vec<(u64, BitVec)> = (0..EXPECTATION_OBSERVABLES as u64)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(100 + i);
            let mut mask_bits = 0u64;
            let mut mask = BitVec::zeros(n);
            for q in 0..n {
                if rng.gen_bool(0.3) {
                    mask_bits |= 1 << q;
                    mask.set(q, true);
                }
            }
            (mask_bits, mask)
        })
        .collect();
    group.bench_with_input(
        BenchmarkId::new("expectations_scalar", SHOTS),
        &shots,
        |b, shots| {
            b.iter(|| {
                supports
                    .iter()
                    .map(|&(mask_bits, _)| {
                        let minus = shots
                            .iter()
                            .filter(|&&s| (s & mask_bits).count_ones() % 2 == 1)
                            .count();
                        (shots.len() as f64 - 2.0 * minus as f64) / shots.len() as f64
                    })
                    .sum::<f64>()
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("expectations_planes", SHOTS),
        &packed,
        |b, batch| {
            b.iter(|| {
                supports
                    .iter()
                    .map(|(_, mask)| batch.parity_expectation(mask))
                    .sum::<f64>()
            });
        },
    );
    let masks: Vec<BitVec> = supports.iter().map(|(_, mask)| mask.clone()).collect();
    group.bench_with_input(
        BenchmarkId::new("expectations_batched", SHOTS),
        &packed,
        |b, batch| {
            b.iter(|| {
                batch
                    .parity_expectations(black_box(&masks))
                    .iter()
                    .sum::<f64>()
            });
        },
    );
    group.finish();
}

/// Noise margin for the lane-vs-scalar smoke: the wide-lane kernels must
/// not be slower than a plain per-word loop beyond measurement jitter.
const LANE_SLOWDOWN_TOLERANCE: f64 = 1.10;

/// Best-of-N wall time of `f`, in nanoseconds.
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

/// The acceptance smoke: on an absorb-shaped workload (1M shots packed into
/// bit planes, 64 observables) the wide-lane kernels behind
/// `parity_expectation` and `mul_planes` must never run slower than the
/// same fold written as a plain per-word `u64` loop. Runs in `--test` mode
/// too, where the criterion stand-in skips timing but this `Instant` loop
/// does not.
fn lane_vs_scalar_smoke(_c: &mut Criterion) {
    const N: usize = 20;
    const WORDS: usize = SHOTS / 64;
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let planes: Vec<Vec<u64>> = (0..N)
        .map(|_| (0..WORDS).map(|_| rng.gen_range(0..u64::MAX)).collect())
        .collect();
    let supports: Vec<Vec<usize>> = (0..EXPECTATION_OBSERVABLES)
        .map(|_| (0..N).filter(|_| rng.gen_bool(0.3)).collect())
        .collect();

    // Expectation path: XOR-fold + popcount over each support's planes.
    let fold = |width_is_lane: bool| -> u64 {
        supports
            .iter()
            .map(|support| {
                let srcs: Vec<&[u64]> = support.iter().map(|&q| planes[q].as_slice()).collect();
                let srcs = black_box(&srcs);
                if width_is_lane {
                    simd::xor_popcount(srcs, WORDS)
                } else {
                    (0..WORDS)
                        .map(|i| u64::from(srcs.iter().fold(0, |acc, s| acc ^ s[i]).count_ones()))
                        .sum()
                }
            })
            .sum()
    };
    let (scalar_ns, scalar_sum) = best_of(|| fold(false));
    let (lane_ns, lane_sum) = best_of(|| fold(true));
    assert_eq!(scalar_sum, lane_sum, "lane fold disagrees with scalar fold");
    let ratio = lane_ns / scalar_ns;
    println!(
        "absorb/lane_vs_scalar_smoke: xor_popcount lane={:.2} ms scalar={:.2} ms ratio={ratio:.3} \
         (lane_words={})",
        lane_ns / 1e6,
        scalar_ns / 1e6,
        simd::LANE_WORDS,
    );
    assert!(
        ratio < LANE_SLOWDOWN_TOLERANCE,
        "wide-lane xor_popcount is {ratio:.3}x the scalar path (tolerance {LANE_SLOWDOWN_TOLERANCE})"
    );

    // Map path: fused multi-source XOR into a destination row.
    let xor_many = |width_is_lane: bool| -> u64 {
        let mut acc = 0u64;
        let mut dst = vec![0u64; WORDS];
        for support in &supports {
            let srcs: Vec<&[u64]> = support.iter().map(|&q| planes[q].as_slice()).collect();
            let dst = black_box(&mut dst);
            if width_is_lane {
                simd::xor_many_into(dst, &srcs);
            } else {
                for (i, d) in dst.iter_mut().enumerate() {
                    *d = srcs.iter().fold(*d, |acc, s| acc ^ s[i]);
                }
            }
            acc = acc.wrapping_add(dst[WORDS / 2]);
        }
        acc
    };
    let (scalar_ns, scalar_acc) = best_of(|| xor_many(false));
    let (lane_ns, lane_acc) = best_of(|| xor_many(true));
    assert_eq!(scalar_acc, lane_acc, "lane xor_many disagrees with scalar");
    let ratio = lane_ns / scalar_ns;
    println!(
        "absorb/lane_vs_scalar_smoke: xor_many lane={:.2} ms scalar={:.2} ms ratio={ratio:.3}",
        lane_ns / 1e6,
        scalar_ns / 1e6,
    );
    assert!(
        ratio < LANE_SLOWDOWN_TOLERANCE,
        "wide-lane xor_many_into is {ratio:.3}x the scalar path (tolerance {LANE_SLOWDOWN_TOLERANCE})"
    );
}

criterion_group!(benches, bench_ca_pre, bench_ca_post, lane_vs_scalar_smoke);
criterion_main!(benches);
