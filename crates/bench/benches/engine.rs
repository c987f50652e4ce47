//! Criterion benchmarks of the `quclear-engine` template cache: cold
//! compiles vs. warm binds vs. batched parameter sweeps, and the wire codec
//! that carries them.
//!
//! The headline acceptance number is the cold/warm ratio on a 20-rotation
//! program: a warm `bind` skips extraction, reordering and tree synthesis
//! entirely and must be ≥10× faster than a cold `compile`
//! (`warm_vs_cold_smoke` asserts it, in `-- --test` mode too). The `wire/*`
//! ids time the four codec layers of a served request on `qaoa_sweep`'s
//! 16-point MaxCut-(n20, d8) sweep and `vqe_estimate`'s UCC-(6,12) request;
//! `wire_decode_vs_copy_smoke` bounds `Response::decode` against a UTF-8
//! check plus copy of the same bytes. Record a baseline with
//! `CRITERION_JSON=... cargo bench -p quclear-bench --bench engine` (see
//! `BENCH_engine.json` at the workspace root).

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use quclear_circuit::qasm::to_qasm;
use quclear_core::{compile, QuClearConfig};
use quclear_engine::Engine;
use quclear_pauli::PauliRotation;
use quclear_serve::{CompiledSummary, Request, RequestKind, Response, ResponseBody};
use quclear_workloads::{qaoa_grid_sweep, vqe_sweep, Benchmark, Graph};
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

/// The wire spelling of a program: one unsigned axis per rotation.
fn axes(program: &[PauliRotation]) -> Vec<String> {
    program.iter().map(|r| r.pauli().to_string()).collect()
}

/// `qaoa_sweep`'s request shape and its served answer: a 16-point
/// (γ, β) grid over MaxCut on the 20-node, degree-8 Table II graph.
fn qaoa_sweep_wire() -> (Request, Response) {
    let graph = Graph::regular(20, 8, 0x51CA);
    let gammas = [0.3, 0.9, 1.7, 2.6];
    let betas = [0.2, 0.5, 0.9, 1.3];
    let sweep = qaoa_grid_sweep(&graph, &gammas, &betas);
    let request = Request {
        id: 7,
        kind: RequestKind::Sweep {
            program: axes(&sweep.program),
            angle_sets: sweep.angle_sets.clone(),
        },
    };
    let results = Engine::new(4)
        .sweep(&sweep.program, &sweep.angle_sets)
        .unwrap()
        .into_iter()
        .map(|result| {
            let result = result.unwrap();
            Ok(CompiledSummary {
                optimized_qasm: to_qasm(&result.optimized),
                extracted_qasm: to_qasm(&result.extracted),
                num_qubits: result.optimized.num_qubits(),
                cnot_count: result.cnot_count(),
                gate_count: result.optimized.len(),
            })
        })
        .collect();
    let response = Response {
        id: 7,
        body: Ok(ResponseBody::Sweep(results)),
    };
    (request, response)
}

/// `vqe_estimate`'s UCC-(6,12) request: 1,656 axes and angles plus the
/// observables, 8,192 shots.
fn ucc612_estimate_wire() -> Request {
    let benchmark = Benchmark::Ucc(6, 12);
    let program = benchmark.rotations();
    Request {
        id: 9,
        kind: RequestKind::Estimate {
            program: axes(&program),
            angles: program.iter().map(PauliRotation::angle).collect(),
            observables: benchmark
                .observables()
                .iter()
                .map(ToString::to_string)
                .collect(),
            shots: 8192,
            seed: 5,
        },
    }
}

fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    group.sample_size(30);
    let (request, response) = qaoa_sweep_wire();
    let request_bytes = request.encode();
    let response_bytes = response.encode();
    let id = "qaoa_n20_d8_sweep16";
    group.bench_with_input(BenchmarkId::new("req_encode", id), &request, |b, r| {
        b.iter(|| black_box(r).encode());
    });
    group.bench_with_input(
        BenchmarkId::new("req_decode", id),
        &request_bytes,
        |b, r| {
            b.iter(|| Request::decode(black_box(r)).unwrap());
        },
    );
    group.bench_with_input(BenchmarkId::new("resp_encode", id), &response, |b, r| {
        b.iter(|| black_box(r).encode());
    });
    group.bench_with_input(
        BenchmarkId::new("resp_decode", id),
        &response_bytes,
        |b, r| {
            b.iter(|| Response::decode(black_box(r)).unwrap());
        },
    );
    let estimate_bytes = ucc612_estimate_wire().encode();
    group.bench_with_input(
        BenchmarkId::new("req_decode", "ucc612_estimate"),
        &estimate_bytes,
        |b, r| {
            b.iter(|| Request::decode(black_box(r)).unwrap());
        },
    );
    group.finish();
}

/// Ceiling on `Response::decode` of the sweep response over a UTF-8 check
/// plus copy of the same bytes. On the recording host (BENCH_engine.json)
/// the run-copying decoder reads 16–21× and the char-by-char one it
/// replaced 140–190×; 60 leaves the former about 3× headroom and fails the
/// latter.
const MAX_DECODE_OVER_COPY: f64 = 60.0;

/// The codec's ratio smoke: decoding the ~84 KB sweep response must cost at
/// most [`MAX_DECODE_OVER_COPY`]× validating and copying its bytes. A ratio
/// of two timings on one host, so it holds on slow and fast machines alike;
/// runs in `--test` mode too.
fn wire_decode_vs_copy_smoke(_c: &mut Criterion) {
    let (_, response) = qaoa_sweep_wire();
    let bytes = response.encode();
    let copy_ns = best_of_ns(200, || {
        black_box(std::str::from_utf8(black_box(&bytes)).unwrap().to_owned());
    });
    let decode_ns = best_of_ns(200, || {
        black_box(Response::decode(black_box(&bytes)).unwrap());
    });
    let ratio = decode_ns / copy_ns;
    println!(
        "wire/decode_vs_copy_smoke: {} bytes, copy={:.1} us decode={:.1} us ratio={ratio:.1}",
        bytes.len(),
        copy_ns / 1e3,
        decode_ns / 1e3,
    );
    assert!(
        ratio <= MAX_DECODE_OVER_COPY,
        "Response::decode costs {ratio:.1}x a UTF-8 check plus copy (ceiling {MAX_DECODE_OVER_COPY})"
    );
}

criterion_group!(
    benches,
    bench_cold_vs_warm,
    bench_batched_sweep,
    bench_wire,
    warm_vs_cold_smoke,
    wire_decode_vs_copy_smoke
);
criterion_main!(benches);
