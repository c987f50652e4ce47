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
//! check plus copy of the same bytes. The `qasm/*` ids time the two QASM
//! texts a server returns per bound point, rendered from scratch by
//! `to_qasm` and served from the template; `qasm_render_vs_angles_smoke`
//! bounds the served render against writing its angles alone, and
//! `float_writer_vs_display_smoke` holds the shortest round-trip float
//! writer to at least twice the speed of `Display` on those angles. Record
//! a baseline with
//! `CRITERION_JSON=... cargo bench -p quclear-bench --bench engine` (see
//! `BENCH_engine.json` at the workspace root).

use std::f64::consts::PI;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use quclear_circuit::float::push_f64;
use quclear_circuit::qasm::to_qasm;
use quclear_circuit::Gate;
use quclear_core::{compile, QuClearConfig, QuClearResult};
use quclear_engine::{CompiledTemplate, Engine};
use quclear_pauli::PauliRotation;
use quclear_serve::{CompiledSummary, Request, RequestKind, Response, ResponseBody};
use quclear_workloads::{qaoa_grid_sweep, vqe_sweep, Benchmark, Graph, Molecule, SweepScenario};
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

/// `qaoa_sweep`'s sweep: a 16-point (γ, β) grid over MaxCut on the
/// 20-node, degree-8 Table II graph.
fn maxcut_n20_r8_sweep() -> SweepScenario {
    let graph = Graph::regular(20, 8, 0x51CA);
    let gammas = [0.3, 0.9, 1.7, 2.6];
    let betas = [0.2, 0.5, 0.9, 1.3];
    qaoa_grid_sweep(&graph, &gammas, &betas)
}

/// `qaoa_sweep`'s request shape and its served answer.
fn qaoa_sweep_wire() -> (Request, Response) {
    let sweep = maxcut_n20_r8_sweep();
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

/// One bound point as a server binds it: the program's template from an
/// engine, and one bind of `angles` through it.
fn served_point(
    program: &[PauliRotation],
    angles: &[f64],
) -> (Arc<CompiledTemplate>, QuClearResult) {
    let engine = Engine::new(4);
    let template = engine.template_for(program).unwrap();
    let bound = engine.bind(&template, angles).unwrap();
    (template, bound)
}

/// A bound point of `qaoa_sweep`'s grid.
fn maxcut_n20_r8_point() -> (Arc<CompiledTemplate>, QuClearResult) {
    let sweep = maxcut_n20_r8_sweep();
    served_point(&sweep.program, &sweep.angle_sets[5])
}

/// MaxCut-(n20, r8) bound at one full-precision (γ, β) point, drawn as
/// perfbench's `qaoa_sweep` grids draw theirs (γ in [0, π), β in
/// [0, π/2), seed 5): served traffic writes 17-digit angles, not the short
/// ones of [`maxcut_n20_r8_sweep`]'s grid.
fn maxcut_n20_r8_full_precision_point() -> (Arc<CompiledTemplate>, QuClearResult) {
    let mut rng = StdRng::seed_from_u64(5);
    let gamma = rng.gen_range(0.0..PI);
    let beta = rng.gen_range(0.0..PI / 2.0);
    let sweep = qaoa_grid_sweep(&Graph::regular(20, 8, 0x51CA), &[gamma], &[beta]);
    served_point(&sweep.program, &sweep.angle_sets[0])
}

fn bench_qasm(c: &mut Criterion) {
    let mut group = c.benchmark_group("qasm");
    group.sample_size(30);
    let (maxcut, maxcut_bound) = maxcut_n20_r8_point();
    group.bench_with_input(
        BenchmarkId::new("to_qasm", "maxcut_n20_r8"),
        &maxcut_bound,
        |b, bound| {
            b.iter(|| (to_qasm(&bound.optimized), to_qasm(&bound.extracted)));
        },
    );
    group.bench_with_input(
        BenchmarkId::new("served", "maxcut_n20_r8"),
        &maxcut_bound.optimized,
        |b, optimized| {
            b.iter(|| maxcut.render_qasm(black_box(optimized)));
        },
    );
    let h2o = Benchmark::Molecule(Molecule::H2O).rotations();
    let h2o_angles: Vec<f64> = h2o.iter().map(PauliRotation::angle).collect();
    let (h2o, h2o_bound) = served_point(&h2o, &h2o_angles);
    group.bench_with_input(
        BenchmarkId::new("served", "h2o"),
        &h2o_bound.optimized,
        |b, optimized| {
            b.iter(|| h2o.render_qasm(black_box(optimized)));
        },
    );
    group.finish();
}

/// The rotation angles of a bound circuit, in gate order.
fn rotation_angles(bound: &QuClearResult) -> Vec<f64> {
    bound
        .optimized
        .gates()
        .iter()
        .filter_map(|gate| match *gate {
            Gate::Rz { angle, .. } | Gate::Rx { angle, .. } | Gate::Ry { angle, .. } => Some(angle),
            _ => None,
        })
        .collect()
}

/// Writes every angle with `write` into `scratch`, cleared first.
fn write_angles(scratch: &mut String, angles: &[f64], write: impl Fn(&mut String, f64)) {
    scratch.clear();
    for &angle in angles {
        write(scratch, angle);
    }
    black_box(scratch);
}

/// Best-of-`rounds` wall times of `a` and `b`, in nanoseconds, timed in
/// alternation so that both see the same host load.
fn best_of_pair_ns(rounds: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    (0..rounds).fold((f64::INFINITY, f64::INFINITY), |(best_a, best_b), _| {
        (
            best_a.min(best_of_ns(1, &mut a)),
            best_b.min(best_of_ns(1, &mut b)),
        )
    })
}

/// Ceiling on a served render (both texts of one bound point) over
/// writing the bound circuit's rotation angles alone with the same float
/// writer. On the recording host (BENCH_engine.json, `float_record`) the
/// served render reads 1.2–1.3×, and a `Display`-based render (the served
/// render less the writer's angles plus `Display`'s) about 2.7× on a quiet
/// host, 2.0–2.6× under heavy co-tenant load; 2.2 leaves the former 1.7×
/// headroom and fails the latter on a quiet host.
const MAX_RENDER_OVER_ANGLES: f64 = 2.2;

/// The QASM layer's ratio smoke: serving both texts of
/// [`maxcut_n20_r8_full_precision_point`] must cost at most
/// [`MAX_RENDER_OVER_ANGLES`]× writing its angles, in shortest round-trip
/// form with [`push_f64`], into a reused buffer, best of 200 each, timed
/// in alternation. Runs in `--test` mode too.
fn qasm_render_vs_angles_smoke(_c: &mut Criterion) {
    let (template, bound) = maxcut_n20_r8_full_precision_point();
    let angles = rotation_angles(&bound);
    let mut scratch = String::new();
    let (angles_ns, served_ns) = best_of_pair_ns(
        200,
        || write_angles(&mut scratch, &angles, push_f64),
        || {
            black_box(template.render_qasm(black_box(&bound.optimized)));
        },
    );
    let ratio = served_ns / angles_ns;
    println!(
        "qasm/render_vs_angles_smoke: {} angles, angles={:.1} us served={:.1} us ratio={ratio:.2}",
        angles.len(),
        angles_ns / 1e3,
        served_ns / 1e3,
    );
    assert!(
        ratio <= MAX_RENDER_OVER_ANGLES,
        "a served render costs {ratio:.2}x writing its angles alone (ceiling {MAX_RENDER_OVER_ANGLES})"
    );
}

/// Floor on `write!(out, "{x}")`'s time over [`push_f64`]'s on the angles
/// of [`maxcut_n20_r8_full_precision_point`]. On the recording host
/// (BENCH_engine.json, `float_record`) the ratio reads 2.5× on a quiet
/// host, 1.26× the floor, and 1.9–2.4× under heavy co-tenant load, where
/// one run in ten read below it.
const MIN_WRITER_SPEEDUP: f64 = 2.0;

/// The float writer's ratio smoke: on the 100 rotation angles of
/// [`maxcut_n20_r8_full_precision_point`], [`push_f64`] must be at least
/// [`MIN_WRITER_SPEEDUP`]× as fast as `Display`, best of 200 each, timed
/// in alternation into reused buffers, and spell them the same. Runs in
/// `--test` mode too.
fn float_writer_vs_display_smoke(_c: &mut Criterion) {
    let (_, bound) = maxcut_n20_r8_full_precision_point();
    let angles = rotation_angles(&bound);
    let (mut display_out, mut writer_out) = (String::new(), String::new());
    let (display_ns, writer_ns) = best_of_pair_ns(
        200,
        || {
            write_angles(&mut display_out, &angles, |out, angle| {
                let _ = write!(out, "{angle}");
            });
        },
        || write_angles(&mut writer_out, &angles, push_f64),
    );
    assert_eq!(
        writer_out, display_out,
        "the writer must spell the angles as Display does"
    );
    let ratio = display_ns / writer_ns;
    println!(
        "float/writer_vs_display_smoke: {} angles, display={:.2} us writer={:.2} us ratio={ratio:.2}",
        angles.len(),
        display_ns / 1e3,
        writer_ns / 1e3,
    );
    assert!(
        ratio >= MIN_WRITER_SPEEDUP,
        "the float writer is only {ratio:.2}x as fast as Display (floor {MIN_WRITER_SPEEDUP})"
    );
}

criterion_group!(
    benches,
    bench_cold_vs_warm,
    bench_batched_sweep,
    bench_wire,
    bench_qasm,
    warm_vs_cold_smoke,
    wire_decode_vs_copy_smoke,
    qasm_render_vs_angles_smoke,
    float_writer_vs_display_smoke
);
criterion_main!(benches);
