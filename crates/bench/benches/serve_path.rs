//! Criterion benchmarks of the served request path, in process.
//!
//! A warm `compile` or `sweep` needs only the template its axes key and the
//! angles, so the server reads those frames with one scan
//! (`ScannedRequest::scan`) that reads the axes' X/Z words straight from
//! the frame's bytes and fingerprints them. Three ids time that path
//! without a socket:
//!
//! - `serve_path/decode_to_hit/H2O`: a warm H2O `compile` frame (184 axes,
//!   full-precision angles) from its bytes to the template hit, i.e. the
//!   scan, its fingerprint and `Engine::cached_template`;
//! - `serve_path/compile/H2O`: the whole in-process answer to that frame
//!   (`Server::answer`: scan, lookup, bind, render, `Response::encode`);
//! - `serve_path/sweep/MaxCut-(n20, r8)`: `Server::answer` of `qaoa_sweep`'s
//!   16-point grid sweep.
//!
//! Setup checks that each frame takes the scan and hits the cache, so the
//! ids cannot silently time the tree decoder. Record a baseline with
//! `CRITERION_JSON=... cargo bench -p quclear-bench --bench serve_path` (see
//! `BENCH_engine.json` at the workspace root).

use std::f64::consts::PI;
use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use quclear_engine::Engine;
use quclear_pauli::PauliRotation;
use quclear_serve::protocol::ScannedRequest;
use quclear_serve::{Request, RequestKind, Response, ResponseBody, Server, ServerConfig};
use quclear_workloads::{qaoa_grid_sweep, Benchmark, Graph, Molecule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The wire spelling of a program: one unsigned axis per rotation.
fn axes(program: &[PauliRotation]) -> Vec<String> {
    program.iter().map(|r| r.pauli().to_string()).collect()
}

/// A warm H2O `compile` frame with uniform full-precision angles in
/// `[-π, π)`, as perfbench's `vqe_warm` draws them.
fn h2o_compile_frame() -> Vec<u8> {
    let program = Benchmark::Molecule(Molecule::H2O).rotations();
    let mut rng = StdRng::seed_from_u64(5);
    Request {
        id: 11,
        kind: RequestKind::Compile {
            program: axes(&program),
            angles: program.iter().map(|_| rng.gen_range(-PI..PI)).collect(),
        },
    }
    .encode()
}

/// `qaoa_sweep`'s request shape: a 16-point (γ, β) grid sweep over MaxCut on
/// the 20-node, degree-8 Table II graph.
fn maxcut_n20_r8_sweep_frame() -> Vec<u8> {
    let graph = Graph::regular(20, 8, 0x51CA);
    let sweep = qaoa_grid_sweep(&graph, &[0.3, 0.9, 1.7, 2.6], &[0.2, 0.5, 0.9, 1.3]);
    Request {
        id: 7,
        kind: RequestKind::Sweep {
            program: axes(&sweep.program),
            angle_sets: sweep.angle_sets,
        },
    }
    .encode()
}

/// A one-worker server on a loopback port over `engine`, warmed by one
/// answer to each frame; asserts that each frame takes the scan and that a
/// second answer hits the cache.
fn warm_server(engine: &Arc<Engine>, frames: &[&[u8]]) -> Server {
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(engine), config).expect("bind loopback");
    for frame in frames {
        assert!(
            ScannedRequest::scan(frame).is_some(),
            "the frame must take the scan"
        );
        let cold = Response::decode(&server.answer(frame)).expect("the answer decodes");
        let hits = engine.stats().hits;
        let warm = Response::decode(&server.answer(frame)).expect("the answer decodes");
        assert_eq!(
            engine.stats().hits,
            hits + 1,
            "a warm answer hits the cache"
        );
        assert_eq!(warm, cold, "warm and cold answers agree");
        assert!(
            matches!(
                warm.body,
                Ok(ResponseBody::Compiled(_)) | Ok(ResponseBody::Sweep(_))
            ),
            "{warm:?}"
        );
    }
    server
}

fn bench_serve_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_path");
    group.sample_size(30);
    let engine = Arc::new(Engine::new(8));
    let h2o = h2o_compile_frame();
    let sweep = maxcut_n20_r8_sweep_frame();
    let server = warm_server(&engine, &[&h2o, &sweep]);

    group.bench_with_input(
        BenchmarkId::new("decode_to_hit", "H2O"),
        &h2o,
        |b, frame| {
            b.iter(|| {
                let scanned = ScannedRequest::scan(black_box(frame)).unwrap();
                engine
                    .cached_template(&scanned.fingerprint(engine.config()))
                    .unwrap()
            });
        },
    );
    group.bench_with_input(BenchmarkId::new("compile", "H2O"), &h2o, |b, frame| {
        b.iter(|| server.answer(black_box(frame)));
    });
    group.bench_with_input(
        BenchmarkId::new("sweep", "MaxCut-(n20, r8)"),
        &sweep,
        |b, frame| {
            b.iter(|| server.answer(black_box(frame)));
        },
    );
    group.finish();
    server.stop();
}

criterion_group!(benches, bench_serve_path);
criterion_main!(benches);
