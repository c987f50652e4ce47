//! A VQE-style parameter sweep through the compilation engine.
//!
//! Variational workloads evaluate one ansatz *structure* at thousands of
//! parameter points. Recompiling from scratch pays the full Clifford
//! Extraction every time; the engine compiles the structure once, caches the
//! template, and rebinds angles in `O(gates)`.
//!
//! Run with `cargo run --release --example parameter_sweep`.

use std::time::Instant;

use quclear::core::{compile, QuClearConfig};
use quclear::prelude::*;
use quclear::workloads::{vqe_sweep, Benchmark};

fn main() {
    let benchmark = Benchmark::Ucc(2, 6);
    let points = 200;
    let sweep = vqe_sweep(&benchmark, points, 42);
    println!(
        "sweep: {} — {} rotations on {} qubits, {} parameter points\n",
        sweep.name,
        sweep.program.len(),
        benchmark.num_qubits(),
        sweep.len(),
    );

    // Baseline: recompile every parameter point from scratch.
    let config = QuClearConfig::default();
    let start = Instant::now();
    let mut naive_cnots = 0usize;
    for angles in &sweep.angle_sets {
        let program: Vec<PauliRotation> = sweep
            .program
            .iter()
            .zip(angles)
            .map(|(r, &a)| PauliRotation::new(r.pauli().clone(), a))
            .collect();
        naive_cnots = compile(&program, &config).cnot_count();
    }
    let naive_time = start.elapsed();
    println!("from-scratch recompiles: {naive_time:?}");

    // Engine: one extraction, then cached rebinds.
    let engine = Engine::new(64);
    let start = Instant::now();
    let results = engine.sweep(&sweep.program, &sweep.angle_sets).unwrap();
    let engine_time = start.elapsed();
    println!("engine sweep:            {engine_time:?}");

    let ok = results.iter().filter(|r| r.is_ok()).count();
    let engine_cnots = results[0].as_ref().unwrap().cnot_count();
    let stats = engine.stats();
    println!(
        "\n{} / {} points compiled, {} CNOTs each (naive recompile agrees: {})",
        ok,
        results.len(),
        engine_cnots,
        engine_cnots == naive_cnots,
    );
    println!(
        "cache: {} hit(s), {} miss(es), {} entries — hit rate {:.1}%",
        stats.hits,
        stats.misses,
        stats.entries,
        stats.hit_rate() * 100.0,
    );
    println!(
        "speedup: {:.1}x",
        naive_time.as_secs_f64() / engine_time.as_secs_f64()
    );
}
