//! Threaded stress tests of the engine's template cache.
//!
//! These run under `--release` in CI as the cache-concurrency regression
//! gate: many threads hammer one engine with a mix of distinct structures
//! (inserts and evictions under the write lock) and one hot structure (the
//! read-mostly hit path), and every result must still be correct,
//! deterministic per job, and accounted for in the stats.

use std::sync::Arc;

use quclear_core::compile;
use quclear_engine::Engine;
use quclear_pauli::{PauliOp, PauliRotation, PauliString};

/// A deterministic pseudo-random weight-mixed program, distinct per `tag`.
fn program(tag: u64, n: usize, rotations: usize) -> Vec<PauliRotation> {
    let mut state = tag.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..rotations)
        .map(|_| {
            let mut p = PauliString::identity(n);
            let mut weight = 0;
            for q in 0..n {
                let op = match next() % 4 {
                    0 => PauliOp::I,
                    1 => PauliOp::X,
                    2 => PauliOp::Y,
                    _ => PauliOp::Z,
                };
                if !op.is_identity() {
                    weight += 1;
                }
                p.set_op(q, op);
            }
            if weight == 0 {
                p.set_op(0, PauliOp::Z);
            }
            PauliRotation::new(p, (next() % 100) as f64 / 31.0 + 0.01)
        })
        .collect()
}

/// 32 threads × distinct structures: inserts race each other, no thread may
/// observe another's template, and each result equals a direct compile.
#[test]
fn thirty_two_threads_distinct_fingerprints() {
    let engine = Arc::new(Engine::new(256));
    let threads = 32;
    let per_thread = 4;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                for j in 0..per_thread {
                    let tag = (t * per_thread + j) as u64;
                    let prog = program(tag, 6, 8);
                    let got = engine.compile(&prog).expect("compile must succeed");
                    let want = compile(&prog, engine.config());
                    assert_eq!(
                        got.optimized.gates(),
                        want.optimized.gates(),
                        "thread {t} job {j} diverged from direct compile"
                    );
                }
            });
        }
    });
    let stats = engine.stats();
    assert_eq!(stats.hits + stats.misses, (threads * per_thread) as u64);
    // All structures are distinct; each was compiled at least once and the
    // cache is big enough that none was evicted.
    assert!(stats.misses >= (threads * per_thread) as u64 / 2);
    assert_eq!(stats.evictions, 0);
    assert_eq!(stats.binds, (threads * per_thread) as u64);
}

/// 32 threads × one hot structure: the read-mostly hit path must serve all
/// but the first lookup without recompiling.
#[test]
fn thirty_two_threads_one_hot_template() {
    let engine = Arc::new(Engine::new(64));
    let prog = program(999, 6, 10);
    engine.compile(&prog).expect("prime the cache");
    let threads = 32;
    let per_thread = 8;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let engine = Arc::clone(&engine);
            let prog = prog.clone();
            scope.spawn(move || {
                for k in 0..per_thread {
                    let mut reangled = prog.clone();
                    let axis = reangled[0].pauli().clone();
                    reangled[0] = PauliRotation::new(axis, 0.01 + k as f64);
                    engine.compile(&reangled).expect("warm compile");
                }
            });
        }
    });
    let stats = engine.stats();
    assert_eq!(stats.misses, 1, "hot structure must compile exactly once");
    assert_eq!(stats.hits, (threads * per_thread) as u64);
    assert_eq!(stats.entries, 1);
}

/// Eight threads compile one mixed job list at once: every valid program
/// compiles to the direct result and every malformed one fails, under
/// contention on the shared cache.
#[test]
fn concurrent_compiles_stay_isolated() {
    let engine = Arc::new(Engine::new(128));
    let jobs: Vec<Vec<PauliRotation>> = (0..24)
        .map(|i| {
            if i % 8 == 7 {
                // Malformed job: inconsistent register sizes.
                vec![
                    PauliRotation::parse("XX", 0.1).unwrap(),
                    PauliRotation::parse("XXX", 0.2).unwrap(),
                ]
            } else {
                program(i as u64 % 6, 5, 6)
            }
        })
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let engine = Arc::clone(&engine);
            let jobs = &jobs;
            scope.spawn(move || {
                for (i, job) in jobs.iter().enumerate() {
                    let result = engine.compile(job);
                    if i % 8 == 7 {
                        assert!(result.is_err(), "malformed job {i} must fail");
                    } else {
                        let got = result.expect("job must succeed");
                        let want = compile(job, engine.config());
                        assert_eq!(got.optimized.gates(), want.optimized.gates());
                    }
                }
            });
        }
    });
    // 6 distinct valid structures cached; failures are never cached.
    assert_eq!(engine.stats().entries, 6);
}
