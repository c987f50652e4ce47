//! Long-running-service robustness: panic isolation and request coalescing.
//!
//! A compile-once/serve-many engine lives for days inside one process, so a
//! single panicking request must never take out future requests (no
//! poisoned cache lock) or requests that happened to be waiting on the same
//! compilation (single-flight abandon handling). These tests drive those
//! properties through the public `Engine` API, using the engine's
//! fault-injection hook to model a panic on the template-lookup path.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use quclear_engine::{Engine, ProgramFingerprint};
use quclear_pauli::PauliRotation;

fn rot(s: &str, angle: f64) -> PauliRotation {
    PauliRotation::parse(s, angle).unwrap()
}

fn fingerprint_of(program: &[PauliRotation], engine: &Engine) -> ProgramFingerprint {
    ProgramFingerprint::of_program(program, engine.config())
}

/// A structure large enough that its extraction takes a visible amount of
/// time, so concurrent misses actually overlap in flight.
fn slow_program(tag: u64) -> Vec<PauliRotation> {
    let ops = ['X', 'Y', 'Z', 'I'];
    (0..24u64)
        .map(|i| {
            let mut axis = String::new();
            let mut state = tag
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i.wrapping_mul(0x517C_C1B7_2722_0A95));
            for _ in 0..10 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                axis.push(ops[(state % 4) as usize]);
            }
            if !axis.bytes().any(|b| b != b'I') {
                axis.replace_range(0..1, "Z");
            }
            rot(&axis, 0.1 + i as f64 * 0.05)
        })
        .collect()
}

/// A panicking request must not poison state consulted by *other*
/// structures: while the fault is armed for one fingerprint, every other
/// program keeps compiling through the same cache, and the panics stay on
/// the threads that raised them.
#[test]
fn panicking_request_does_not_poison_other_structures() {
    let engine = Engine::new(16);
    let doomed = vec![rot("XXXX", 0.3)];
    engine.inject_lookup_panic(Some(fingerprint_of(&doomed, &engine)));

    for i in 0..8 {
        let healthy = vec![rot("ZZII", 0.1 * f64::from(i)), rot("IXXI", 0.2)];
        assert!(engine.compile(&healthy).is_ok(), "round {i}");
        std::thread::scope(|scope| {
            let doomed_request =
                scope.spawn(|| catch_unwind(AssertUnwindSafe(|| engine.compile(&doomed))).is_err());
            let neighbour = scope.spawn(|| engine.compile(&[rot("YYII", 0.4)]));
            assert!(
                doomed_request.join().unwrap(),
                "the injected lookup panic must fire in round {i}"
            );
            assert!(
                neighbour.join().unwrap().is_ok(),
                "neighbour must survive round {i}"
            );
        });
    }

    engine.inject_lookup_panic(None);
    assert!(engine.compile(&doomed).is_ok(), "no lasting damage");
}

/// Tentpole property: K concurrent requests for one uncached structure run
/// exactly one extraction. The leader misses; everyone else either waits on
/// the flight (counted in `coalesced_waits`) or arrives after publication
/// (a plain hit) — in every schedule, `misses == 1`.
#[test]
fn concurrent_identical_requests_compile_once() {
    let engine = Arc::new(Engine::new(64));
    let program = slow_program(7);
    let threads = 16;
    let barrier = Arc::new(Barrier::new(threads));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let engine = Arc::clone(&engine);
            let program = program.clone();
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                barrier.wait();
                engine.compile(&program).expect("compile must succeed");
            });
        }
    });
    let stats = engine.stats();
    assert_eq!(stats.misses, 1, "single flight: exactly one extraction");
    assert_eq!(stats.hits, threads as u64 - 1);
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.binds, threads as u64);
    // `coalesced_waits` counts the subset of hits that actually parked on
    // the in-flight compile; scheduling decides how many, and the snapshot
    // must agree with the hit accounting.
    assert!(stats.coalesced_waits <= stats.hits);
}

/// With the compile window held open (injected delay), every concurrent
/// identical request demonstrably parks on the single flight: the
/// coalesced-wait counter is exact, not best-effort.
#[test]
fn coalesced_waits_are_counted() {
    let engine = Arc::new(Engine::new(64));
    let program = vec![rot("ZXYZ", 0.3), rot("YZZX", -0.4)];
    let fingerprint = fingerprint_of(&program, &engine);
    engine.inject_compile_delay(Some((fingerprint, std::time::Duration::from_millis(750))));
    let threads = 4;
    let barrier = Arc::new(Barrier::new(threads));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let engine = Arc::clone(&engine);
            let program = program.clone();
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                barrier.wait();
                engine.compile(&program).expect("compile must succeed");
            });
        }
    });
    engine.inject_compile_delay(None);
    let stats = engine.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, threads as u64 - 1);
    assert!(
        stats.coalesced_waits >= threads as u64 / 2,
        "the 750ms in-flight window must catch most concurrent requests \
         (got {})",
        stats.coalesced_waits
    );
}

/// Distinct structures must never wait on each other's flights.
#[test]
fn distinct_structures_do_not_coalesce() {
    let engine = Arc::new(Engine::new(64));
    let threads = 8;
    let barrier = Arc::new(Barrier::new(threads));
    std::thread::scope(|scope| {
        for t in 0..threads {
            let engine = Arc::clone(&engine);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                barrier.wait();
                let program = slow_program(100 + t as u64);
                engine.compile(&program).expect("compile must succeed");
            });
        }
    });
    let stats = engine.stats();
    assert_eq!(stats.misses, threads as u64);
    assert_eq!(stats.coalesced_waits, 0);
    assert_eq!(stats.entries, threads);
}

/// Stats stay within their documented invariants while requests hammer the
/// engine from many threads: every snapshot taken mid-flight keeps
/// `hit_rate` in `[0, 1]` and `entries <= capacity`.
#[test]
fn stats_snapshots_stay_coherent_under_load() {
    let engine = Arc::new(Engine::new(4));
    let snapshots_bad = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                for i in 0..50u64 {
                    // More structures than capacity: constant eviction
                    // churn while snapshots are taken.
                    let program = vec![
                        rot("ZZII", 0.01 * (t * 50 + i) as f64),
                        rot(
                            ["XXII", "YYII", "XYZI", "ZXYI", "IYZX", "IZZY"][(i % 6) as usize],
                            0.3,
                        ),
                    ];
                    engine.compile(&program).unwrap();
                }
            });
        }
        for _ in 0..2 {
            let engine = Arc::clone(&engine);
            let snapshots_bad = Arc::clone(&snapshots_bad);
            scope.spawn(move || {
                for _ in 0..500 {
                    let stats = engine.stats();
                    let rate = stats.hit_rate();
                    if !(0.0..=1.0).contains(&rate)
                        || stats.entries > stats.capacity
                        || stats.hits + stats.misses < stats.coalesced_waits
                    {
                        snapshots_bad.fetch_add(1, Ordering::Relaxed);
                    }
                    std::hint::spin_loop();
                }
            });
        }
    });
    assert_eq!(snapshots_bad.load(Ordering::Relaxed), 0);
    let stats = engine.stats();
    assert_eq!(stats.hits + stats.misses, 200);
    assert!(stats.entries <= stats.capacity);
}
