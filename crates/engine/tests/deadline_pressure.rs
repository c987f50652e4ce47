//! Singleflight under deadline pressure (satellite coverage for the
//! overload-protection PR): a waiter whose leader outlives the waiter's
//! budget must detach with `DeadlineExceeded` — and the leader's eventual
//! result must still land in the template cache for later callers.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use quclear_engine::{Deadline, Engine, EngineError, ProgramFingerprint};
use quclear_pauli::PauliRotation;

fn rot(s: &str, angle: f64) -> PauliRotation {
    PauliRotation::parse(s, angle).unwrap()
}

fn program() -> Vec<PauliRotation> {
    vec![rot("ZZXY", 0.25), rot("YXIZ", -0.5), rot("XXYY", 1.0)]
}

#[test]
fn waiter_detaches_while_leader_still_populates_the_cache() {
    let engine = Arc::new(Engine::new(16));
    let rotations = program();
    let fingerprint = ProgramFingerprint::of_program(&rotations, engine.config());
    // Make the flight leader slow enough that a 150 ms waiter budget is
    // guaranteed to expire mid-flight.
    engine.inject_compile_delay(Some((fingerprint, Duration::from_millis(600))));

    let barrier = Arc::new(Barrier::new(2));
    std::thread::scope(|scope| {
        let leader = {
            let engine = Arc::clone(&engine);
            let rotations = rotations.clone();
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                barrier.wait();
                // Unbounded: rides out the injected delay and compiles.
                engine.compile(&rotations)
            })
        };
        let waiter = {
            let engine = Arc::clone(&engine);
            let rotations = rotations.clone();
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                barrier.wait();
                // Give the leader a head start so this thread coalesces onto
                // the in-flight compile instead of leading its own.
                std::thread::sleep(Duration::from_millis(100));
                let start = Instant::now();
                let result = engine
                    .with_deadline(Deadline::within(Duration::from_millis(150)))
                    .compile(&rotations);
                (result, start.elapsed())
            })
        };

        let (waiter_result, waited) = waiter.join().unwrap();
        assert_eq!(
            waiter_result.unwrap_err(),
            EngineError::DeadlineExceeded,
            "the bounded waiter must detach, not wait out the slow leader"
        );
        assert!(
            waited < Duration::from_millis(450),
            "the waiter detached at its deadline, not at flight completion (waited {waited:?})"
        );
        leader
            .join()
            .unwrap()
            .expect("the leader compiles normally");
    });
    engine.inject_compile_delay(None);

    // The detached waiter's abandonment did not disturb the flight: the
    // leader's template is cached, so a later bounded request is a pure hit
    // even with a zero budget.
    let before = engine.stats();
    engine
        .with_deadline(Deadline::within(Duration::from_millis(200)))
        .compile(&rotations)
        .expect("warm cache serves bounded requests");
    let after = engine.stats();
    assert_eq!(after.hits, before.hits + 1, "the retry must be a cache hit");
    assert_eq!(after.entries, 1);
}

#[test]
fn many_bounded_waiters_all_detach_without_poisoning_the_flight() {
    let engine = Arc::new(Engine::new(16));
    let rotations = program();
    let fingerprint = ProgramFingerprint::of_program(&rotations, engine.config());
    engine.inject_compile_delay(Some((fingerprint, Duration::from_millis(500))));

    const WAITERS: usize = 6;
    let barrier = Arc::new(Barrier::new(WAITERS + 1));
    std::thread::scope(|scope| {
        let leader = {
            let engine = Arc::clone(&engine);
            let rotations = rotations.clone();
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                barrier.wait();
                engine.compile(&rotations)
            })
        };
        let waiters: Vec<_> = (0..WAITERS)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let rotations = rotations.clone();
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    std::thread::sleep(Duration::from_millis(80));
                    engine
                        .with_deadline(Deadline::within(Duration::from_millis(120)))
                        .compile(&rotations)
                })
            })
            .collect();
        for waiter in waiters {
            assert_eq!(
                waiter.join().unwrap().unwrap_err(),
                EngineError::DeadlineExceeded
            );
        }
        leader.join().unwrap().expect("the leader is unaffected");
    });
    engine.inject_compile_delay(None);

    let stats = engine.stats();
    // Every lookup is accounted: the leader's miss plus one miss per
    // detached waiter; detached waiters never count as coalesced.
    assert_eq!(stats.misses, 1 + WAITERS as u64);
    assert!(
        stats.coalesced_waits <= stats.hits + stats.misses,
        "snapshot invariant must survive detaches"
    );
    // And the template is there for everyone afterwards.
    engine.compile(&rotations).unwrap();
    assert_eq!(engine.stats().hits, 1);
}
