//! Schedule-exhaustive models for the engine's concurrency primitives.
//!
//! Built only with `--features sched-model`: `engine::sync` routes
//! `Mutex`/`Condvar`/`RwLock`/atomics/`Instant` through the `quclear-sched`
//! deterministic scheduler, so these tests explore thread interleavings
//! exhaustively (bounded DFS, including timed condvar waits driven by a
//! virtual clock) instead of sampling whatever the OS happens to produce.
//! Run with:
//!
//! ```text
//! cargo test -p quclear-engine --features sched-model --test sched_models
//! ```

use std::time::Duration;

use quclear_engine::singleflight::Role;
use quclear_engine::{LruCache, SingleFlight};
use quclear_sched::sync::atomic::{AtomicU64, Ordering};
use quclear_sched::sync::Arc;
use quclear_sched::time::Instant;
use quclear_sched::{thread, Explorer};

/// A leader that panics mid-computation must never strand its waiter: in
/// every interleaving the waiter completes (re-leading after the abandon if
/// it had parked), the panic stays contained to the leader's caller, and the
/// in-flight table drains to empty.
#[test]
fn singleflight_panicking_leader_never_strands_waiter() {
    let report = Explorer::dfs().check(|| {
        let sf: Arc<SingleFlight<u32, u32>> = Arc::new(SingleFlight::new());
        let sf2 = Arc::clone(&sf);
        let leader = thread::spawn(move || {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sf2.run(&3, None, || -> u32 { panic!("leader dies") })
            }));
            match caught {
                // Led: the closure ran, the panic propagated to this caller.
                Err(_) => {}
                // Arrived while the other call's flight was open: coalesced
                // onto it, so the panicking closure never ran.
                Ok(Some((v, Role::Coalesced))) => assert_eq!(v, 99),
                Ok(Some((_, Role::Led))) => panic!("leading must run the panicking closure"),
                Ok(None) => panic!("an unbounded wait cannot detach"),
            }
        });
        // Whatever the schedule — before the leader, parked on its flight,
        // or after the abandon — this call must complete with 99.
        let (value, _role) = sf
            .run(&3, None, || 99)
            .expect("an unbounded wait cannot detach");
        assert_eq!(value, 99, "only the non-panicking closure produces a value");
        leader.join().unwrap();
        assert_eq!(sf.in_flight(), 0, "no flight may outlive its callers");
    });
    report.assert_passed();
    assert!(report.exhausted, "bounded DFS space fully enumerated");
    eprintln!(
        "singleflight panicking-leader model: {} interleavings explored",
        report.schedules
    );
}

/// Hit/miss accounting around a bounded `run`, mirroring the discipline
/// `Engine::template` uses: a led call counts a miss (inside the closure),
/// a coalesced call counts a hit then bumps the coalesced counter with
/// `Release`, and a *detached* waiter counts a miss. The
/// invariants: every lookup is accounted exactly once (`hits + misses ==
/// lookups` after the dust settles), and a stats-order reader (coalesced
/// first with `Acquire`) never observes `coalesced > hits`.
#[test]
fn singleflight_detach_keeps_hit_miss_accounting() {
    struct Counters {
        hits: AtomicU64,
        misses: AtomicU64,
        coalesced: AtomicU64,
    }

    fn lookup(sf: &SingleFlight<u32, u32>, c: &Counters, deadline: Option<Instant>) {
        match sf.run(&1, deadline, || {
            c.misses.fetch_add(1, Ordering::Relaxed);
            42
        }) {
            // Detached at the deadline: the engine counts it as a miss
            // (the caller got no template from the cache or the flight).
            None => {
                c.misses.fetch_add(1, Ordering::Relaxed);
            }
            // The closure already counted the miss.
            Some((_, Role::Led)) => {}
            Some((_, Role::Coalesced)) => {
                c.hits.fetch_add(1, Ordering::Relaxed);
                // ordering: Release pairs with the stats reader's Acquire so
                // a snapshot that sees this coalesced wait also sees its hit.
                c.coalesced.fetch_add(1, Ordering::Release);
            }
        }
    }

    let report = Explorer::dfs().max_schedules(60_000).check(|| {
        let sf: Arc<SingleFlight<u32, u32>> = Arc::new(SingleFlight::new());
        let counters = Arc::new(Counters {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        });
        let (sf1, c1) = (Arc::clone(&sf), Arc::clone(&counters));
        let unbounded = thread::spawn(move || lookup(&sf1, &c1, None));
        let (sf2, c2) = (Arc::clone(&sf), Arc::clone(&counters));
        let bounded = thread::spawn(move || {
            // One millisecond of virtual time: DFS explores both the
            // timeout firing (detach) and the leader finishing first.
            let deadline = Instant::now() + Duration::from_millis(1);
            lookup(&sf2, &c2, Some(deadline));
        });
        // Stats-order reader, concurrent with both lookups: coalesced is
        // read first (Acquire), so it can never exceed the hits read after.
        let coalesced_seen = counters.coalesced.load(Ordering::Acquire);
        let hits_seen = counters.hits.load(Ordering::Relaxed);
        assert!(
            coalesced_seen <= hits_seen,
            "snapshot saw coalesced={coalesced_seen} > hits={hits_seen}"
        );
        unbounded.join().unwrap();
        bounded.join().unwrap();
        let (h, m) = (
            counters.hits.load(Ordering::Relaxed),
            counters.misses.load(Ordering::Relaxed),
        );
        assert_eq!(h + m, 2, "2 lookups must be accounted exactly once each");
        assert!(counters.coalesced.load(Ordering::Relaxed) <= h);
        assert_eq!(sf.in_flight(), 0);
    });
    report.assert_passed();
    eprintln!(
        "singleflight detach-accounting model: {} interleavings explored",
        report.schedules
    );
}

/// Two racing inserts into a full cache: `len` never exceeds `capacity` at
/// any observed point, and the cache settles at exactly `capacity` once both
/// inserts finish — every interleaving.
#[test]
fn lru_cache_len_never_exceeds_capacity_mid_eviction() {
    let report = Explorer::dfs().check(|| {
        let cache: Arc<LruCache<u32, u32>> = Arc::new(LruCache::new(1));
        let (c1, c2) = (Arc::clone(&cache), Arc::clone(&cache));
        let a = thread::spawn(move || c1.insert(1, Arc::new(10)));
        let b = thread::spawn(move || c2.insert(2, Arc::new(20)));
        // Mid-flight: the length is read under the lock, so no in-progress
        // insert can push it past capacity.
        let mid = cache.len();
        assert!(
            mid <= cache.capacity(),
            "len {mid} exceeds capacity mid-eviction"
        );
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(
            cache.len(),
            1,
            "two inserts into a capacity-1 cache must evict exactly one entry"
        );
        // Exactly one of the keys survived.
        let survivors = [cache.get(&1).is_some(), cache.get(&2).is_some()];
        assert_eq!(survivors.iter().filter(|&&s| s).count(), 1);
    });
    report.assert_passed();
    eprintln!(
        "lru-cache eviction model: {} interleavings explored",
        report.schedules
    );
}
