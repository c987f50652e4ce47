//! Single-flight request coalescing.
//!
//! A long-running service in front of the template cache sees *thundering
//! herds*: when N clients ask for the same uncached structure at once, each
//! of them misses and each runs the full (expensive) extraction, even though
//! the first result would have served all of them. [`SingleFlight`] closes
//! that window: the first caller for a key becomes the **leader** and runs
//! the computation; every concurrent caller with the same key parks on a
//! condvar and receives a clone of the leader's result. Keys for *different*
//! values never wait on each other.
//!
//! # Robustness
//!
//! The failure mode that matters for a long-running process is a leader that
//! never completes — it panicked, or its thread was torn down — leaving
//! waiters parked forever. Every leader therefore registers a completion
//! guard: if the computation unwinds, the guard (running during the unwind)
//! marks the flight *abandoned* and wakes all waiters, which then retry and
//! elect a new leader among themselves. No panic inside the computed closure
//! can strand a waiter, and the panic itself propagates unchanged to the
//! leader's caller (the engine wraps compilations in `contain_panics`, so in
//! practice the closure returns `Err` instead of unwinding).
//!
//! Errors are shared like successes: if the leader's computation returns a
//! value at all (including an `Err` wrapped in the value type), waiters get
//! a clone. Negative results are *not* remembered once the flight closes —
//! the next request for the key starts a fresh flight.

use crate::sync::{Arc, Condvar, Instant, Mutex, PoisonError};
use std::collections::HashMap;
use std::hash::Hash;

/// How a [`SingleFlight::run`] call obtained its value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// This call ran the computation itself.
    Led,
    /// This call waited for a concurrent leader and shares its result.
    Coalesced,
}

/// State of one in-flight computation.
enum FlightState<V> {
    /// The leader is still computing.
    Running,
    /// The leader finished; waiters clone this value.
    Done(V),
    /// The leader unwound without producing a value; waiters must retry.
    Abandoned,
}

/// How one parked wait on a flight resolved.
enum WaitOutcome<V> {
    /// The leader finished; here is a clone of its value.
    Done(V),
    /// The leader unwound; the waiter should retry (and may lead).
    Abandoned,
    /// The waiter's deadline passed while the leader was still computing;
    /// the waiter detached. The flight itself is unaffected — the leader
    /// keeps computing and will still serve any waiter with more budget.
    Detached,
}

/// One in-flight computation: its state plus the condvar waiters park on.
struct Flight<V> {
    state: Mutex<FlightState<V>>,
    done: Condvar,
}

/// Coalesces concurrent computations of the same key into one execution.
///
/// Values must be [`Clone`] (waiters receive clones of the leader's result);
/// in the engine the value is `Result<Arc<CompiledTemplate>, EngineError>`,
/// so a clone is two refcount bumps.
pub struct SingleFlight<K, V> {
    inflight: Mutex<HashMap<K, Arc<Flight<V>>>>,
}

impl<K, V> Default for SingleFlight<K, V> {
    fn default() -> Self {
        SingleFlight {
            inflight: Mutex::new(HashMap::new()),
        }
    }
}

impl<K, V> SingleFlight<K, V>
where
    K: Eq + Hash + Clone,
    V: Clone,
{
    /// Creates an empty coalescer.
    #[must_use]
    pub fn new() -> Self {
        SingleFlight::default()
    }

    /// Number of keys currently in flight (diagnostics).
    pub fn in_flight(&self) -> usize {
        self.lock_inflight().len()
    }

    /// Runs `compute` for `key`, coalescing with any concurrent call.
    ///
    /// Exactly one concurrent caller per key executes `compute` (the one
    /// returning [`Role::Led`]); the others block until it finishes and
    /// return a clone of its value with [`Role::Coalesced`]. If the leader
    /// panics, its waiters elect a new leader among themselves instead of
    /// hanging, and the panic propagates to the original leader's caller.
    ///
    /// A **waiter** whose `deadline` passes while the leader is still
    /// computing detaches and returns `None` instead of parking forever
    /// behind a slow flight. The flight itself is unaffected — the leader
    /// runs to completion and its result still serves every waiter with
    /// more budget (and, in the engine, still populates the template cache).
    /// `deadline: None` waits unboundedly, so the call always returns `Some`.
    ///
    /// A caller that *leads* is never interrupted: the computation is not
    /// preemptible, so leaders always return `Some` (callers wanting a
    /// pre-flight budget check should make it inside `compute`, where a
    /// fail-fast value is shared with the waiters like any other result).
    pub fn run(
        &self,
        key: &K,
        deadline: Option<Instant>,
        compute: impl FnOnce() -> V,
    ) -> Option<(V, Role)> {
        // `Option` because the loop can only consume the closure once: every
        // leading iteration returns, so retries after an abandoned flight
        // still hold the un-run closure.
        let mut compute = Some(compute);
        loop {
            let flight = {
                let mut inflight = self.lock_inflight();
                if let Some(existing) = inflight.get(key) {
                    Arc::clone(existing)
                } else {
                    let flight = Arc::new(Flight {
                        state: Mutex::new(FlightState::Running),
                        done: Condvar::new(),
                    });
                    inflight.insert(key.clone(), Arc::clone(&flight));
                    drop(inflight);
                    let compute = compute.take().expect("leading consumes the closure once");
                    return Some((self.lead(key, &flight, compute), Role::Led));
                }
            };
            match Self::wait(&flight, deadline) {
                WaitOutcome::Done(value) => return Some((value, Role::Coalesced)),
                WaitOutcome::Detached => return None,
                // The leader unwound without a value; loop and try to lead.
                WaitOutcome::Abandoned => {}
            }
        }
    }

    /// Leader path: run the computation under a completion guard so that
    /// waiters are released even if `compute` unwinds.
    fn lead(&self, key: &K, flight: &Arc<Flight<V>>, compute: impl FnOnce() -> V) -> V {
        let guard = CompletionGuard {
            owner: self,
            key,
            flight,
            completed: false,
        };
        let value = compute();
        guard.complete(FlightState::Done(value.clone()));
        value
    }

    /// Waiter path: park until the flight resolves, the leader abandons it,
    /// or `deadline` passes (checked against the wall clock on every wake,
    /// so spurious condvar wakeups cannot extend the wait).
    fn wait(flight: &Flight<V>, deadline: Option<Instant>) -> WaitOutcome<V> {
        let mut state = flight.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match &*state {
                FlightState::Running => match deadline {
                    None => {
                        state = flight
                            .done
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    Some(at) => {
                        let now = Instant::now();
                        if now >= at {
                            return WaitOutcome::Detached;
                        }
                        let (guard, _timed_out) = flight
                            .done
                            .wait_timeout(state, at - now)
                            .unwrap_or_else(PoisonError::into_inner);
                        state = guard;
                    }
                },
                FlightState::Done(value) => return WaitOutcome::Done(value.clone()),
                FlightState::Abandoned => return WaitOutcome::Abandoned,
            }
        }
    }

    /// Removes `key` from the in-flight table and resolves `flight`.
    fn finish(&self, key: &K, flight: &Flight<V>, resolution: FlightState<V>) {
        self.lock_inflight().remove(key);
        let mut state = flight.state.lock().unwrap_or_else(PoisonError::into_inner);
        *state = resolution;
        drop(state);
        flight.done.notify_all();
    }

    /// The in-flight table, recovering from poisoning: the map holds only
    /// `Arc`s and every mutation is a single `insert`/`remove`, so it is
    /// structurally valid at every panic point.
    fn lock_inflight(&self) -> crate::sync::MutexGuard<'_, HashMap<K, Arc<Flight<V>>>> {
        self.inflight.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Marks the flight abandoned if the leader's computation unwinds before
/// [`CompletionGuard::complete`] runs.
struct CompletionGuard<'a, K: Eq + Hash + Clone, V: Clone> {
    owner: &'a SingleFlight<K, V>,
    key: &'a K,
    flight: &'a Arc<Flight<V>>,
    completed: bool,
}

impl<K: Eq + Hash + Clone, V: Clone> CompletionGuard<'_, K, V> {
    fn complete(mut self, resolution: FlightState<V>) {
        self.owner.finish(self.key, self.flight, resolution);
        self.completed = true;
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Drop for CompletionGuard<'_, K, V> {
    fn drop(&mut self) {
        if !self.completed {
            self.owner
                .finish(self.key, self.flight, FlightState::Abandoned);
        }
    }
}

impl<K, V> std::fmt::Debug for SingleFlight<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let len = self
            .inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len();
        f.debug_struct("SingleFlight")
            .field("in_flight", &len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn sequential_calls_each_lead() {
        let sf: SingleFlight<u32, u32> = SingleFlight::new();
        let (v, role) = sf.run(&1, None, || 10).unwrap();
        assert_eq!((v, role), (10, Role::Led));
        // The flight closed; a second call recomputes.
        let (v, role) = sf.run(&1, None, || 11).unwrap();
        assert_eq!((v, role), (11, Role::Led));
        assert_eq!(sf.in_flight(), 0);
    }

    #[test]
    fn concurrent_same_key_runs_once() {
        let sf: Arc<SingleFlight<u32, u64>> = Arc::new(SingleFlight::new());
        let computed = Arc::new(AtomicUsize::new(0));
        let threads = 8;
        let barrier = Arc::new(Barrier::new(threads));
        let mut led = 0;
        let mut coalesced = 0;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let sf = Arc::clone(&sf);
                    let computed = Arc::clone(&computed);
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        sf.run(&7, None, || {
                            computed.fetch_add(1, Ordering::SeqCst);
                            // Hold the flight open long enough for the other
                            // threads to park on it.
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            42u64
                        })
                        .unwrap()
                    })
                })
                .collect();
            for handle in handles {
                let (value, role) = handle.join().unwrap();
                assert_eq!(value, 42);
                match role {
                    Role::Led => led += 1,
                    Role::Coalesced => coalesced += 1,
                }
            }
        });
        // Coalescing is best-effort under scheduling, but with the leader
        // sleeping 50ms while all threads start together, every other thread
        // must have joined its flight.
        assert_eq!(computed.load(Ordering::SeqCst), 1);
        assert_eq!(led, 1);
        assert_eq!(coalesced, threads - 1);
        assert_eq!(sf.in_flight(), 0);
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let sf: Arc<SingleFlight<u32, u32>> = Arc::new(SingleFlight::new());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u32)
                .map(|k| {
                    let sf = Arc::clone(&sf);
                    scope.spawn(move || sf.run(&k, None, || k * 10).unwrap())
                })
                .collect();
            for (k, handle) in handles.into_iter().enumerate() {
                let (value, role) = handle.join().unwrap();
                assert_eq!(value, k as u32 * 10);
                assert_eq!(role, Role::Led);
            }
        });
    }

    #[test]
    fn errors_are_shared_not_cached() {
        let sf: SingleFlight<u32, Result<u32, String>> = SingleFlight::new();
        let (v, _) = sf.run(&1, None, || Err("boom".to_string())).unwrap();
        assert_eq!(v, Err("boom".to_string()));
        // The flight closed with the error; the next call recomputes.
        let (v, role) = sf.run(&1, None, || Ok(5)).unwrap();
        assert_eq!((v, role), (Ok(5), Role::Led));
    }

    #[test]
    fn deadline_waiter_detaches_while_flight_completes() {
        let sf: Arc<SingleFlight<u32, u32>> = Arc::new(SingleFlight::new());
        let barrier = Arc::new(Barrier::new(2));
        std::thread::scope(|scope| {
            let leader = {
                let sf = Arc::clone(&sf);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    sf.run(&5, None, || {
                        barrier.wait();
                        // Outlive the waiter's deadline by a wide margin.
                        std::thread::sleep(std::time::Duration::from_millis(400));
                        77
                    })
                })
            };
            let waiter = {
                let sf = Arc::clone(&sf);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let deadline = Instant::now() + std::time::Duration::from_millis(50);
                    sf.run(&5, Some(deadline), || {
                        panic!("a waiter that detaches must never run the closure")
                    })
                })
            };
            assert!(
                waiter.join().unwrap().is_none(),
                "the waiter must detach at its deadline"
            );
            // The leader was unaffected by the detach.
            assert_eq!(leader.join().unwrap(), Some((77, Role::Led)));
        });
        assert_eq!(sf.in_flight(), 0);
    }

    #[test]
    fn expired_deadline_still_leads_an_uncontended_flight() {
        // Leaders are never interrupted: with no flight to wait on, the
        // caller leads regardless of its deadline (budget checks belong
        // inside the computation).
        let sf: SingleFlight<u32, u32> = SingleFlight::new();
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let outcome = sf.run(&9, Some(past), || 13);
        assert_eq!(outcome, Some((13, Role::Led)));
        assert_eq!(sf.in_flight(), 0);
    }

    #[test]
    fn panicking_leader_releases_waiters() {
        let sf: Arc<SingleFlight<u32, u32>> = Arc::new(SingleFlight::new());
        let barrier = Arc::new(Barrier::new(2));
        std::thread::scope(|scope| {
            let leader = {
                let sf = Arc::clone(&sf);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        sf.run(&3, None, || {
                            barrier.wait();
                            // Give the waiter time to park on the flight.
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            panic!("leader dies");
                        })
                    }))
                })
            };
            let waiter = {
                let sf = Arc::clone(&sf);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    // Arrive while the leader is (most likely) mid-flight;
                    // either way the call must complete, not hang.
                    sf.run(&3, None, || 99).unwrap()
                })
            };
            assert!(leader.join().unwrap().is_err(), "leader must panic");
            let (value, _) = waiter.join().unwrap();
            assert_eq!(value, 99, "waiter must re-lead after the abandon");
        });
        assert_eq!(sf.in_flight(), 0);
    }
}
