//! Allocation gate for a warm `compile` frame's path to its template.
//!
//! The server reads a `compile` frame with one scan that builds no JSON
//! tree, no `String` and no Pauli string per axis: the angles go into one
//! vector, the axis signs into another and every axis's X/Z words into a
//! third, which the fingerprint is hashed from. So going from the frame's bytes
//! to a template hit allocates the same small number of times whatever the
//! program's length. A counting global allocator makes this a deterministic
//! check. This binary holds a single test so nothing else allocates while it
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::f64::consts::PI;
use std::sync::atomic::{AtomicUsize, Ordering};

use quclear_engine::Engine;
use quclear_pauli::SignedPauli;
use quclear_serve::protocol::ScannedRequest;
use quclear_serve::{Request, RequestKind};
use quclear_workloads::{Benchmark, Molecule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Passes every request to the system allocator and counts the ones that
/// obtain memory (`alloc`, `alloc_zeroed`, `realloc`).
struct CountingAllocator;

// ordering: a plain event counter with no cross-cell invariant; the test
// reads it on the thread that did the counted work.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations the scan may make: the angle, sign and word vectors, with
/// headroom.
const MAX_SCAN_ALLOCATIONS: usize = 4;

/// Allocations from a warm `compile` frame of `benchmark` (full-precision
/// angles) to its template hit, and the program's axis count.
fn frame_to_hit_allocations(benchmark: Benchmark) -> (usize, usize) {
    let program = benchmark.rotations();
    let mut rng = StdRng::seed_from_u64(5);
    let frame = Request {
        id: 3,
        kind: RequestKind::Compile {
            program: program.iter().map(|r| r.pauli().to_string()).collect(),
            angles: program.iter().map(|_| rng.gen_range(-PI..PI)).collect(),
        },
    }
    .encode();
    let engine = Engine::new(4);
    let axes: Vec<SignedPauli> = program
        .iter()
        .map(|r| SignedPauli::positive(r.pauli().clone()))
        .collect();
    let compiled = engine.template(&axes).unwrap();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let scanned = ScannedRequest::scan(&frame).expect("the frame takes the scan");
    let template = engine.cached_template(&scanned.fingerprint(engine.config()));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let template = template.expect("the scan's fingerprint hits the template");
    assert!(std::sync::Arc::ptr_eq(&template, &compiled));
    (allocations, program.len())
}

#[test]
fn a_warm_frame_reaches_its_template_in_constant_allocations() {
    let (h2o, h2o_axes) = frame_to_hit_allocations(Benchmark::Molecule(Molecule::H2O));
    let (ucc, ucc_axes) = frame_to_hit_allocations(Benchmark::Ucc(6, 12));
    println!("frame to hit: {h2o} allocations for {h2o_axes} axes, {ucc} for {ucc_axes}");
    assert!(
        ucc <= MAX_SCAN_ALLOCATIONS,
        "UCC-(6,12)'s frame made {ucc} allocations on its way to the template \
         (budget {MAX_SCAN_ALLOCATIONS})"
    );
    assert_eq!(
        h2o, ucc,
        "the allocation count must not grow with the program's length"
    );
}
