//! Allocation gate for a warm template bind.
//!
//! A bind patches the template's skeleton and copies its extracted
//! Clifford, and nothing else: no tableau, no per-qubit state. So a warm
//! bind makes the same small number of heap allocations whatever the
//! register size. A counting global allocator makes this a deterministic
//! check, unlike a timing smoke. This binary holds a single test so nothing
//! else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use quclear_engine::Engine;
use quclear_workloads::{qaoa_grid_sweep, Graph};

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

/// Allocations one warm bind may make: the patched skeleton's gate list
/// and the extracted Clifford's copy, with headroom.
const MAX_BIND_ALLOCATIONS: usize = 4;

/// Allocations of one warm `CompiledTemplate::bind` of a one-layer MaxCut
/// QAOA point on a seeded `degree`-regular graph of `n` vertices.
fn warm_bind_allocations(n: usize, degree: usize) -> usize {
    let sweep = qaoa_grid_sweep(&Graph::regular(n, degree, 0x51CA), &[0.9], &[0.5]);
    let angles = &sweep.angle_sets[0];
    let engine = Engine::new(4);
    let template = engine.template_for(&sweep.program).unwrap();
    let warm = template.bind(angles).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let bound = template.bind(angles).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(bound.optimized.gates(), warm.optimized.gates());
    assert_eq!(bound.extracted.num_qubits(), n);
    allocations
}

#[test]
fn warm_bind_allocations_are_bounded_and_independent_of_the_register() {
    let small = warm_bind_allocations(8, 3);
    let large = warm_bind_allocations(20, 8);
    println!("warm bind allocations: {small} at n = 8, {large} at MaxCut-(n20, r8)");
    assert!(
        large <= MAX_BIND_ALLOCATIONS,
        "a warm MaxCut-(n20, r8) bind made {large} allocations (budget {MAX_BIND_ALLOCATIONS})"
    );
    assert_eq!(
        small, large,
        "a warm bind's allocation count must not grow with the register"
    );
}
