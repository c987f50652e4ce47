//! Allocation gate for Clifford extraction.
//!
//! Picking candidates and synthesizing CNOT trees run over reused scratch
//! buffers, so extracting a commuting block costs a bounded number of heap
//! allocations per rotation however large the block is. A counting global
//! allocator makes this a deterministic check, unlike a timing smoke. This
//! binary holds a single test so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use quclear_core::{extract_clifford, ExtractionConfig};
use quclear_pauli::{PauliOp, PauliRotation, PauliString};

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

const QUBITS: usize = 12;
const ROTATIONS: usize = 128;
const MAX_ALLOCATIONS_PER_ROTATION: usize = 4;

/// One commuting block: `ROTATIONS` distinct seeded Z-strings on `QUBITS`
/// qubits, so `find_next_pauli` picks among every remaining candidate.
fn z_block() -> Vec<PauliRotation> {
    let mut state = 0x51CA_u64;
    let mut masks = Vec::new();
    while masks.len() < ROTATIONS {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let mask = (state >> 33) as usize % (1 << QUBITS);
        if mask != 0 && !masks.contains(&mask) {
            masks.push(mask);
        }
    }
    masks
        .iter()
        .enumerate()
        .map(|(i, &mask)| {
            let mut pauli = PauliString::identity(QUBITS);
            for q in (0..QUBITS).filter(|q| (mask >> q) & 1 == 1) {
                pauli.set_op(q, PauliOp::Z);
            }
            PauliRotation::new(pauli, 0.05 + 0.01 * i as f64)
        })
        .collect()
}

#[test]
fn extraction_allocations_per_rotation_are_bounded() {
    let rotations = z_block();
    let config = ExtractionConfig::default();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = extract_clifford(&rotations, &config);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(result.optimized.cnot_count() > 0);
    let per_rotation = allocations / ROTATIONS;
    assert!(
        per_rotation <= MAX_ALLOCATIONS_PER_ROTATION,
        "extracting a {ROTATIONS}-rotation block made {allocations} allocations \
         ({per_rotation} per rotation, budget {MAX_ALLOCATIONS_PER_ROTATION})"
    );
    println!("{allocations} allocations, {per_rotation} per rotation");
}
