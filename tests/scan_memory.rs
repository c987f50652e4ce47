//! Memory gate for the warm-path frame scan.
//!
//! `ScannedRequest::scan` keeps the angles, the axis signs and the axes'
//! X/Z words of the frame it reads. What it reserves must be bounded by
//! the frame's length, not by a count another field announced: a `sweep`
//! whose program comes first must not reserve one program's worth of
//! angles for every set, or a small frame of many empty or short sets would
//! ask for memory that grows with the square of its length. A global allocator
//! that counts live bytes makes this a deterministic check: the scan's peak
//! stays within a small multiple of the frame's length. This binary holds a
//! single test so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use quclear_serve::protocol::{ScannedAngles, ScannedRequest};
use quclear_serve::{Request, RequestKind};

/// Passes every request to the system allocator and tracks the bytes live
/// and their peak.
struct CountingAllocator;

// ordering: two plain byte counters with no cross-cell invariant; the test
// reads them on the thread that did the counted work.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters have no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the new block before the old one is released, as a moving
        // realloc holds both.
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The most bytes the scan may hold per frame byte. A sweep set of one
/// number (`[0],`, 4 bytes) costs one 24-byte slot in the set vector, which
/// grows by doubling (both blocks live while it moves), plus its own
/// 8-byte number.
const MAX_BYTES_PER_FRAME_BYTE: usize = 32;

/// The scan's peak live bytes while it reads `frame`, which it must take.
fn scan_peak(frame: &str) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let scanned = ScannedRequest::scan(frame.as_bytes());
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(scanned.is_some(), "the scan declined {:.80}…", frame);
    drop(scanned);
    peak
}

/// A `sweep` frame whose program (listed first) has `axes` one-qubit axes,
/// followed by `sets` copies of `set`.
fn sweep_frame(axes: usize, set: &str, sets: usize) -> String {
    let program = vec![r#""Z""#; axes].join(",");
    let sets = vec![set; sets].join(",");
    format!(r#"{{"id":1,"kind":"sweep","program":[{program}],"angle_sets":[{sets}]}}"#)
}

#[test]
fn the_scan_holds_memory_linear_in_the_frame() {
    let frames = [
        // A long program read before many empty and one-number sets: the
        // axis count may size no more numbers than the frame holds.
        sweep_frame(1_000, "[]", 10_000),
        sweep_frame(1_000, "[0]", 8_000),
        // The sets before the program, sized from their own commas.
        format!(
            r#"{{"id":1,"kind":"sweep","angle_sets":[{}],"program":["Z"]}}"#,
            vec!["[0]"; 8_000].join(",")
        ),
        // Many one-qubit axes, the most words and signs per frame byte.
        sweep_frame(20_000, "[0.5]", 1),
        // A wide program and its angles.
        format!(
            r#"{{"id":1,"kind":"compile","program":[{}],"angles":[{}]}}"#,
            vec![format!("\"{}\"", "XZ".repeat(512)); 40].join(","),
            vec!["-0.25"; 40].join(",")
        ),
    ];
    for frame in &frames {
        let peak = scan_peak(frame);
        let bound = MAX_BYTES_PER_FRAME_BYTE * frame.len();
        println!("{} frame bytes: scan peak {peak} bytes", frame.len());
        assert!(
            peak <= bound,
            "scanning a {}-byte frame held {peak} bytes (bound {bound})",
            frame.len()
        );
        // Whichever way a set was sized, it holds the tree's numbers.
        let scanned = ScannedRequest::scan(frame.as_bytes()).unwrap();
        let tree = Request::decode(frame.as_bytes()).unwrap();
        match (scanned.angles, tree.kind) {
            (ScannedAngles::Compile(angles), RequestKind::Compile { angles: tree, .. }) => {
                assert_eq!(angles, tree);
            }
            (ScannedAngles::Sweep(sets), RequestKind::Sweep { angle_sets, .. }) => {
                assert_eq!(sets, angle_sets);
            }
            (angles, kind) => panic!("the scan read {angles:?} where the tree read {kind:?}"),
        }
    }
}
