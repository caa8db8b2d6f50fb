//! Allocation discipline of the telemetry layer, checked with a counting
//! `#[global_allocator]` (same pattern as the swap and OOC alloc tests):
//!
//! * a **disabled** handle performs *zero* heap allocations per span —
//!   the no-op path must stay free for always-on instrumentation;
//! * an **enabled** handle reaches an allocation-free steady state: after
//!   the ring is created and the histogram entry exists, recording spans
//!   (including `span_timed`) touches only pre-allocated storage.
//!
//! Lives in its own integration-test binary because it installs a global
//! allocator. The counter is process-wide, so both checks run inside ONE
//! `#[test]`: as two tests on parallel threads, one's warm-up allocations
//! landed in the other's measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use qsim_telemetry::Telemetry;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn span_recording_does_not_allocate() {
    disabled_spans_never_allocate();
    enabled_spans_reach_allocation_free_steady_state();
}

fn disabled_spans_never_allocate() {
    let t = Telemetry::disabled();
    let track = t.track("off");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..10_000u64 {
        let _outer = track.span("outer");
        let _inner = track.span_timed("inner", i, "swap_ns");
        t.record_duration_ns("swap_ns", i);
    }
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(delta, 0, "disabled telemetry allocated {delta} times");
}

fn enabled_spans_reach_allocation_free_steady_state() {
    let t = Telemetry::enabled();
    let track = t.track("hot");

    // Warm-up: creates the ring's spine lazily if any, and the histogram
    // entry in the registry (one String + one Histogram box).
    for i in 0..64u64 {
        let _s = track.span_timed("warm", i, "stage_apply_ns");
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..10_000u64 {
        let _outer = track.span_id("stage", i);
        let _inner = track.span_timed("apply", i, "stage_apply_ns");
    }
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        delta, 0,
        "steady-state span recording allocated {delta} times"
    );
}
