//! The zero-allocation invariants of the in-memory engines between and
//! across stages: once the wire pools are warm and the permutation cache
//! is primed, a steady-state swap performs no heap allocations at all —
//! packing goes straight from the state slice into recycled wire buffers,
//! unpacking straight back — and once every partition has applied a
//! stage, applying it again allocates nothing either: gathered tiles
//! stage through the list the executor stocked when it was built.
//!
//! Lives in its own integration-test binary because it installs a
//! counting `#[global_allocator]`. The counter is process-global, so the
//! tests of this binary take turns ([`SERIAL`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use qsim_circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim_core::dist::{perform_swap, SwapBuffers};
use qsim_core::single::strip_initial_hadamards;
use qsim_core::{StageExecutor, StateVector};
use qsim_kernels::apply::KernelConfig;
use qsim_kernels::SweepStats;
use qsim_net::run_cluster;
use qsim_sched::{plan, SchedulerConfig, SwapOp};
use qsim_util::{c64, Xoshiro256};

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

/// Held by each test for its whole run, so one test's allocations never
/// land in another's window.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn steady_state_swaps_do_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    const G: u32 = 2;
    // Below the kernels' parallel threshold, so pack/unpack take the
    // sequential paths and no thread-pool bookkeeping runs in the loop.
    const L: u32 = 10;
    let p = 1usize << G;
    let slice = 1usize << L;
    let seg = slice / p;
    let depth = 2usize;
    let swap = SwapOp {
        local_slots: vec![0, 1],
    };

    let (deltas, stats) = run_cluster(p, |ctx| {
        let mut rng = Xoshiro256::seed_from_u64(0xa110c ^ ctx.rank() as u64);
        let amps: Vec<c64> = (0..slice)
            .map(|_| c64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
            .collect();
        let mut state = StateVector::from_amplitudes(amps);
        let mut bufs = SwapBuffers::new(Some(depth));
        // Worst-case wires in flight per owner: both rounds of one swap
        // posted before the peers drain round 0.
        ctx.prewarm_wire(seg / depth * 16, depth * (p - 1));
        // Warm-up: primes the permutation cache, the mailbox map
        // capacity, and confirms the prewarmed pool suffices.
        for _ in 0..3 {
            perform_swap(ctx, &mut state, &swap, L, &mut bufs);
            ctx.barrier();
        }
        // The counter is process-global, so a lazily-initialized runtime
        // structure anywhere in the process (another rank's thread-local,
        // an OS sync primitive's slow path) can fire one allocation into
        // an otherwise clean window. Measure several windows and keep the
        // best: the invariant is that the swap path itself allocates
        // nothing, so at least one window must be clean.
        let mut best = u64::MAX;
        for _ in 0..3 {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            for _ in 0..6 {
                perform_swap(ctx, &mut state, &swap, L, &mut bufs);
                ctx.barrier();
            }
            best = best.min(ALLOCATIONS.load(Ordering::SeqCst) - before);
        }
        best
    });

    for (rank, delta) in deltas.iter().enumerate() {
        assert_eq!(
            *delta, 0,
            "rank {rank} observed {delta} heap allocations across 6 steady-state swaps"
        );
    }
    // The wire pools never missed either: every buffer came from prewarm.
    assert_eq!(
        stats.wire_allocs, 0,
        "wire pool missed {} times despite prewarming",
        stats.wire_allocs
    );
}

#[test]
fn warm_gathered_passes_do_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    const L: u32 = 8;
    // A real stage off the planner at one kernel thread, with a 6-qubit
    // tile, which the clusters on qubits 6 and 7 make gathered: its tiles
    // stage through the executor's list.
    let c = supremacy_circuit(&SupremacySpec {
        rows: 2,
        cols: 5,
        depth: 10,
        seed: 9,
    });
    let n = c.n_qubits();
    let (circuit, _) = strip_initial_hadamards(&c);
    let schedule = plan(&circuit, &SchedulerConfig::distributed(L, 3));
    let stage = &schedule.stages[..1];
    let kernel = KernelConfig::sequential();

    // One partition, and four ranks applying one shared executor at once.
    for p in [1, 4] {
        let exec = StageExecutor::<f64>::new(stage, L, &kernel, Some(6), p);
        let (deltas, _) = run_cluster(p, |ctx| {
            let rank = ctx.rank();
            let mut state = StateVector::<f64>::uniform_slice(L, n);
            let mut stats = SweepStats::default();
            exec.apply(0..1, state.amplitudes_mut(), rank, &mut stats);
            ctx.barrier();
            // Best of several windows, as for the swaps above.
            let mut best = u64::MAX;
            for _ in 0..3 {
                let before = ALLOCATIONS.load(Ordering::SeqCst);
                for _ in 0..4 {
                    exec.apply(0..1, state.amplitudes_mut(), rank, &mut stats);
                    ctx.barrier();
                }
                best = best.min(ALLOCATIONS.load(Ordering::SeqCst) - before);
            }
            assert!(stats.sweep_passes > 0, "the stage ran compiled passes");
            best
        });
        for (rank, delta) in deltas.iter().enumerate() {
            assert_eq!(
                *delta, 0,
                "P = {p}: rank {rank} observed {delta} heap allocations across 4 warm applies"
            );
        }
    }
}
