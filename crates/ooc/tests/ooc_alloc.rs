//! The zero-allocation invariant of the out-of-core chunk loop: once
//! the buffer pools are prewarmed and the reader/writer file handles are
//! open, streaming every chunk through read → compiled compute → write
//! performs no heap allocations at all — file IO goes straight between
//! the chunk files and pooled aligned buffers (no intermediate byte
//! vectors), and the scatter path reuses pooled wire buffers.
//!
//! Lives in its own integration-test binary because it installs a
//! counting `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use qsim_circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim_core::single::strip_initial_hadamards;
use qsim_core::{compile_stage, execute_compiled_stage};
use qsim_kernels::apply::KernelConfig;
use qsim_kernels::SweepStats;
use qsim_ooc::{BufferPool, ChunkStore, ScratchDir};
use qsim_sched::{plan, SchedulerConfig};

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
fn steady_state_chunk_loop_does_not_allocate() {
    const L: u32 = 8;
    const G: u32 = 2;
    let n_chunks = 1usize << G;
    let piece = (1usize << L) >> G;

    // A real stage off the planner, compiled with a tile covering the
    // whole chunk (contiguous ⇒ the tiled pass needs no gather scratch)
    // at one thread (no pool bookkeeping inside the loop).
    let c = supremacy_circuit(&SupremacySpec {
        rows: 2,
        cols: 5,
        depth: 10,
        seed: 9,
    });
    let (exec, _) = strip_initial_hadamards(&c);
    let schedule = plan(&exec, &SchedulerConfig::distributed(L, 3));
    let kernel = KernelConfig::sequential();
    let stage = compile_stage(&schedule.stages[0].ops, L, &kernel, L);

    let dir = ScratchDir::new("alloc");
    let mut store = ChunkStore::create_uniform(dir.path(), L, G).unwrap();
    let mut chunk_pool = BufferPool::new(store.chunk_len());
    let mut wire_pool = BufferPool::new(piece);
    chunk_pool.prewarm(2);
    wire_pool.prewarm(2);
    let reader = store.reader().unwrap();
    let writer = store.writer();
    let stats = SweepStats::default();

    struct Loop<'a> {
        chunk_pool: &'a mut BufferPool,
        wire_pool: &'a mut BufferPool,
        reader: qsim_ooc::ChunkReader,
        writer: qsim_ooc::ChunkWriter,
        stats: SweepStats,
    }
    impl Loop<'_> {
        fn sweep(
            &mut self,
            n_chunks: usize,
            piece: usize,
            stage: &qsim_core::CompiledStage,
        ) -> u64 {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            for c in 0..n_chunks {
                let mut buf = self.chunk_pool.get();
                self.reader.read_into(c, &mut buf).unwrap();
                execute_compiled_stage(&mut buf, stage, c, 1, &mut self.stats);
                self.writer.write_range(c, 0, &buf).unwrap();
                for dst in 0..n_chunks {
                    let mut wire = self.wire_pool.get();
                    wire.copy_from_slice(&buf[dst * piece..(dst + 1) * piece]);
                    self.writer.write_range(dst, c * piece, &wire).unwrap();
                    self.wire_pool.put(wire);
                }
                self.chunk_pool.put(buf);
            }
            ALLOCATIONS.load(Ordering::SeqCst) - before
        }
    }
    let mut lp = Loop {
        chunk_pool: &mut chunk_pool,
        wire_pool: &mut wire_pool,
        reader,
        writer,
        stats,
    };

    // One warm-up traversal: first use opens the lazy writer file
    // handles and settles any one-time kernel state.
    lp.sweep(n_chunks, piece, &stage);
    let allocs0 = lp.chunk_pool.allocs() + lp.wire_pool.allocs();

    let delta = (0..3)
        .map(|_| lp.sweep(n_chunks, piece, &stage))
        .sum::<u64>();
    assert_eq!(
        delta, 0,
        "steady-state chunk loop performed {delta} heap allocations across 3 traversals"
    );
    // And the pools never missed: every buffer came from prewarm.
    assert_eq!(lp.chunk_pool.allocs() + lp.wire_pool.allocs() - allocs0, 0);

    let (rs, ws) = (lp.reader.stats(), lp.writer.stats());
    store.absorb(&rs);
    store.absorb(&ws);
    assert!(store.stats().bytes_read > 0);
}
