//! The zero-allocation invariant of the out-of-core chunk loop: once
//! the buffer pools are prewarmed and the reader/writer file handles are
//! open, streaming every chunk through read → compiled compute → write
//! performs no heap allocations at all — file IO goes straight between
//! the chunk files and pooled aligned buffers (no intermediate byte
//! vectors), gathered tiles reuse the staging list their executor
//! stocked when it was built, and the scatter path reuses pooled wire
//! buffers. A codec read stages one
//! frame, never a whole chunk file.
//!
//! Lives in its own integration-test binary because it installs a
//! counting `#[global_allocator]`. The counters are per thread, so the
//! tests of this binary, which run on parallel threads, do not see each
//! other's allocations; every test here keeps its work on its own thread
//! (one kernel thread, no pipeline).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qsim_circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim_compress::{FRAME_AMPS, FRAME_HEADER_LEN};
use qsim_core::dist::slots_to_top_permutation;
use qsim_core::single::strip_initial_hadamards;
use qsim_core::StageExecutor;
use qsim_kernels::apply::KernelConfig;
use qsim_kernels::SweepStats;
use qsim_ooc::{BufferPool, ChunkStore, Codec, ScratchDir};
use qsim_sched::{plan, SchedulerConfig};
use qsim_util::c64;
use qsim_util::complex::amps_as_bytes;
use qsim_util::rng::Xoshiro256;

struct CountingAlloc;

thread_local! {
    /// Allocations (and reallocations) this thread made.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// The largest of them since the last [`counted`] began, in bytes.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    LARGEST.with(|m| m.set(m.get().max(size)));
}

/// What `f` returns, with the number of allocations this thread made
/// while it ran and the largest of them in bytes.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    LARGEST.with(|m| m.set(0));
    let out = f();
    let allocs = ALLOCATIONS.with(Cell::get) - before;
    (out, allocs, LARGEST.with(Cell::get))
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

    // A real stage off the planner, prepared twice at one thread (no pool
    // bookkeeping inside the loop) as the engine prepares it, for one
    // partition at a time: with a tile covering the whole chunk
    // (contiguous ⇒ zero-copy tiles), and with a 6-qubit tile, which the
    // clusters on qubits 6 and 7 make gathered ⇒ tiles staged through the
    // executor's staging list.
    let c = supremacy_circuit(&SupremacySpec {
        rows: 2,
        cols: 5,
        depth: 10,
        seed: 9,
    });
    let (exec, _) = strip_initial_hadamards(&c);
    let schedule = plan(&exec, &SchedulerConfig::distributed(L, 3));
    let kernel = KernelConfig::sequential();
    let stage = &schedule.stages[..1];
    let stages = [
        StageExecutor::new(stage, L, &kernel, Some(L), 1),
        StageExecutor::new(stage, L, &kernel, Some(6), 1),
    ];

    let dir = ScratchDir::new("alloc");
    let mut store = ChunkStore::create_uniform(dir.path(), L, G).unwrap();
    let mut chunk_pool = BufferPool::new(store.chunk_len());
    let mut wire_pool = BufferPool::new(piece);
    chunk_pool.prewarm(2);
    wire_pool.prewarm(2);
    let reader = store.reader(None).unwrap();
    let writer = store.writer(false);
    let stats = SweepStats::default();

    struct Loop<'a> {
        chunk_pool: &'a mut BufferPool,
        wire_pool: &'a mut BufferPool,
        reader: qsim_ooc::ChunkReader,
        writer: qsim_ooc::ChunkWriter,
        stats: SweepStats,
    }
    impl Loop<'_> {
        fn sweep(&mut self, n_chunks: usize, piece: usize, stages: &[StageExecutor]) -> u64 {
            let ((), allocs, _) = counted(|| {
                for c in 0..n_chunks {
                    let mut buf = self.chunk_pool.get();
                    self.reader.read_into(c, &mut buf, None).unwrap();
                    for exec in stages {
                        exec.apply(0..1, &mut buf, c, &mut self.stats);
                    }
                    self.writer.write_range(c, 0, &buf).unwrap();
                    for dst in 0..n_chunks {
                        let mut wire = self.wire_pool.get();
                        wire.copy_from_slice(&buf[dst * piece..(dst + 1) * piece]);
                        self.writer.write_range(dst, c * piece, &wire).unwrap();
                        self.wire_pool.put(wire);
                    }
                    self.chunk_pool.put(buf);
                }
            });
            allocs
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
    lp.sweep(n_chunks, piece, &stages);
    let allocs0 = lp.chunk_pool.allocs() + lp.wire_pool.allocs();

    let delta = (0..3)
        .map(|_| lp.sweep(n_chunks, piece, &stages))
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

/// A codec read streams its file. Reading an incompressible
/// 2^14-amplitude `shuffle-rle` chunk (four stored-raw frames), a cold
/// reader makes no allocation larger than one encoded frame, and a warm
/// one none at all — in file layout and through a swap's unpermute alike.
#[test]
fn codec_reads_stage_one_frame() {
    const L: u32 = 14;
    let len = 1usize << L;
    let frame_bytes = FRAME_AMPS * std::mem::size_of::<c64>() + FRAME_HEADER_LEN;
    let mut rng = Xoshiro256::seed_from_u64(44);
    let mut scalar = || f64::from_bits(rng.next_u64());
    let chunk: Vec<c64> = (0..len).map(|_| c64::new(scalar(), scalar())).collect();
    let dir = ScratchDir::new("alloc_codec");
    let mut store =
        ChunkStore::<f64>::create_empty_with(dir.path(), L, 0, Codec::ShuffleRle).unwrap();
    store.write_chunk_from(0, &chunk).unwrap();
    let written = store.stats();
    assert!(
        written.bytes_written > written.logical_bytes_written,
        "incompressible: every frame stored raw"
    );
    let p_inv = slots_to_top_permutation(&[0, 5, 9], L).inverse();
    for unpermute in [None, Some(&p_inv)] {
        let at = match unpermute {
            None => "in file layout",
            Some(_) => "permuted",
        };
        let mut out = vec![c64::zero(); len];
        let (mut reader, _, largest) = counted(|| {
            let mut reader = store.reader(unpermute).unwrap();
            reader.read_into(0, &mut out, None).unwrap();
            reader
        });
        assert!(
            largest <= frame_bytes,
            "{at}: a cold read allocated {largest} bytes at once, more than a frame's {frame_bytes}"
        );
        let ((), allocs, _) = counted(|| reader.read_into(0, &mut out, None).unwrap());
        assert_eq!(allocs, 0, "{at}: a warm read allocated");
        let mut want = vec![c64::zero(); len];
        for (y, &a) in chunk.iter().enumerate() {
            want[unpermute.map_or(y, |p| p.apply(y))] = a;
        }
        assert!(
            amps_as_bytes(&out) == amps_as_bytes(&want),
            "{at}: read back what was written"
        );
    }
}
