//! Direct calls into each crate's public functions, and the ceilings the
//! harness measures itself in the same process.
//!
//! Everything here is "source (b)" or "source (c)" of the README's metric
//! table: nothing reads engine internals, and every bandwidth is computed
//! from array sizes (cache misses and write-allocate traffic ignored).

use qsim_compress::{decode_frames, encode_frame, Codec, CodecScratch};
use qsim_core::dist::{perform_swap, SwapBuffers};
use qsim_core::exec::{compile_stages, execute_compiled_stage};
use qsim_core::StateVector;
use qsim_kernels::{apply_gate, KernelConfig, SweepDispatch, SweepStats};
use qsim_net::collective::{all_to_all_inplace, Communicator};
use qsim_net::run_cluster;
use qsim_ooc::ChunkStore;
use qsim_sched::{Schedule, StageOp, SwapOp};
use qsim_util::flops::gate_flops;
use qsim_util::matrix::GateMatrix;
use qsim_util::stats::{summarize, time_reps};
use qsim_util::{c64, Complex, Xoshiro256};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Median seconds of `f` over 3 runs after 1 discarded warm-up.
fn median_secs(f: impl FnMut()) -> f64 {
    summarize(&time_reps(1, 3, f)).median
}

fn random_dense(k: u32) -> GateMatrix<f64> {
    let d = 1usize << k;
    let mut rng = Xoshiro256::seed_from_u64(0x51ed ^ k as u64);
    GateMatrix::from_rows(
        k,
        (0..d * d)
            .map(|_| c64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
            .collect(),
    )
}

/// GFLOP/s of one dense k-qubit `apply_gate` sweep over `state` at
/// `qubits`, production kernel config at `threads`.
pub fn kernel_gflops<R: SweepDispatch>(
    state: &mut [Complex<R>],
    qubits: &[u32],
    threads: usize,
) -> f64 {
    let n = state.len().ilog2();
    let k = qubits.len() as u32;
    let m = random_dense(k).convert::<R>();
    let cfg = KernelConfig {
        threads,
        ..KernelConfig::default()
    };
    let t = median_secs(|| apply_gate(state, qubits, &m, &cfg));
    gate_flops(n, k) as f64 / t / 1e9
}

/// Run `f` over equal splits of three arrays, one scoped thread per
/// split, `threads` splits.
fn split3(
    threads: usize,
    a: &mut [f64],
    b: &[f64],
    c: &[f64],
    f: impl Fn(&mut [f64], &[f64], &[f64]) + Sync,
) {
    let part = a.len().div_ceil(threads.max(1));
    std::thread::scope(|s| {
        for ((a, b), c) in a.chunks_mut(part).zip(b.chunks(part)).zip(c.chunks(part)) {
            let f = &f;
            s.spawn(move || f(a, b, c));
        }
    });
}

/// STREAM-triad bandwidth `a = b + s·c` over three arrays of `bytes`
/// each on `threads` threads: 3 × `bytes` moved per pass.
pub fn triad_gbps(bytes: usize, threads: usize) -> f64 {
    let len = bytes / 8;
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let mut a = vec![0.0f64; len];
    let t = median_secs(|| {
        split3(threads, &mut a, &b, &c, |a, b, c| {
            for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                *a = *b + 3.0 * *c;
            }
        });
        std::hint::black_box(&mut a);
    });
    3.0 * (len * 8) as f64 / t / 1e9
}

/// `copy_from_slice` bandwidth over `bytes` on `threads` threads:
/// 2 × `bytes` moved per pass (read + write).
pub fn memcpy_gbps(bytes: usize, threads: usize) -> f64 {
    let len = bytes / 8;
    let src = vec![1.0f64; len];
    let mut dst = vec![0.0f64; len];
    let t = median_secs(|| {
        split3(threads, &mut dst, &src, &src, |d, s, _| {
            d.copy_from_slice(s)
        });
        std::hint::black_box(&mut dst);
    });
    2.0 * (len * 8) as f64 / t / 1e9
}

/// Dense-cluster flops of a schedule on an `n`-qubit register, binned by
/// cluster width k (index k; diagonal clusters run the phase kernel and
/// are not counted).
pub fn dense_flops_by_k(schedule: &Schedule, n: u32) -> [u64; 8] {
    let mut by_k = [0u64; 8];
    for op in schedule.stages.iter().flat_map(|s| &s.ops) {
        if let StageOp::Cluster(c) = op {
            if c.matrix.as_diagonal().is_none() {
                let k = c.qubits.len();
                by_k[k.min(7)] += gate_flops(n, k as u32);
            }
        }
    }
    by_k
}

pub struct StageProbe {
    pub compile_s: f64,
    pub stage_s: f64,
    pub stats: SweepStats,
}

/// `compile_stages` + `execute_compiled_stage` of a swap-free schedule on
/// `state`, outside any engine: what the executor costs with init, plan
/// and the reduce taken away.
pub fn stage_probe<R: SweepDispatch>(
    state: &mut StateVector<R>,
    schedule: &Schedule,
    threads: usize,
    tile_qubits: u32,
) -> StageProbe {
    let kernel = KernelConfig {
        threads,
        ..KernelConfig::default()
    };
    let n = state.n_qubits();
    let t = Instant::now();
    let compiled = compile_stages::<R>(&schedule.stages, n, &kernel, tile_qubits);
    let compile_s = t.elapsed().as_secs_f64();
    let mut stats = SweepStats::default();
    let t = Instant::now();
    for stage in &compiled {
        execute_compiled_stage(state.amplitudes_mut(), stage, 0, threads, &mut stats);
    }
    StageProbe {
        compile_s,
        stage_s: t.elapsed().as_secs_f64(),
        stats,
    }
}

pub struct SwapProbe {
    /// Median over iterations of the slowest rank's swap seconds.
    pub swap_s: f64,
    /// Pack + unpack amplitude bytes of one swap, summed over ranks.
    pub bytes_copied: u64,
}

/// `perform_swap` on the plan's own `SwapOp` over uniform slices, `ranks`
/// in-process ranks, 1 warm-up + 3 timed swaps in one cluster.
pub fn swap_probe<R: SweepDispatch>(swap: &SwapOp, n: u32, ranks: usize) -> SwapProbe {
    const ITERS: usize = 4;
    let l = n - ranks.ilog2();
    let (per_rank, _) = run_cluster(ranks, |ctx| {
        let mut state = StateVector::<R>::uniform_slice(l, n);
        let mut bufs = SwapBuffers::new(None);
        let mut secs = [0f64; ITERS];
        for s in secs.iter_mut() {
            ctx.barrier();
            let t = Instant::now();
            perform_swap(ctx, &mut state, swap, l, &mut bufs);
            *s = t.elapsed().as_secs_f64();
        }
        (secs, bufs.bytes_copied / bufs.swaps)
    });
    let slowest: Vec<f64> = (1..ITERS)
        .map(|i| per_rank.iter().map(|(s, _)| s[i]).fold(0.0, f64::max))
        .collect();
    SwapProbe {
        swap_s: summarize(&slowest).median,
        bytes_copied: per_rank.iter().map(|(_, b)| b).sum(),
    }
}

/// The bare collective: `all_to_all_inplace` over `bytes` per rank,
/// GB/s of fabric bytes sent (self segments never travel).
pub fn all_to_all_gbps(bytes: usize, ranks: usize) -> f64 {
    const ITERS: usize = 4;
    let len = (bytes / 8 / ranks).max(1) * ranks;
    let (per_rank, stats) = run_cluster(ranks, |ctx| {
        let mut buf = vec![ctx.rank() as u64; len];
        let mut secs = [0f64; ITERS];
        for s in secs.iter_mut() {
            ctx.barrier();
            let t = Instant::now();
            all_to_all_inplace(ctx, Communicator::world(ctx), &mut buf, 8);
            *s = t.elapsed().as_secs_f64();
        }
        secs
    });
    let slowest: Vec<f64> = (1..ITERS)
        .map(|i| per_rank.iter().map(|s| s[i]).fold(0.0, f64::max))
        .collect();
    let sent_per_iter = stats.total_bytes_sent as f64 / ITERS as f64;
    sent_per_iter / summarize(&slowest).median / 1e9
}

pub struct StoreProbe {
    pub create_s: f64,
    pub chunk_read_gbps: f64,
    pub chunk_write_gbps: f64,
    pub fs_write_gbps: f64,
}

/// The chunk store from outside: `create_uniform` (the initial-state
/// write), `read_chunk_into` / `write_chunk_from` over all chunks, and
/// the harness's own rewrite of the same bytes in the same directory as
/// the ceiling.
pub fn store_probe<R: SweepDispatch>(dir: &Path, l: u32, g: u32) -> std::io::Result<StoreProbe> {
    let t = Instant::now();
    let mut store = ChunkStore::<R>::create_uniform(dir, l, g)?;
    let create_s = t.elapsed().as_secs_f64();
    let chunks = store.n_chunks();
    let mut buf = vec![Complex::<R>::zero(); store.chunk_len()];
    let state_bytes = (chunks * buf.len() * 2 * R::BYTES) as f64;

    let t = Instant::now();
    for c in 0..chunks {
        store.read_chunk_into(c, &mut buf)?;
    }
    let read_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for c in 0..chunks {
        store.write_chunk_from(c, &buf)?;
    }
    let write_s = t.elapsed().as_secs_f64();

    // The ceiling repeats the store's own access pattern — truncate and
    // rewrite files that already exist — after one untimed pass that
    // creates them (first use of fresh inodes is several times slower
    // than any rewrite, for the store and for this loop alike).
    let raw = vec![0x5au8; buf.len() * 2 * R::BYTES];
    let write_all = || -> std::io::Result<()> {
        for c in 0..chunks {
            std::fs::File::create(dir.join(format!("ceiling_{c:06}.raw")))?.write_all(&raw)?;
        }
        Ok(())
    };
    write_all()?;
    let t = Instant::now();
    write_all()?;
    let fs_s = t.elapsed().as_secs_f64();
    for c in 0..chunks {
        std::fs::remove_file(dir.join(format!("ceiling_{c:06}.raw")))?;
    }
    store.remove_files()?;
    Ok(StoreProbe {
        create_s,
        chunk_read_gbps: state_bytes / read_s / 1e9,
        chunk_write_gbps: state_bytes / write_s / 1e9,
        fs_write_gbps: state_bytes / fs_s / 1e9,
    })
}

pub struct CodecProbe {
    pub enc_gbps: f64,
    pub dec_gbps: f64,
    pub ratio: f64,
}

/// `encode_frame` / `decode_frames` (lossless shuffle-RLE) on one chunk,
/// GB/s of raw amplitude bytes.
pub fn codec_probe(chunk: &[c64]) -> CodecProbe {
    let raw_bytes = (chunk.len() * 16) as f64;
    let mut scratch = CodecScratch::default();
    let mut enc = Vec::new();
    let enc_s = median_secs(|| {
        enc.clear();
        encode_frame(Codec::ShuffleRle, 0, chunk, &mut scratch, &mut enc);
    });
    let mut out = vec![c64::zero(); chunk.len()];
    let dec_s = median_secs(|| {
        decode_frames(&enc, &mut scratch, &mut out).expect("decode what encode_frame wrote");
    });
    assert!(out == chunk, "lossless codec round trip changed the chunk");
    CodecProbe {
        enc_gbps: raw_bytes / enc_s / 1e9,
        dec_gbps: raw_bytes / dec_s / 1e9,
        ratio: raw_bytes / enc.len() as f64,
    }
}
