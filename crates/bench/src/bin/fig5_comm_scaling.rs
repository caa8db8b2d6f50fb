//! Fig. 5 (a/b) — required communication vs circuit depth and vs qubit
//! count, at the paper's FULL scale (scheduling is pure pre-computation).
//!
//! Upper panels: number of global-to-local swaps from our scheduler
//! (worst-case stage finding, as in the paper). Lower panels: number of
//! global gates the per-gate scheme of \[5\] would communicate for —
//! dashed = worst case (random 1q gates assumed dense), solid = the
//! actual ("median") instance.
//!
//! `fig5_comm_scaling depth` sweeps depth 10..50 on 42-qubit circuits for
//! 29–32 local qubits (Fig. 5a); `fig5_comm_scaling qubits` sweeps
//! {30, 36, 42, 45, 49} qubits at depth 25 (Fig. 5b). `fig5_comm_scaling
//! swap` executes the swap engine itself (shared-memory fabric) and
//! reports before/after bytes-copied plus the measured compute/comm
//! overlap of the fused pipelined path; knobs: `--swap-l` (local qubits,
//! default 16), `--iters` (swaps per measurement, default 8),
//! `--sub-chunks` (pipeline depth, 0 = size-based default). Default mode:
//! both scheduling panels plus the swap-engine table.

use qsim_bench::harness::*;
use qsim_circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim_core::dist::{perform_swap, perform_swap_reference, SwapBuffers};
use qsim_core::StateVector;
use qsim_net::run_cluster;
use qsim_sched::{global_gate_count, plan, SchedulerConfig, SwapOp};
use qsim_util::{c64, Xoshiro256};

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "both".into());
    let kmax = arg_u32("--kmax", 4);
    let seed = arg_u32("--seed", 0) as u64;
    if mode == "depth" || mode == "both" {
        fig5a(kmax, seed);
    }
    if mode == "qubits" || mode == "both" {
        fig5b(kmax, seed);
    }
    if mode == "swap" || mode == "both" {
        let l = arg_u32("--swap-l", 16);
        let iters = arg_u32("--iters", 8);
        let sub_chunks = arg_u32("--sub-chunks", 0) as usize;
        swap_engine(seed, l, iters, sub_chunks);
    }
}

fn fig5a(kmax: u32, seed: u64) {
    println!("# Fig. 5a — 42-qubit (7x6) circuits, depth 10..50");
    row(&[
        cell("depth", 6),
        cell("l=29", 6),
        cell("l=30", 6),
        cell("l=31", 6),
        cell("l=32", 6),
        cell("gg-worst", 9),
        cell("gg-median", 10),
    ]);
    for depth in (10..=50).step_by(5) {
        let c = supremacy_circuit(&SupremacySpec {
            rows: 7,
            cols: 6,
            depth,
            seed,
        });
        let mut cells = vec![cell(depth, 6)];
        for l in [29u32, 30, 31, 32] {
            let s = plan(&c, &SchedulerConfig::distributed(l, kmax));
            cells.push(cell(s.n_swaps(), 6));
        }
        cells.push(cell(global_gate_count(&c, 30, true), 9));
        cells.push(cell(global_gate_count(&c, 30, false), 10));
        row(&cells);
    }
    println!("# paper shape: swaps grow ~1..3 over this range, mostly independent");
    println!("# of l; global gates grow ~linearly to ~200 (worst case).");
}

fn fig5b(kmax: u32, seed: u64) {
    println!("# Fig. 5b — depth-25 circuits, 30..49 qubits (30 local)");
    row(&[
        cell("grid", 6),
        cell("qubits", 7),
        cell("swaps l=29", 11),
        cell("l=30", 6),
        cell("l=31", 6),
        cell("l=32", 6),
        cell("gg-worst", 9),
        cell("gg-median", 10),
    ]);
    for (rows, cols) in [(6u32, 5u32), (6, 6), (7, 6), (9, 5), (7, 7)] {
        let n = rows * cols;
        let c = supremacy_circuit(&SupremacySpec {
            rows,
            cols,
            depth: 25,
            seed,
        });
        let mut cells = vec![cell(format!("{rows}x{cols}"), 6), cell(n, 7)];
        for l in [29u32, 30, 31, 32] {
            let l = l.min(n);
            if l == n {
                cells.push(cell("-", if l == 29 { 11 } else { 6 }));
                continue;
            }
            let s = plan(&c, &SchedulerConfig::distributed(l, kmax));
            cells.push(cell(s.n_swaps(), if l == 29 { 11 } else { 6 }));
        }
        let l = 30.min(n - 1).max(1);
        cells.push(cell(global_gate_count(&c, l, true), 9));
        cells.push(cell(global_gate_count(&c, l, false), 10));
        row(&cells);
    }
    println!("# paper: 1-2 swaps up to 45 qubits, 2 for 49; global gates ~50-140.");
}

/// Execute real swaps on the shared-memory fabric and compare the fused
/// pipelined engine against the textbook reference data path.
fn swap_engine(seed: u64, l: u32, iters: u32, sub_chunks: usize) {
    println!("# Swap engine — fused pipelined path vs textbook reference, 2^{l} amps/rank");
    println!("# copied = full-slice copies per swap per rank (reference: analytic ~6");
    println!("# traversals; fused: measured pack+unpack bytes). overlap = fraction of");
    println!("# comm wall-time spent making progress rather than blocked on peers.");
    row(&[
        cell("ranks", 5),
        cell("S", 3),
        cell("ref-copied", 11),
        cell("fused-copied", 13),
        cell("ref-ms/swap", 12),
        cell("fused-ms/swap", 14),
        cell("overlap", 8),
    ]);
    let slice = 1usize << l;
    let iters = iters.max(1);
    for g in [1u32, 2, 3] {
        let p = 1usize << g;
        let swap = SwapOp {
            local_slots: (0..g).collect(),
        };
        let init = |rank: usize| -> Vec<c64> {
            let mut rng = Xoshiro256::seed_from_u64(seed ^ ((rank as u64) << 8) ^ 0xf16);
            (0..slice)
                .map(|_| c64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
                .collect()
        };

        let t0 = std::time::Instant::now();
        let (_, _ref_stats) = run_cluster(p, |ctx| {
            let mut state = StateVector::from_amplitudes(init(ctx.rank()));
            for _ in 0..iters {
                perform_swap_reference(ctx, &mut state, &swap, l);
            }
        });
        let ref_ms = t0.elapsed().as_secs_f64() / iters as f64 * 1e3;

        let depth_cfg = if sub_chunks == 0 {
            None
        } else {
            Some(sub_chunks)
        };
        let t1 = std::time::Instant::now();
        let (copied, fused_stats) = run_cluster(p, |ctx| {
            let mut bufs = SwapBuffers::new(depth_cfg);
            let mut state = StateVector::from_amplitudes(init(ctx.rank()));
            ctx.prewarm_wire(slice / p * 16, 2 * (p - 1));
            for _ in 0..iters {
                perform_swap(ctx, &mut state, &swap, l, &mut bufs);
            }
            (
                bufs.bytes_copied / bufs.swaps,
                bufs.depth_for(slice / p, 16),
            )
        });
        let fused_ms = t1.elapsed().as_secs_f64() / iters as f64 * 1e3;

        let slice_bytes = (slice * 16) as u64;
        let (fused_bytes, depth) = copied[0];
        row(&[
            cell(p, 5),
            cell(depth, 3),
            cell(format!("{:.1}x", 6.0), 11),
            cell(
                format!("{:.1}x", fused_bytes as f64 / slice_bytes as f64),
                13,
            ),
            cell(format!("{ref_ms:.2}"), 12),
            cell(format!("{fused_ms:.2}"), 14),
            cell(format!("{:.0}%", fused_stats.overlap_fraction() * 100.0), 8),
        ]);
    }
    println!("# fused path: <=2 full-slice copies/swap and zero steady-state allocations");
    println!("# (wire buffers recycle through per-rank pools; see FabricStats.wire_allocs).");
}
