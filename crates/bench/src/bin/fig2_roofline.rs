//! Fig. 2 (a/b) — roofline placement of the 1- and 4-qubit kernels across
//! the optimization steps of §3.1–3.2.
//!
//! The paper's steps:
//!   step 0  two-vector textbook product (the pre-"step 1" baseline)
//!   step 1  in-place / lazy evaluation (halves traffic)
//!   step 2  + explicit vectorization of Eq. (1) (mul/permute/hadd lanes)
//!   step 3  + Eq. (2)–(3) re-ordering, packed matrix, vectorised across
//!           blocks: the block-lane kernel at 256 bits (`Simd::Avx2`)
//!   step 4  the same kernel at 512 bits (`Simd::Auto` on AVX-512) —
//!           the paper's "2x for AVX, 4x for AVX512" from one generator
//!
//! Prints operational intensity (FLOP/byte) and measured GFLOPS per
//! (kernel, step), plus the memory-bandwidth roofline bound for this host
//! (estimated via a stream-like triad sweep). Shape to compare with the
//! paper: monotone improvement per step, 1-qubit kernel pinned to the
//! bandwidth roof, 4-qubit kernel ~8× higher intensity.

use qsim_bench::harness::*;
use qsim_kernels::apply::{KernelConfig, OptLevel, Simd};
use qsim_util::flops::{operational_intensity, roofline_bound};
use qsim_util::stats::{black_box, summarize, time_reps};

fn main() {
    let n = arg_u32("--state-qubits", 22);
    let threads = arg_u32("--threads", 1) as usize;
    println!("# Fig. 2 roofline — state 2^{n}, {threads} thread(s)");

    // Host bandwidth estimate (triad: a[i] = b[i] + s*c[i]).
    let bw = triad_bandwidth_gbs(n);
    println!("# stream-triad bandwidth ≈ {bw:.1} GB/s");
    println!(
        "# AVX2+FMA available: {}, AVX-512F: {}",
        qsim_kernels::avx::avx2_available(),
        qsim_kernels::avx512::avx512_available()
    );
    row(&[
        cell("kernel", 8),
        cell("step", 24),
        cell("OI[F/B]", 9),
        cell("GFLOPS", 9),
        cell("roof[GFLOPS]", 13),
    ]);

    let cfg = |opt, simd| KernelConfig { opt, simd, threads };
    let steps = [
        ("0 two-vector", cfg(OptLevel::TwoVector, Simd::Scalar)),
        ("1 in-place (lazy)", cfg(OptLevel::InPlace, Simd::Scalar)),
        // Marker config: the measurement below routes this step to the
        // dedicated Eq.-(1) SIMD kernel.
        ("2 +vectorized Eq.(1)", cfg(OptLevel::Fma, Simd::Auto)),
        ("3 lanes@256", cfg(OptLevel::Blocked, Simd::Avx2)),
        ("4 lanes@512", cfg(OptLevel::Blocked, Simd::Auto)),
    ];

    for k in [1u32, 4] {
        let qubits = low_order_qubits(k);
        // Two-vector traffic is 3 passes; in-place is 2.
        for (name, cfg) in &steps {
            let gf = if name.starts_with("2 ") {
                let m = random_gate(k, 0xbeef ^ k as u64);
                measure_fn_gflops(n, &qubits, 1, 3, |state, qs| {
                    qsim_kernels::avx::apply_avx_eq1(state, qs, &m);
                })
            } else {
                measure_kernel_gflops(n, &qubits, cfg, 1, 3)
            };
            let oi = match cfg.opt {
                OptLevel::TwoVector => qsim_util::flops::flops_per_amplitude(k) as f64 / 48.0,
                _ => operational_intensity(k, 8),
            };
            let roof = roofline_bound(f64::INFINITY, bw, oi);
            row(&[
                cell(format!("k={k}"), 8),
                cell(*name, 24),
                cell(format!("{oi:.3}"), 9),
                cell(format!("{gf:.2}"), 9),
                cell(format!("{roof:.1}"), 13),
            ]);
        }
    }
    println!("# paper shape: each step raises GFLOPS; k=1 saturates the bandwidth");
    println!("# roof while k=4 gains ~8x intensity and runs well above it.");
}

/// Estimate sustainable memory bandwidth with a triad sweep (GB/s).
fn triad_bandwidth_gbs(n: u32) -> f64 {
    let len = 1usize << n; // f64 elements
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let mut a = vec![0.0f64; len];
    let t = summarize(&time_reps(1, 3, || {
        for i in 0..len {
            a[i] = b[i] + 3.0 * c[i];
        }
        black_box(&a);
    }))
    .median;
    // 3 arrays × 8 bytes (+ write-allocate ignored).
    (3 * len * 8) as f64 / t / 1e9
}
