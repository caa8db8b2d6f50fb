//! Ablation: the scalar step-3 kernel vs the block-lane kernel at 256 and
//! 512 bits, per k — one SIMD shape at two widths. `lanes256` is
//! `Simd::Avx2` (what `Simd::Auto` runs on an AVX2-only host), `lanes512`
//! is `Simd::Auto` on an AVX-512 host (elsewhere the column repeats the
//! widest form there is).
use qsim_bench::harness::*;
use qsim_kernels::apply::{KernelConfig, Simd};

fn main() {
    let n = arg_u32("--state-qubits", 22);
    println!("# SIMD ablation, state 2^{n}, 1 thread");
    println!(
        "# avx2={} avx512={}",
        qsim_kernels::avx::avx2_available(),
        qsim_kernels::avx512::avx512_available()
    );
    row(&[
        cell("k", 3),
        cell("scalar", 9),
        cell("lanes256", 9),
        cell("lanes512", 9),
    ]);
    for k in 1..=5u32 {
        let q = low_order_qubits(k);
        let gf = |simd| {
            let cfg = KernelConfig { simd, threads: 1 };
            cell(
                format!("{:.2}", measure_kernel_gflops(n, &q, &cfg, 1, 3)),
                9,
            )
        };
        row(&[cell(k, 3), gf(Simd::Scalar), gf(Simd::Avx2), gf(Simd::Auto)]);
    }
}
