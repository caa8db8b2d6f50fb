//! Ablation: scalar vs AVX2 rows vs AVX-512 rows vs `Simd::Auto` (the
//! block-lane kernel on an AVX-512 host) step-3 kernels, per k. Used to
//! validate the `Simd::Auto` choice on a given host.
use qsim_bench::harness::*;
use qsim_kernels::apply::{KernelConfig, OptLevel, Simd};

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
        cell("avx2", 9),
        cell("rows512", 9),
        cell("auto", 9),
    ]);
    for k in 1..=5u32 {
        let q = low_order_qubits(k);
        let mk = |simd| KernelConfig {
            opt: OptLevel::Blocked,
            simd,
            block: 4,
            threads: 1,
        };
        let s = measure_kernel_gflops(n, &q, &mk(Simd::Scalar), 1, 3);
        let a2 = measure_kernel_gflops(n, &q, &mk(Simd::Avx2), 1, 3);
        let m = random_gate(k, 0xbeef ^ k as u64);
        let r5 = measure_fn_gflops(n, &q, 1, 3, |state, qs| {
            qsim_kernels::avx512::apply_avx512_rows(state, qs, &m);
        });
        let a5 = measure_kernel_gflops(n, &q, &mk(Simd::Auto), 1, 3);
        row(&[
            cell(k, 3),
            cell(format!("{s:.2}"), 9),
            cell(format!("{a2:.2}"), 9),
            cell(format!("{r5:.2}"), 9),
            cell(format!("{a5:.2}"), 9),
        ]);
    }
}
