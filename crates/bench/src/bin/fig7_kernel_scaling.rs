//! Fig. 7 (KNL) / Fig. 10 (Edison) — strong scaling of the k-qubit
//! kernels with core count.
//!
//! The paper applies one k-qubit kernel to a 28-qubit state on 1..64 KNL
//! cores (1..24 Edison cores); the low-k kernels are bandwidth-bound and
//! stop scaling once the memory system saturates, while k=4..5 scale
//! further. This harness sweeps thread counts 1..nproc on a scaled state
//! and prints speedups relative to 1 thread.

use qsim_bench::harness::*;
use qsim_kernels::apply::KernelConfig;

fn main() {
    let n = arg_u32("--state-qubits", 22);
    let max_threads = arg_u32("--max-threads", num_threads() as u32) as usize;
    println!("# Fig. 7/10 — kernel strong scaling, state 2^{n}");
    let mut header = vec![cell("k", 3)];
    let mut threads = vec![1usize];
    while *threads.last().unwrap() * 2 <= max_threads {
        threads.push(threads.last().unwrap() * 2);
    }
    for &t in &threads {
        header.push(cell(format!("t={t}"), 8));
    }
    header.push(cell("speedup", 8));
    row(&header);

    for k in 1..=5u32 {
        let qubits = low_order_qubits(k);
        let mut cells = vec![cell(k, 3)];
        let mut first = 0.0;
        let mut last = 0.0;
        for &t in &threads {
            let cfg = KernelConfig {
                threads: t,
                ..KernelConfig::default()
            };
            let gf = measure_kernel_gflops(n, &qubits, &cfg, 1, 5);
            if t == 1 {
                first = gf;
            }
            last = gf;
            cells.push(cell(format!("{gf:.2}"), 8));
        }
        cells.push(cell(format!("{:.2}x", last / first), 8));
        row(&cells);
    }
    println!("# columns are GFLOPS per thread count; paper shape: k=4..5 scale");
    println!("# closest to linear, k=1 saturates memory bandwidth early.");
}
