//! # qsim-bench
//!
//! Benchmark harnesses regenerating every table and figure of the paper's
//! evaluation (§4). Each `src/bin/*` binary prints one artifact:
//!
//! | binary | paper artifact |
//! |--------|----------------|
//! | `fig2_roofline`     | Fig. 2a/2b — kernel GFLOPS per optimization step |
//! | `fig5_comm_scaling` | Fig. 5a/5b — swaps & global gates vs depth / qubits |
//! | `table1_clusters`   | Table 1 — cluster counts for kmax ∈ {3,4,5} |
//! | `fig6_cache_assoc`  | Fig. 6/9 — low- vs high-order kernel performance |
//! | `fig7_kernel_scaling` | Fig. 7/10 — strong scaling of k-qubit kernels |
//! | `fig8_strong_scaling` | Fig. 8 — multi-rank strong scaling |
//! | `table2_endtoend`   | Table 2 — end-to-end time, comm %, speedup |
//! | `proj45_petascale`  | §4.1.2/§5 — 45/49-qubit petascale projection |
//!
//! Scheduling artifacts (Fig. 5, Table 1, the projection) run at the
//! paper's **full scale** (30–49 qubits) because they never touch
//! amplitudes; amplitude-bearing artifacts run scaled down per DESIGN.md.

//! The end-to-end and per-layer performance numbers (wall-clock, sweep
//! passes, OOC traffic, codec ratio, schedule search) live in the
//! repository's one benchmark, `benchmark/` — not here.

pub mod harness;
