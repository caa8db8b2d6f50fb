//! # qsim-kernels
//!
//! The compute kernels of the simulator — the paper's §3.1–3.3 layers:
//!
//! * [`matrix`] — dense 2^k × 2^k gate matrices, their algebra (product,
//!   Kronecker, qubit permutation) and the packed `(m_R,m_R)/(−m_I,m_I)`
//!   layout behind the FMA kernels (Eq. 2–3).
//! * [`opt`] — the optimization-step ladder measured in Fig. 2:
//!   step 0 (two-vector naive) → step 1 (in-place / lazy evaluation) →
//!   step 2 (FMA re-association) → step 3 (register blocking + matrix
//!   pre-permutation).
//! * [`avx`] / [`avx512`] / [`avxf32`] — explicit AVX2+FMA and AVX-512
//!   vectorization of step 3 across the output rows of one block, behind
//!   runtime feature detection (the paper's compiler-intrinsics layer;
//!   §3.2 cites 2× for AVX, 4× for AVX512).
//! * [`lane`] — step 3 vectorised across *blocks* (one AVX-512 vector =
//!   one amplitude slot of 4 f64 / 8 f32 blocks): the production kernel
//!   on AVX-512 hosts, bit-identical to the row kernels.
//! * [`specialized`] — communication-free kernels for diagonal gates,
//!   permutation gates (X/CNOT) and in-place qubit-pair swaps (§3.5).
//! * [`parallel`] — rayon drivers over the block index space, the analogue
//!   of the paper's OpenMP `collapse` parallelization (§3.3).
//! * [`mod@autotune`] — the runtime code-selection / benchmarking feedback loop
//!   that picks kernel size kmax and block size for the host (§3.2).
//! * [`sweep`] — the cache-tiled stage executor: one streaming pass over
//!   the state applies every fused gate of a communication-free stage,
//!   with diagonal ops folded in as per-tile phases.
//!
//! The single entry point for simulators is [`apply::apply_gate`], which
//! dispatches on kernel configuration.

pub mod apply;
pub mod autotune;
pub mod avx;
pub mod avx512;
pub mod avxf32;
pub mod lane;
pub mod matrix;
pub mod opt;
pub mod parallel;
pub mod specialized;
pub mod sweep;

pub use apply::{apply_gate, apply_gate_seq, KernelConfig, OptLevel, Simd};
pub use autotune::{autotune, autotune_cached, tune_tile_qubits, TunedParams};
pub use matrix::{GateMatrix, PackedMatrix};
pub use sweep::{SweepDispatch, SweepStats};
