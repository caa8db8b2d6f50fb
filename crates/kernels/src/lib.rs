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
//! * [`lane`] — step 3 vectorised across *blocks*: the one SIMD kernel
//!   shape, generated from one vector abstraction at 256 bits (AVX2+FMA:
//!   2 f64 / 4 f32 blocks per vector) and 512 bits (AVX-512F: 4 / 8) —
//!   the paper's compiler-intrinsics layer (§3.2 cites 2× for AVX, 4× for
//!   AVX512, from one generator). The width follows from
//!   `KernelConfig::simd` and CPUID; the scalar step-3 kernel of [`opt`]
//!   takes the ragged ends of a block range, bit for bit the same.
//! * [`avx`] / [`avx512`] — runtime ISA detection, plus the Fig. 2
//!   step-2 rung (Eq. (1) vectorised before re-association).
//! * [`specialized`] — communication-free kernels for diagonal gates,
//!   permutation gates (X/CNOT) and in-place qubit-pair swaps (§3.5).
//! * [`parallel`] — rayon drivers over the block index space, the analogue
//!   of the paper's OpenMP `collapse` parallelization (§3.3).
//! * [`sweep`] — the cache-tiled stage executor: one streaming pass over
//!   the state applies every fused gate of a communication-free stage,
//!   with diagonal ops folded in as per-tile phases.
//!
//! The single entry point for simulators is [`apply::apply_gate`], which
//! dispatches on kernel configuration.

pub mod apply;
pub mod avx;
pub mod avx512;
pub mod lane;
pub mod matrix;
pub mod opt;
pub mod parallel;
pub mod specialized;
pub mod sweep;
#[cfg(test)]
mod testutil;

pub use apply::{apply_gate, KernelConfig, Simd};
pub use lane::vector_bits;
pub use matrix::{GateMatrix, PackedMatrix};
pub use sweep::{tune_tile_qubits, SweepDispatch, SweepStats};
