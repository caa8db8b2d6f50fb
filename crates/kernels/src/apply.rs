//! Unified gate-application entry point.
//!
//! Simulators call [`apply_gate`] with a [`KernelConfig`]; dispatch picks
//! the optimization step, SIMD path, block size and parallelism. The
//! config is usually produced by [`crate::autotune::autotune`], mirroring
//! the paper's code-generation/benchmarking feedback loop, but every knob
//! can be set manually — the benchmark harnesses sweep them for Fig. 2.

use crate::avx;
use crate::matrix::GateMatrix;
use crate::opt;
use crate::sweep::{PackedDense, SweepDispatch};
use qsim_util::complex::Complex;
use qsim_util::{c64, Real};

/// Which rung of the §3.1–3.2 optimization ladder to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OptLevel {
    /// Step 0: two state vectors, textbook product (needs external dst —
    /// `apply_gate` emulates it with an internal scratch copy).
    TwoVector,
    /// Step 1: in-place, lazy evaluation.
    InPlace,
    /// Step 2: + Eq. (2)–(3) FMA re-association.
    Fma,
    /// Step 3: + register blocking and packed pre-permuted matrix.
    Blocked,
}

/// SIMD selection.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Simd {
    /// Portable scalar code (still FMA-re-associated at step >= 2).
    Scalar,
    /// Force the AVX2+FMA path (scalar when unsupported).
    Avx2,
    /// Best available: on an AVX-512 host the block-lane kernel for whole
    /// lane groups and the AVX-512 row kernel (k >= 2) for what is left,
    /// else AVX2+FMA, else scalar. Only meaningful at
    /// `OptLevel::Blocked`.
    Auto,
}

/// Kernel dispatch configuration.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct KernelConfig {
    pub opt: OptLevel,
    pub simd: Simd,
    /// Register-blocking width for the scalar step-3 kernel.
    pub block: usize,
    /// Worker-thread hint; 1 forces sequential execution.
    pub threads: usize,
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self {
            opt: OptLevel::Blocked,
            simd: Simd::Auto,
            block: 4,
            threads: rayon::current_num_threads(),
        }
    }
}

impl KernelConfig {
    /// Fully sequential, portable configuration (reference runs, tests).
    pub fn sequential() -> Self {
        Self {
            opt: OptLevel::Blocked,
            simd: Simd::Scalar,
            block: 4,
            threads: 1,
        }
    }
}

/// Apply a dense k-qubit gate to `state` at `qubits` under `cfg`.
///
/// Step 3 runs each precision's packed SIMD kernels (the generic bound
/// cannot name a precision specially, so `apply_gate` is specialized
/// below via [`ApplyDispatch`]).
pub fn apply_gate<T: Real + ApplyDispatch>(
    state: &mut [Complex<T>],
    qubits: &[u32],
    m: &GateMatrix<T>,
    cfg: &KernelConfig,
) {
    T::dispatch(state, qubits, m, cfg)
}

/// Sequential convenience wrapper used by tests and the reference paths.
pub fn apply_gate_seq<T: Real + ApplyDispatch>(
    state: &mut [Complex<T>],
    qubits: &[u32],
    m: &GateMatrix<T>,
) {
    apply_gate(state, qubits, m, &KernelConfig::sequential());
}

/// Precision-directed dispatch: step 3 goes through the precision's
/// packed kernels ([`PackedDense`]), the other ladder rungs through the
/// portable path.
pub trait ApplyDispatch: Real + Sized {
    fn dispatch(
        state: &mut [Complex<Self>],
        qubits: &[u32],
        m: &GateMatrix<Self>,
        cfg: &KernelConfig,
    );
}

/// One dispatch for every precision: the portable kernels on the first
/// three ladder rungs, and at step 3 the packed form the tiled sweep
/// executor also uses ([`PackedDense`]), so the per-gate path and the
/// executor run the same kernels by construction.
fn dispatch<T: SweepDispatch>(
    state: &mut [Complex<T>],
    qubits: &[u32],
    m: &GateMatrix<T>,
    cfg: &KernelConfig,
) {
    match cfg.opt {
        OptLevel::TwoVector => {
            // Emulate the two-vector baseline: write into scratch, copy
            // back. The extra copy is part of what Fig. 2's step 1 removes.
            let mut dst = vec![Complex::<T>::zero(); state.len()];
            opt::apply_twovec(state, &mut dst, qubits, m);
            state.copy_from_slice(&dst);
        }
        OptLevel::InPlace => opt::apply_inplace(state, qubits, m),
        OptLevel::Fma => opt::apply_fma(state, qubits, m),
        OptLevel::Blocked => {
            let (exp, pm) = opt::prepare(state.len(), qubits, m);
            PackedDense::pack(&pm, cfg).apply_full(state, &exp, cfg.block, cfg.threads);
        }
    }
}

impl ApplyDispatch for f32 {
    fn dispatch(
        state: &mut [Complex<f32>],
        qubits: &[u32],
        m: &GateMatrix<f32>,
        cfg: &KernelConfig,
    ) {
        dispatch(state, qubits, m, cfg);
    }
}

/// The f64 step-3 row kernel a `(cfg, k)` pair resolves to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum DensePath {
    /// Portable scalar blocked kernel (also the `opt != Blocked` marker:
    /// callers on those rungs never reach the packed paths).
    Scalar,
    Avx2,
    Avx512,
}

/// Resolve the f64 row kernel for a k-qubit gate under `cfg` from the
/// host ISA alone (the AVX-512 row kernel packs row quads: k >= 2).
pub(crate) fn choose_dense_path(cfg: &KernelConfig, k: u32) -> DensePath {
    if cfg.opt != OptLevel::Blocked || cfg.simd == Simd::Scalar {
        return DensePath::Scalar;
    }
    if cfg.simd == Simd::Auto && k >= 2 && crate::avx512::avx512_available() {
        return DensePath::Avx512;
    }
    if avx::avx2_available() {
        DensePath::Avx2
    } else {
        DensePath::Scalar
    }
}

/// Does `cfg` select the block-lane kernel for whole lane groups? Only
/// "best available" asks for it, and it needs AVX-512F.
pub(crate) fn lane_path(cfg: &KernelConfig) -> bool {
    cfg.opt == OptLevel::Blocked && cfg.simd == Simd::Auto && crate::avx512::avx512_available()
}

impl ApplyDispatch for f64 {
    fn dispatch(state: &mut [c64], qubits: &[u32], m: &GateMatrix<f64>, cfg: &KernelConfig) {
        dispatch(state, qubits, m, cfg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_util::complex::max_dist;
    use qsim_util::Xoshiro256;

    fn random_state(n: u32, seed: u64) -> Vec<c64> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..1usize << n)
            .map(|_| c64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
            .collect()
    }

    fn random_matrix(k: u32, seed: u64) -> GateMatrix<f64> {
        let d = 1usize << k;
        let mut rng = Xoshiro256::seed_from_u64(seed);
        GateMatrix::from_rows(
            k,
            (0..d * d)
                .map(|_| c64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
                .collect(),
        )
    }

    #[test]
    fn all_config_combinations_agree() {
        let n = 12;
        let m = random_matrix(3, 5);
        let qubits = vec![1u32, 7, 10];
        let state0 = random_state(n, 6);
        let mut reference = state0.clone();
        opt::apply_fma(&mut reference, &qubits, &m);

        for opt_level in [
            OptLevel::TwoVector,
            OptLevel::InPlace,
            OptLevel::Fma,
            OptLevel::Blocked,
        ] {
            for simd in [Simd::Scalar, Simd::Auto] {
                for threads in [1usize, 4] {
                    let cfg = KernelConfig {
                        opt: opt_level,
                        simd,
                        block: 2,
                        threads,
                    };
                    let mut s = state0.clone();
                    apply_gate(&mut s, &qubits, &m, &cfg);
                    assert!(max_dist(&s, &reference) < 1e-12, "cfg mismatch: {cfg:?}");
                }
            }
        }
    }

    #[test]
    fn f32_dispatch_works() {
        use qsim_util::c32;
        let m = random_matrix(2, 8).convert::<f32>();
        let mut s: Vec<c32> = random_state(10, 9).iter().map(|a| a.convert()).collect();
        let s0 = s.clone();
        apply_gate(&mut s, &[2, 6], &m, &KernelConfig::default());
        let mut expect = s0;
        apply_gate(&mut expect, &[2, 6], &m, &KernelConfig::sequential());
        assert!(max_dist(&s, &expect) < 1e-5);
    }

    #[test]
    fn default_config_is_fast_path() {
        let cfg = KernelConfig::default();
        assert_eq!(cfg.opt, OptLevel::Blocked);
        assert_eq!(cfg.simd, Simd::Auto);
        assert!(cfg.threads >= 1);
    }
}
