//! Unified gate-application entry point.
//!
//! Simulators call [`apply_gate`] with a [`KernelConfig`]: which vector
//! width, how many threads. It runs step 3 of the §3.1–3.2 ladder — the
//! production rung: it packs the gate once ([`PackedDense`]) and runs the
//! block-lane kernel ([`crate::lane`]) over whole lane groups and the
//! scalar blocked kernel ([`crate::opt`]) over what is left, under the
//! parallel range driver. Nothing here is measured: the width follows
//! from `simd` and CPUID. The lower rungs are reference kernels the
//! Fig. 2 harness calls directly: [`crate::opt::apply_twovec`] (step 0),
//! [`crate::opt::apply_inplace`] (step 1), [`crate::opt::apply_fma`] and
//! [`crate::avx::apply_avx_eq1`] (step 2).

use crate::matrix::GateMatrix;
use crate::opt;
use crate::sweep::{PackedDense, SweepDispatch};
use qsim_util::complex::Complex;

/// SIMD selection; every value produces the same bits.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Simd {
    /// The scalar blocked kernel alone (FMA-compiled where the host has
    /// FMA).
    Scalar,
    /// The 256-bit block-lane kernel (AVX2+FMA; scalar when
    /// unsupported) — what `Auto` runs on an AVX2-only host, and how an
    /// AVX-512 host tests and measures that form.
    Avx2,
    /// The widest block-lane kernel the host has: 512-bit with AVX-512F,
    /// else 256-bit with AVX2+FMA, else scalar.
    Auto,
}

/// Kernel dispatch configuration.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct KernelConfig {
    pub simd: Simd,
    /// Worker-thread hint; 1 forces sequential execution.
    pub threads: usize,
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self {
            simd: Simd::Auto,
            threads: rayon::current_num_threads(),
        }
    }
}

impl KernelConfig {
    /// Fully sequential, portable configuration (reference runs, tests).
    pub fn sequential() -> Self {
        Self {
            simd: Simd::Scalar,
            threads: 1,
        }
    }
}

/// Apply a dense k-qubit gate to `state` at `qubits` under `cfg`, in the
/// packed form the tiled sweep executor also uses ([`PackedDense`]), so
/// the per-gate path and the executor run the same kernels by
/// construction.
pub fn apply_gate<T: SweepDispatch>(
    state: &mut [Complex<T>],
    qubits: &[u32],
    m: &GateMatrix<T>,
    cfg: &KernelConfig,
) {
    let (exp, pm) = opt::prepare(state.len(), qubits, m);
    PackedDense::pack(&pm, cfg).apply_full(state, &exp, cfg.threads);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::assert_bits_eq;
    use qsim_util::complex::max_dist;
    use qsim_util::{c64, Xoshiro256};

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
    fn every_rung_and_config_agrees() {
        let n = 12;
        let m = random_matrix(3, 5);
        let qubits = vec![1u32, 7, 10];
        let state0 = random_state(n, 6);
        let mut reference = state0.clone();
        opt::apply_fma(&mut reference, &qubits, &m);

        // The lower rungs of the ladder, called directly.
        let mut two_vector = vec![c64::zero(); state0.len()];
        opt::apply_twovec(&state0, &mut two_vector, &qubits, &m);
        let mut in_place = state0.clone();
        opt::apply_inplace(&mut in_place, &qubits, &m);
        for s in [two_vector, in_place] {
            assert!(max_dist(&s, &reference) < 1e-12);
        }
        for simd in SIMDS {
            for threads in [1usize, 4] {
                let cfg = KernelConfig { simd, threads };
                let mut s = state0.clone();
                apply_gate(&mut s, &qubits, &m, &cfg);
                assert!(max_dist(&s, &reference) < 1e-12, "cfg mismatch: {cfg:?}");
            }
        }
        // Step 3 is one FMA chain at every width: bits, not a tolerance.
        for k in 1..=opt::MAX_K {
            blocked_bits_agree::<f64>(k);
            blocked_bits_agree::<f32>(k);
        }
    }

    const SIMDS: [Simd; 3] = [Simd::Scalar, Simd::Avx2, Simd::Auto];

    /// `Scalar`, `Avx2` and `Auto`, `to_bits()`-equal:
    /// through `apply_gate` at one and four threads, and over block ranges
    /// whose ends are whole lane groups at 256 bits but ragged at 512, and
    /// ragged at both.
    fn blocked_bits_agree<T: SweepDispatch>(k: u32) {
        let n = 12u32;
        let m = random_matrix(k, 40 + k as u64).convert::<T>();
        let state0: Vec<Complex<T>> = random_state(n, 50 + k as u64)
            .iter()
            .map(|a| a.convert())
            .collect();
        let low: Vec<u32> = (0..k).rev().collect();
        let spread: Vec<u32> = (0..k).map(|j| (j * n + n / 2) / k).collect();
        for qubits in [low, spread] {
            let cfg = |simd, threads| KernelConfig { simd, threads };
            let mut want = state0.clone();
            apply_gate(&mut want, &qubits, &m, &cfg(Simd::Scalar, 1));
            for simd in SIMDS {
                for threads in [1usize, 4] {
                    let mut s = state0.clone();
                    apply_gate(&mut s, &qubits, &m, &cfg(simd, threads));
                    assert_bits_eq(&s, &want, &format!("k={k} {qubits:?} {simd:?} x{threads}"));
                }
            }

            let (exp, pm) = opt::prepare(state0.len(), &qubits, &m);
            let offs = opt::offsets(&exp, pm.dim());
            let blocks = state0.len() >> k;
            // Blocks per 256-bit vector; a 512-bit vector holds twice that.
            let l = 32 / std::mem::size_of::<Complex<T>>();
            for (c0, c1) in [(l, blocks - l), (1, blocks - 3)] {
                let run = |simd| {
                    let mut s = state0.clone();
                    PackedDense::pack(&pm, &cfg(simd, 1)).apply_range(&mut s, &exp, &offs, c0, c1);
                    s
                };
                let want = run(Simd::Scalar);
                for simd in [Simd::Avx2, Simd::Auto] {
                    assert_bits_eq(
                        &run(simd),
                        &want,
                        &format!("k={k} {qubits:?} {simd:?} [{c0}, {c1})"),
                    );
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
        assert_eq!(cfg.simd, Simd::Auto);
        assert!(cfg.threads >= 1);
    }
}
