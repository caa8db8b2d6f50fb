//! The state-vector container.
//!
//! Wraps a 64-byte-aligned amplitude buffer with the operations every
//! engine needs: initialization (|0…0⟩ or the uniform superposition the
//! paper starts supremacy runs from, §3.6), gate application through the
//! kernel dispatch, local qubit permutation, norm, marginals and
//! entropy. Generic over precision (f64 default; f32 per §5).

use crate::observables::norm_entropy;
use qsim_kernels::apply::{apply_gate, KernelConfig};
use qsim_kernels::parallel::PAR_THRESHOLD;
use qsim_kernels::specialized;
use qsim_kernels::SweepDispatch;
use qsim_util::bits::{log2_exact, BitPermutation};
use qsim_util::complex::Complex;
use qsim_util::matrix::GateMatrix;
use qsim_util::AlignedVec;
use rayon::prelude::*;

/// An n-qubit (or rank-local l-qubit) state vector.
pub struct StateVector<T = f64> {
    amps: AlignedVec<Complex<T>>,
    n_qubits: u32,
}

impl<T: SweepDispatch> StateVector<T> {
    /// |0…0⟩.
    pub fn zero(n_qubits: u32) -> Self {
        let mut amps = AlignedVec::new_zeroed(1usize << n_qubits);
        amps[0] = Complex::one();
        Self { amps, n_qubits }
    }

    /// All-zero amplitudes (for rank slices whose |0…0⟩ lives elsewhere).
    pub fn null(n_qubits: u32) -> Self {
        Self {
            amps: AlignedVec::new_zeroed(1usize << n_qubits),
            n_qubits,
        }
    }

    /// The uniform superposition 2^{−n/2}(1,…,1)ᵀ — the state after the
    /// initial Hadamard layer, which the simulator writes directly
    /// instead of executing the H gates (§3.6). Written in parallel.
    pub fn uniform(n_qubits: u32) -> Self {
        Self::uniform_part(n_qubits, n_qubits, true)
    }

    /// Uniform amplitude value for a SLICE of a larger uniform state:
    /// every amplitude is 2^{−total/2}. Written by the calling thread: a
    /// rank fills its own slice, and the ranks are the parallelism.
    pub fn uniform_slice(local_qubits: u32, total_qubits: u32) -> Self {
        Self::uniform_part(local_qubits, total_qubits, false)
    }

    /// `2^local` amplitudes of the `total`-qubit uniform superposition.
    /// With `parallel`, from [`PAR_THRESHOLD`] amplitudes up the pool that
    /// will sweep the partition writes it, each thread faulting in the
    /// pages it fills — the paper's first-touch initialization (§3.3).
    pub(crate) fn uniform_part(local_qubits: u32, total_qubits: u32, parallel: bool) -> Self {
        let len = 1usize << local_qubits;
        let amp = Complex::new(
            T::ONE / T::from_usize(1usize << total_qubits).sqrt(),
            T::ZERO,
        );
        let amps = if !parallel || len < PAR_THRESHOLD {
            AlignedVec::from_fn(len, |_| amp)
        } else {
            AlignedVec::from_fn_with(
                len,
                |chunks, fill| {
                    (0..chunks)
                        .collect::<Vec<_>>()
                        .into_par_iter()
                        .for_each(fill)
                },
                |_| amp,
            )
        };
        Self {
            amps,
            n_qubits: local_qubits,
        }
    }

    /// Adopt an existing amplitude vector.
    pub fn from_amplitudes(amps: Vec<Complex<T>>) -> Self {
        let n_qubits = log2_exact(amps.len());
        Self {
            amps: AlignedVec::from_slice(&amps),
            n_qubits,
        }
    }

    #[inline]
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.amps.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    #[inline]
    pub fn amplitudes(&self) -> &[Complex<T>] {
        &self.amps
    }

    #[inline]
    pub fn amplitudes_mut(&mut self) -> &mut [Complex<T>] {
        &mut self.amps
    }

    /// Apply a dense k-qubit gate at `qubits` using the configured kernel.
    pub fn apply(&mut self, qubits: &[u32], m: &GateMatrix<T>, cfg: &KernelConfig) {
        apply_gate(&mut self.amps, qubits, m, cfg);
    }

    /// In-place bit-position permutation (local qubit reordering, §3.4).
    pub fn permute_qubits(&mut self, perm: &BitPermutation) {
        specialized::permute_qubits_inplace(&mut self.amps, perm);
    }

    /// Σ|α|² — must stay 1 under unitary circuits. Accumulated in f64
    /// ([`norm_entropy`]) whatever `T` is.
    pub fn norm_sqr(&self) -> T {
        T::from_f64(norm_entropy(&self.amps).0)
    }

    /// Probability that qubit (bit position) `q` reads 1.
    pub fn prob_one(&self, q: u32) -> T {
        specialized::prob_one(&self.amps, q)
    }

    /// Shannon entropy (bits) of the outcome distribution, accumulated
    /// like [`StateVector::norm_sqr`].
    pub fn entropy(&self) -> T {
        T::from_f64(norm_entropy(&self.amps).1)
    }

    /// Convert precision (f64 ↔ f32), e.g. for the §5 single-precision
    /// mode.
    pub fn convert<U: SweepDispatch>(&self) -> StateVector<U> {
        StateVector::from_amplitudes(self.amps.iter().map(|a| a.convert()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_circuit::Gate;
    use qsim_util::c64;

    #[test]
    fn initial_states() {
        let z = StateVector::<f64>::zero(4);
        assert_eq!(z.len(), 16);
        assert_eq!(z.amplitudes()[0], c64::one());
        assert!((z.norm_sqr() - 1.0).abs() < 1e-15);

        let u = StateVector::<f64>::uniform(4);
        assert!((u.norm_sqr() - 1.0).abs() < 1e-12);
        assert!(
            (u.entropy() - 4.0).abs() < 1e-12,
            "uniform entropy = n bits"
        );

        // A 2-qubit slice of a 4-qubit uniform state: norm = 4/16.
        let s = StateVector::<f64>::uniform_slice(2, 4);
        assert!((s.norm_sqr() - 0.25).abs() < 1e-12);
    }

    /// The constructors write the state once, into memory that was never
    /// zeroed; what they write must be what zero-then-fill wrote, to the
    /// bit, on both sides of the parallel seam and of a fill-chunk
    /// boundary (2^12 c64, 2^13 c32) — OOC-f32 vs dist-f32 bit-equality
    /// rests on the uniform amplitude.
    #[test]
    fn constructors_match_zero_then_fill() {
        fn check<T: SweepDispatch>() {
            let bits = |amps: &[Complex<T>]| -> Vec<(u64, u64)> {
                amps.iter()
                    .map(|a| (a.re.to_f64().to_bits(), a.im.to_f64().to_bits()))
                    .collect()
            };
            let zero_then_fill = |len: usize, amp: Complex<T>| {
                let mut v = AlignedVec::new_zeroed(len);
                v.iter_mut().for_each(|a| *a = amp);
                bits(&v)
            };
            for n in [1u32, 11, 13, 14, 16] {
                let len = 1usize << n;
                let amp = Complex::new(T::ONE / T::from_usize(len).sqrt(), T::ZERO);
                let u = StateVector::<T>::uniform(n);
                assert_eq!(
                    bits(u.amplitudes()),
                    zero_then_fill(len, amp),
                    "uniform({n})"
                );

                let total = n + 5;
                let amp = Complex::new(T::ONE / T::from_usize(1usize << total).sqrt(), T::ZERO);
                let s = StateVector::<T>::uniform_slice(n, total);
                assert_eq!(s.n_qubits(), n);
                assert_eq!(bits(s.amplitudes()), zero_then_fill(len, amp), "slice({n})");

                let mut want = zero_then_fill(len, Complex::zero());
                assert_eq!(
                    bits(StateVector::<T>::null(n).amplitudes()),
                    want,
                    "null({n})"
                );
                want[0] = (1f64.to_bits(), 0);
                assert_eq!(
                    bits(StateVector::<T>::zero(n).amplitudes()),
                    want,
                    "zero({n})"
                );
            }
        }
        check::<f64>();
        check::<f32>();
    }

    #[test]
    fn apply_h_gives_uniform() {
        let mut s = StateVector::<f64>::zero(3);
        let cfg = KernelConfig::sequential();
        let h: GateMatrix<f64> = Gate::H(0).matrix();
        for q in 0..3 {
            s.apply(&[q], &h, &cfg);
        }
        let u = StateVector::<f64>::uniform(3);
        assert!(qsim_util::complex::max_dist(s.amplitudes(), u.amplitudes()) < 1e-12);
    }

    #[test]
    fn permutation_moves_marginals() {
        let mut s = StateVector::<f64>::zero(3);
        let cfg = KernelConfig::sequential();
        let x: GateMatrix<f64> = Gate::X(0).matrix();
        s.apply(&[0], &x, &cfg); // |001>
        assert!((s.prob_one(0) - 1.0).abs() < 1e-12);
        s.permute_qubits(&BitPermutation::transposition(3, 0, 2));
        assert!((s.prob_one(2) - 1.0).abs() < 1e-12);
        assert!(s.prob_one(0).abs() < 1e-12);
    }

    #[test]
    fn precision_conversion_round_trip() {
        let mut s = StateVector::<f64>::uniform(3);
        for (i, a) in s.amplitudes_mut().iter_mut().enumerate() {
            if i & 0b10 != 0 {
                *a *= c64::from_polar(1.0, 0.5);
            }
        }
        let s32: StateVector<f32> = s.convert();
        let back: StateVector<f64> = s32.convert();
        assert!(qsim_util::complex::max_dist(s.amplitudes(), back.amplitudes()) < 1e-6);
    }

    #[test]
    fn from_amplitudes_infers_size() {
        let v = vec![c64::zero(); 8];
        let s = StateVector::from_amplitudes(v);
        assert_eq!(s.n_qubits(), 3);
    }
}
