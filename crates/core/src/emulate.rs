//! Emulation shortcuts — the paper's §1 contrast case (ref \[7\]):
//!
//! > "quantum Fourier transform … can be emulated by applying a fast
//! > Fourier transform to the state vector. However, such emulation
//! > techniques are not applicable to quantum supremacy circuits."
//!
//! [`emulate_qft`] applies the QFT to a state as one radix-2 FFT sweep
//! (O(N log N) instead of O(N·n²) gate kernels); the example
//! `qft_emulation` measures the gap. The FFT is implemented here —
//! iterative Cooley–Tukey with bit-reversal — to keep the workspace
//! dependency-free.

use crate::state::StateVector;
use qsim_util::c64;

/// In-place iterative radix-2 Cooley–Tukey FFT with sign `s ∈ {−1, +1}`
/// in the exponent `e^{s·2πi·jk/N}` and NO normalization.
pub fn fft_inplace(data: &mut [c64], sign: f64) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if j > i {
            data.swap(i, j);
        }
    }
    let mut len = 2usize;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = c64::from_polar(1.0, ang);
        let mut i = 0;
        while i < n {
            let mut w = c64::one();
            for j in 0..len / 2 {
                let u = data[i + j];
                let v = data[i + j + len / 2] * w;
                data[i + j] = u + v;
                data[i + j + len / 2] = u - v;
                w *= wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Apply the n-qubit QFT to the whole state as one FFT:
/// `b_k = 2^{−n/2} Σ_x a_x e^{2πi·xk/2^n}`.
pub fn emulate_qft(state: &mut StateVector<f64>) {
    let n = state.len();
    fft_inplace(state.amplitudes_mut(), 1.0);
    let scale = 1.0 / (n as f64).sqrt();
    for a in state.amplitudes_mut() {
        *a = a.scale(scale);
    }
}

/// Inverse QFT via the conjugate FFT.
pub fn emulate_iqft(state: &mut StateVector<f64>) {
    let n = state.len();
    fft_inplace(state.amplitudes_mut(), -1.0);
    let scale = 1.0 / (n as f64).sqrt();
    for a in state.amplitudes_mut() {
        *a = a.scale(scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::SingleNodeSimulator;
    use qsim_circuit::algorithms::qft;
    use qsim_util::complex::max_dist;
    use qsim_util::Xoshiro256;

    #[test]
    fn fft_matches_direct_dft() {
        let n = 64usize;
        let mut rng = Xoshiro256::seed_from_u64(2);
        let input: Vec<c64> = (0..n)
            .map(|_| c64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
            .collect();
        let mut fast = input.clone();
        fft_inplace(&mut fast, 1.0);
        for (k, f) in fast.iter().enumerate() {
            let mut direct = c64::zero();
            for (x, a) in input.iter().enumerate() {
                let theta = 2.0 * std::f64::consts::PI * (x * k % n) as f64 / n as f64;
                direct += *a * c64::from_polar(1.0, theta);
            }
            assert!((*f - direct).abs() < 1e-9, "k={k}");
        }
    }

    #[test]
    fn fft_round_trip() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let input: Vec<c64> = (0..256)
            .map(|_| c64::new(rng.next_f64(), rng.next_f64()))
            .collect();
        let mut data = input.clone();
        fft_inplace(&mut data, 1.0);
        fft_inplace(&mut data, -1.0);
        let inv = 1.0 / 256.0;
        data.iter_mut().for_each(|a| *a = a.scale(inv));
        assert!(max_dist(&data, &input) < 1e-10);
    }

    #[test]
    fn emulated_qft_matches_gate_level_qft() {
        // The [7] check: FFT emulation == gate-by-gate QFT circuit.
        for n in [3u32, 5, 8] {
            let circuit = qft(n);
            // Random input state, via a quick scrambling circuit.
            let scramble = qsim_circuit::algorithms::brickwork_1d(n, 4, 77);
            let input = SingleNodeSimulator::default()
                .try_run_t(&scramble)
                .unwrap()
                .state;

            // Gate-level: apply the QFT gates to the input.
            let mut gate_level = crate::StateVector::from_amplitudes(input.amplitudes().to_vec());
            let cfg = qsim_kernels::apply::KernelConfig::sequential();
            for g in circuit.gates() {
                let m: qsim_util::matrix::GateMatrix<f64> = g.matrix();
                if let Some(d) = m.as_diagonal() {
                    gate_level.apply_diagonal(&g.qubits(), &d);
                } else {
                    gate_level.apply(&g.qubits(), &m, &cfg);
                }
            }

            // Emulated.
            let mut emulated = crate::StateVector::from_amplitudes(input.amplitudes().to_vec());
            emulate_qft(&mut emulated);
            assert!(
                max_dist(gate_level.amplitudes(), emulated.amplitudes()) < 1e-9,
                "n={n}: {}",
                max_dist(gate_level.amplitudes(), emulated.amplitudes())
            );
        }
    }

    #[test]
    fn qft_then_iqft_is_identity() {
        let scramble = qsim_circuit::algorithms::brickwork_1d(7, 5, 3);
        let input = SingleNodeSimulator::default()
            .try_run_t(&scramble)
            .unwrap()
            .state;
        let mut s = crate::StateVector::from_amplitudes(input.amplitudes().to_vec());
        emulate_qft(&mut s);
        emulate_iqft(&mut s);
        assert!(max_dist(s.amplitudes(), input.amplitudes()) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_odd_lengths() {
        let mut data = vec![c64::zero(); 12];
        fft_inplace(&mut data, 1.0);
    }
}
