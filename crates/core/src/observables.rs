//! Observables: sampling, entropy, and cross-entropy diagnostics.
//!
//! The paper's measured quantity for the 36-qubit Edison run is the
//! entropy of the output distribution (§4.2.2); supremacy verification in
//! \[5\] additionally uses cross-entropy statistics against the
//! Porter–Thomas distribution that deep random circuits approach. Both
//! are provided here, plus bitstring sampling (the operational task a
//! supremacy experiment performs).

use crate::state::StateVector;
use qsim_util::complex::Complex;
use qsim_util::{Real, Xoshiro256};

/// Σ|α|² and the Shannon entropy (bits) of one partition's amplitudes —
/// the two reductions every engine reports. Each `|α|²` is evaluated at
/// the working precision and accumulated sequentially in f64, so the
/// reported observables are comparable across precision tiers (and at
/// `R = f64` bit-identical to an all-`R` fold).
pub fn norm_entropy<R: Real>(amps: &[Complex<R>]) -> (f64, f64) {
    let (mut norm, mut entropy) = (0.0f64, 0.0f64);
    for a in amps {
        let p = a.norm_sqr().to_f64();
        norm += p;
        if p > 0.0 {
            entropy -= p * p.log2();
        }
    }
    (norm, entropy)
}

/// Sample `shots` bitstrings from the outcome distribution.
///
/// Inverse-CDF walk per shot over the amplitude array — O(2^n) per shot
/// in the worst case but cache-friendly; fine for the 2^20-amplitude
/// states the examples use.
pub fn sample_bitstrings(
    state: &StateVector<f64>,
    rng: &mut Xoshiro256,
    shots: usize,
) -> Vec<usize> {
    let amps = state.amplitudes();
    let mut out = Vec::with_capacity(shots);
    for _ in 0..shots {
        let mut target = rng.next_f64();
        let mut idx = amps.len() - 1;
        for (i, a) in amps.iter().enumerate() {
            let p = a.norm_sqr();
            if target < p {
                idx = i;
                break;
            }
            target -= p;
        }
        out.push(idx);
    }
    out
}

/// Shannon entropy (bits) of an explicit probability vector.
pub fn entropy_of(probs: &[f64]) -> f64 {
    let mut h = 0.0;
    for &p in probs {
        if p > 0.0 {
            h -= p * p.log2();
        }
    }
    h
}

/// The linear cross-entropy benchmarking fidelity (XEB) of a set of
/// sampled bitstrings against the simulated distribution:
/// `F = 2^n · ⟨p(x_i)⟩ − 1`. Sampling from the circuit's own output
/// distribution gives F ≈ 1 for Porter–Thomas-shaped distributions;
/// uniform sampling gives F ≈ 0.
pub fn linear_xeb(state: &StateVector<f64>, samples: &[usize]) -> f64 {
    assert!(!samples.is_empty());
    let n = state.n_qubits();
    let amps = state.amplitudes();
    let mean_p: f64 =
        samples.iter().map(|&i| amps[i].norm_sqr()).sum::<f64>() / samples.len() as f64;
    (1usize << n) as f64 * mean_p - 1.0
}

/// Porter–Thomas shape statistic: for a deep random circuit the scaled
/// probabilities `x = N·p` follow `P(x) = e^{−x}`, so the expected
/// entropy is `log2(N) − (1 − γ)/ln 2 ≈ n − 0.6099`. Returns the
/// deviation `entropy − (n − 0.6099)` in bits; near 0 for supremacy
/// circuits of sufficient depth, strongly positive for shallow/product
/// states.
pub fn porter_thomas_entropy_gap(state: &StateVector<f64>) -> f64 {
    let n = state.n_qubits() as f64;
    let expected = n - (1.0 - 0.577_215_664_901_532_9) / std::f64::consts::LN_2;
    state.entropy() - expected
}

/// Marginal single-qubit probabilities `P(q = 1)` for all qubits.
pub fn marginals(state: &StateVector<f64>) -> Vec<f64> {
    (0..state.n_qubits()).map(|q| state.prob_one(q)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::SingleNodeSimulator;
    use qsim_circuit::supremacy::{supremacy_circuit, SupremacySpec};
    use qsim_circuit::Circuit;

    fn deep_state(n_rows: u32, n_cols: u32, depth: u32) -> StateVector<f64> {
        let c = supremacy_circuit(&SupremacySpec {
            rows: n_rows,
            cols: n_cols,
            depth,
            seed: 123,
        });
        SingleNodeSimulator::default().try_run_t(&c).unwrap().state
    }

    #[test]
    fn sampling_respects_distribution() {
        // GHZ-like: only |00> and |11> appear.
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        let state = SingleNodeSimulator::default().try_run_t(&c).unwrap().state;
        let mut rng = Xoshiro256::seed_from_u64(5);
        let samples = sample_bitstrings(&state, &mut rng, 2000);
        let zeros = samples.iter().filter(|&&s| s == 0).count();
        let threes = samples.iter().filter(|&&s| s == 3).count();
        assert_eq!(zeros + threes, 2000, "only GHZ outcomes may appear");
        let frac = zeros as f64 / 2000.0;
        assert!((frac - 0.5).abs() < 0.05, "zeros fraction {frac}");
    }

    #[test]
    fn xeb_close_to_one_for_own_distribution() {
        let state = deep_state(3, 4, 28);
        let mut rng = Xoshiro256::seed_from_u64(9);
        let samples = sample_bitstrings(&state, &mut rng, 4000);
        let f = linear_xeb(&state, &samples);
        // Finite-size instances fluctuate around the Porter–Thomas value
        // of 1; the signal is that own-distribution sampling sits near 1
        // while uniform sampling (next test) sits near 0.
        assert!(
            (0.5..2.0).contains(&f),
            "XEB for own-distribution sampling should be ~1, got {f}"
        );
    }

    #[test]
    fn xeb_near_zero_for_uniform_sampling() {
        let state = deep_state(3, 3, 20);
        let mut rng = Xoshiro256::seed_from_u64(10);
        let samples: Vec<usize> = (0..4000)
            .map(|_| rng.next_below(state.len() as u64) as usize)
            .collect();
        let f = linear_xeb(&state, &samples);
        assert!(f.abs() < 0.2, "uniform sampling XEB should be ~0, got {f}");
    }

    #[test]
    fn porter_thomas_gap_small_for_deep_circuits() {
        let state = deep_state(3, 4, 28);
        let gap = porter_thomas_entropy_gap(&state);
        assert!(gap.abs() < 0.35, "deep circuit PT gap {gap}");
        // Uniform superposition is far from Porter–Thomas (entropy = n).
        let uniform = StateVector::<f64>::uniform(9);
        assert!(porter_thomas_entropy_gap(&uniform) > 0.5);
    }

    #[test]
    fn entropy_of_matches_statevector_entropy() {
        let state = deep_state(2, 3, 12);
        let h1 = entropy_of(&state.probabilities());
        assert!((h1 - state.entropy()).abs() < 1e-12);
    }

    #[test]
    fn marginals_of_bell_state() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        let state = SingleNodeSimulator::default().try_run_t(&c).unwrap().state;
        for m in marginals(&state) {
            assert!((m - 0.5).abs() < 1e-12);
        }
    }
}
