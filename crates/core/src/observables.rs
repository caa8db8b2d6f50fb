//! Observables: sampling, entropy, and cross-entropy diagnostics.
//!
//! The paper's measured quantity for the 36-qubit Edison run is the
//! entropy of the output distribution (§4.2.2); supremacy verification in
//! \[5\] additionally uses cross-entropy statistics against the
//! Porter–Thomas distribution that deep random circuits approach. Both
//! are provided here, plus bitstring sampling (the operational task a
//! supremacy experiment performs).

use crate::state::StateVector;
use qsim_kernels::parallel::PAR_THRESHOLD;
use qsim_util::complex::Complex;
use qsim_util::{Real, Xoshiro256};
use rayon::prelude::*;

/// Amplitudes per leaf of the [`norm_entropy`] reduction tree.
const REDUCE_LEAF: usize = 1 << 12;

/// Σ|α|² and the Shannon entropy (bits) of one partition's amplitudes —
/// the two reductions every engine reports, and the one place they are
/// computed. Each `|α|²` is evaluated at the working precision and
/// accumulated in f64 over fixed leaves of 2^12 amplitudes; the leaf
/// partials are combined by [`tree_sum`]. The association is therefore a
/// function of `amps.len()` alone: the bits do not depend on thread
/// count, CPU count or engine, and because per-partition results are
/// combined by the same pairwise tree (`tree_sum` over chunks, the
/// recursive-doubling `all_reduce_sum` over ranks), any split of a state
/// into 2^g partitions of at least one leaf reduces to the same value.
/// Leaves run in parallel from [`PAR_THRESHOLD`] amplitudes up.
pub fn norm_entropy<R: Real>(amps: &[Complex<R>]) -> (f64, f64) {
    let leaf = |amps: &[Complex<R>]| {
        let (mut norm, mut entropy) = (0.0f64, 0.0f64);
        for a in amps {
            let p = a.norm_sqr().to_f64();
            norm += p;
            if p > 0.0 {
                entropy -= p * p.log2();
            }
        }
        (norm, entropy)
    };
    if amps.len() <= REDUCE_LEAF {
        return leaf(amps);
    }
    let mut partials = vec![(0.0, 0.0); amps.len().div_ceil(REDUCE_LEAF)];
    if amps.len() < PAR_THRESHOLD {
        for (slot, chunk) in partials.iter_mut().zip(amps.chunks(REDUCE_LEAF)) {
            *slot = leaf(chunk);
        }
    } else {
        partials
            .par_chunks_mut(1)
            .enumerate()
            .for_each(|(i, slot)| {
                let end = ((i + 1) * REDUCE_LEAF).min(amps.len());
                slot[0] = leaf(&amps[i * REDUCE_LEAF..end]);
            });
    }
    tree_sum(partials)
}

/// Sum `(norm, entropy)` partials as a balanced pairwise tree: adjacent
/// pairs level by level, an odd last element carried up unchanged. Over
/// 2^g partials this is the association of the recursive-doubling
/// `all_reduce_sum`, so per-chunk partials summed here equal per-rank
/// partials all-reduced there, bit for bit.
pub fn tree_sum(mut partials: Vec<(f64, f64)>) -> (f64, f64) {
    let mut n = partials.len();
    while n > 1 {
        for i in 0..n / 2 {
            let (a, b) = (partials[2 * i], partials[2 * i + 1]);
            partials[i] = (a.0 + b.0, a.1 + b.1);
        }
        if n % 2 == 1 {
            partials[n / 2] = partials[n - 1];
        }
        n = n.div_ceil(2);
    }
    partials.first().copied().unwrap_or((0.0, 0.0))
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

    fn random_amps<R: Real>(len: usize, seed: u64) -> Vec<Complex<R>> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let scale = (len as f64).sqrt();
        (0..len)
            .map(|_| {
                Complex::new(
                    R::from_f64((rng.next_f64() - 0.5) / scale),
                    R::from_f64((rng.next_f64() - 0.5) / scale),
                )
            })
            .collect()
    }

    /// The reduction written out by hand: sequential f64 leaves of 4096
    /// amplitudes, then adjacent leaves paired level by level (an odd
    /// last one moves up as it is). No thread or CPU count enters it.
    fn reference<R: Real>(amps: &[Complex<R>]) -> (f64, f64) {
        fn pair_up(level: Vec<(f64, f64)>) -> (f64, f64) {
            if level.len() == 1 {
                return level[0];
            }
            let next = level
                .chunks(2)
                .map(|pair| match *pair {
                    [a, b] => (a.0 + b.0, a.1 + b.1),
                    _ => pair[0],
                })
                .collect();
            pair_up(next)
        }
        let leaves: Vec<(f64, f64)> = amps
            .chunks(4096)
            .map(|leaf| {
                let (mut norm, mut h) = (0.0f64, 0.0f64);
                for a in leaf {
                    let p = a.norm_sqr().to_f64();
                    norm += p;
                    if p > 0.0 {
                        h -= p * p.log2();
                    }
                }
                (norm, h)
            })
            .collect();
        pair_up(leaves)
    }

    fn bits(v: (f64, f64)) -> (u64, u64) {
        (v.0.to_bits(), v.1.to_bits())
    }

    #[test]
    fn norm_entropy_is_the_fixed_leaf_pairwise_tree() {
        // 2^16 amplitudes: above PAR_THRESHOLD, so the leaves run on
        // however many workers this host has — and must not show it.
        let a64 = random_amps::<f64>(1 << 16, 41);
        let a32 = random_amps::<f32>(1 << 16, 42);
        assert_eq!(bits(norm_entropy(&a64)), bits(reference(&a64)));
        assert_eq!(bits(norm_entropy(&a32)), bits(reference(&a32)));
        // Below the threshold, below one leaf and over an odd, ragged leaf
        // count (3 leaves, the last of 7 amplitudes) the tree is the same one.
        for len in [1usize << 13, 1 << 12, 100, (2 << 12) + 7] {
            assert_eq!(
                bits(norm_entropy(&a64[..len])),
                bits(reference(&a64[..len]))
            );
        }
        assert_eq!(norm_entropy::<f64>(&[]), (0.0, 0.0));
    }

    #[test]
    fn norm_entropy_composes_across_partitions() {
        // Ranks all-reduce and chunks `tree_sum` their partition results:
        // every 2^g-way split reduces to the whole state's bits.
        let amps = random_amps::<f64>(1 << 16, 43);
        let whole = bits(norm_entropy(&amps));
        for parts in [2usize, 4, 16] {
            let per_part = amps.chunks(amps.len() / parts).map(norm_entropy).collect();
            assert_eq!(bits(tree_sum(per_part)), whole, "{parts} partitions");
        }
        // An odd count carries its last element up unchanged.
        let v = vec![(1.0, 0.5), (2.0, 0.25), (4.0, 0.125)];
        assert_eq!(tree_sum(v), ((1.0 + 2.0) + 4.0, (0.5 + 0.25) + 0.125));
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
    fn marginals_of_bell_state() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        let state = SingleNodeSimulator::default().try_run_t(&c).unwrap().state;
        for m in marginals(&state) {
            assert!((m - 0.5).abs() < 1e-12);
        }
    }
}
