//! Projective measurement and state collapse.
//!
//! Simulators of near-term devices need mid-circuit measurement for
//! calibration protocols (§1: "calibration, validation, and
//! benchmarking"). Measuring qubit `q` yields outcome 1 with
//! `p = Σ_{i: bit q set} |α_i|²`, then collapses the state by zeroing the
//! non-matching amplitudes and renormalizing by `1/√p`.

use crate::state::StateVector;
use qsim_util::bits::get_bit;
use qsim_util::Xoshiro256;

/// Measure qubit `q`, collapse in place, return the outcome (0/1).
pub fn measure_qubit(state: &mut StateVector<f64>, q: u32, rng: &mut Xoshiro256) -> u8 {
    let p1 = state.prob_one(q);
    let outcome = if rng.next_f64() < p1 { 1u8 } else { 0u8 };
    collapse_qubit(state, q, outcome);
    outcome
}

/// Force qubit `q` into `outcome` (post-selection); panics if the outcome
/// has zero probability.
pub fn collapse_qubit(state: &mut StateVector<f64>, q: u32, outcome: u8) {
    let p1 = state.prob_one(q);
    let p = if outcome == 1 { p1 } else { 1.0 - p1 };
    assert!(p > 1e-300, "collapse onto zero-probability outcome");
    let scale = 1.0 / p.sqrt();
    let want = outcome as usize;
    for (i, a) in state.amplitudes_mut().iter_mut().enumerate() {
        if get_bit(i, q) == want {
            *a = a.scale(scale);
        } else {
            *a = qsim_util::c64::zero();
        }
    }
}

/// Measure every qubit (a full computational-basis shot), collapsing the
/// state onto one basis vector. Returns the observed bitstring.
pub fn measure_all(state: &mut StateVector<f64>, rng: &mut Xoshiro256) -> usize {
    let n = state.n_qubits();
    let mut out = 0usize;
    for q in 0..n {
        out |= (measure_qubit(state, q, rng) as usize) << q;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::SingleNodeSimulator;
    use qsim_circuit::Circuit;

    fn bell() -> StateVector<f64> {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        SingleNodeSimulator::default().try_run_t(&c).unwrap().state
    }

    #[test]
    fn bell_measurements_are_correlated() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let mut ones = 0usize;
        for _ in 0..200 {
            let mut s = bell();
            let m0 = measure_qubit(&mut s, 0, &mut rng);
            let m1 = measure_qubit(&mut s, 1, &mut rng);
            assert_eq!(m0, m1, "Bell pairs are perfectly correlated");
            ones += m0 as usize;
        }
        assert!((40..160).contains(&ones), "outcomes wildly biased: {ones}");
    }

    #[test]
    fn collapse_renormalizes() {
        let mut s = bell();
        collapse_qubit(&mut s, 0, 1);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
        // Collapsed onto |11>.
        assert!((s.amplitudes()[3].abs() - 1.0).abs() < 1e-12);
        assert!(s.amplitudes()[0].abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero-probability")]
    fn impossible_postselection_panics() {
        let mut c = Circuit::new(1);
        c.x(0); // state |1>
        let mut s = SingleNodeSimulator::default().try_run_t(&c).unwrap().state;
        collapse_qubit(&mut s, 0, 0);
    }

    #[test]
    fn measure_all_yields_basis_state() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let mut s = bell();
        let shot = measure_all(&mut s, &mut rng);
        assert!(
            shot == 0 || shot == 3,
            "Bell shot must be 00 or 11, got {shot}"
        );
        // Fully collapsed.
        assert!((s.amplitudes()[shot].abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measurement_statistics_match_probabilities() {
        // 3-qubit GHZ through 500 full shots.
        let mut c = Circuit::new(3);
        c.h(0).cnot(0, 1).cnot(1, 2);
        let base = SingleNodeSimulator::default().try_run_t(&c).unwrap().state;
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut count7 = 0usize;
        for _ in 0..500 {
            let mut s = StateVector::from_amplitudes(base.amplitudes().to_vec());
            match measure_all(&mut s, &mut rng) {
                0 => {}
                7 => count7 += 1,
                other => panic!("GHZ shot {other} impossible"),
            }
        }
        let frac = count7 as f64 / 500.0;
        assert!((frac - 0.5).abs() < 0.1, "fraction {frac}");
    }
}
