//! Property tests over the live-progress ETA engine's numeric inputs.
//!
//! The cost-model prior arrives as an `f64` that nothing upstream
//! sanitizes: a zero or non-finite weight in a hand-built model can hand
//! `set_predicted_seconds` a NaN or ±∞. Before the clamp, the
//! `(seconds * 1e9) as u64` cast saturated +∞ to `u64::MAX` ns (~585
//! years), poisoning every ETA blend a monitoring surface would render.
//! These tests drive the seed with arbitrary *bit patterns* — every
//! NaN payload, both infinities, subnormals, negatives — and assert the
//! snapshot math stays finite and non-negative.

use proptest::prelude::*;
use qsim_telemetry::Progress;

/// A seed drawn from the classes a degenerate cost model can produce:
/// the non-finite specials explicitly, plus arbitrary positive and
/// negative bit patterns (which cover subnormals, huge finites, and —
/// rarely — more NaN payloads).
fn seed_class(class: u8, bits: u64) -> f64 {
    match class {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -f64::from_bits(bits >> 1),
        _ => f64::from_bits(bits),
    }
}

proptest! {
    #[test]
    fn predicted_seconds_survive_arbitrary_bit_patterns(
        class in 0u8..6,
        bits in 0u64..u64::MAX,
        planned in 1u64..=1_000,
        done_units in 0u64..=1_000,
    ) {
        let seed = seed_class(class, bits);
        let p = Progress::new();
        p.set_planned_units(planned);
        p.set_predicted_seconds(seed);
        for _ in 0..done_units.min(planned) {
            p.unit_done(1_000_000);
        }
        let snap = p.snapshot();
        prop_assert!(
            snap.predicted_seconds.is_finite() && snap.predicted_seconds >= 0.0,
            "stored prior not finite: {} (seed {seed:e})",
            snap.predicted_seconds
        );
        // A degenerate prior means "no prior", never a 585-year one.
        prop_assert!(
            snap.predicted_seconds < 1e18,
            "saturated cast leaked through: {}",
            snap.predicted_seconds
        );
        if let Some(eta) = snap.eta_seconds() {
            prop_assert!(
                eta.is_finite() && eta >= 0.0,
                "ETA blend poisoned: {eta} (seed {seed:e})"
            );
        }
        prop_assert!(snap.permille() <= 1000, "permille {}", snap.permille());
    }

    #[test]
    fn non_finite_seeds_are_dropped_to_no_prior(kind in 0usize..3) {
        let seed = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][kind];
        let p = Progress::new();
        p.set_predicted_seconds(seed);
        prop_assert_eq!(p.snapshot().predicted_seconds, 0.0);
    }
}
