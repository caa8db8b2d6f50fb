//! Fixtures shared by the bit-exactness unit tests.

use qsim_util::complex::Complex;
use qsim_util::{Real, Xoshiro256};

/// `len` amplitudes with components uniform in [−½, ½).
pub(crate) fn random_amps<T: Real>(len: usize, rng: &mut Xoshiro256) -> Vec<Complex<T>> {
    (0..len)
        .map(|_| {
            Complex::new(
                T::from_f64(rng.next_f64() - 0.5),
                T::from_f64(rng.next_f64() - 0.5),
            )
        })
        .collect()
}

/// `to_bits()` equality of every component — not `==`, which would let
/// `-0.0` pass for `0.0`.
pub(crate) fn assert_bits_eq<T: Real>(a: &[Complex<T>], b: &[Complex<T>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: lengths");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.re.to_bits_u64() == y.re.to_bits_u64() && x.im.to_bits_u64() == y.im.to_bits_u64(),
            "{} {what}: amplitude {i} differs: {x:?} vs {y:?}",
            T::NAME
        );
    }
}
