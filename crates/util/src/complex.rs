//! Complex arithmetic for state-vector amplitudes.
//!
//! Amplitudes are stored interleaved (`re`, `im`) — the layout the paper's
//! kernels assume. The type is `#[repr(C)]` so a `&[Complex<T>]` can be
//! reinterpreted as `&[T]` of twice the length when a kernel wants to
//! address the real/imaginary streams directly (see `qsim-kernels`), and
//! as raw bytes when a partition goes to disk ([`amps_as_bytes`], the
//! workspace's one such cast).
//!
//! Beyond the usual operators, [`Complex::mul_add_eq23`] implements the
//! paper's Eq. (2)–(3) update: the accumulation
//! `(ṽ_R, ṽ_I) += (v_R·m_R, v_I·m_R)` followed by
//! `(ṽ_R, ṽ_I) += (v_I·(−m_I), v_R·m_I)`,
//! expressed as two fused multiply-adds per component.

use crate::precision::Real;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with interleaved `(re, im)` layout.
#[derive(Copy, Clone, PartialEq, Default)]
#[repr(C)]
pub struct Complex<T> {
    pub re: T,
    pub im: T,
}

/// Double-precision amplitude (the paper's default representation).
#[allow(non_camel_case_types)]
pub type c64 = Complex<f64>;
/// Single-precision amplitude (the paper's §5 option for 46 qubits).
#[allow(non_camel_case_types)]
pub type c32 = Complex<f32>;

impl<T: Real> Complex<T> {
    pub const fn new(re: T, im: T) -> Self {
        Self { re, im }
    }

    #[inline(always)]
    pub fn zero() -> Self {
        Self::new(T::ZERO, T::ZERO)
    }

    #[inline(always)]
    pub fn one() -> Self {
        Self::new(T::ONE, T::ZERO)
    }

    #[inline(always)]
    pub fn i() -> Self {
        Self::new(T::ZERO, T::ONE)
    }

    /// `e^{iθ}` — unit phase, used for T/rotation gate matrices.
    #[inline]
    pub fn from_polar(r: T, theta: T) -> Self {
        Self::new(r * theta.cos(), r * theta.sin())
    }

    /// `|z|²` without the square root; probabilities are built from this.
    #[inline(always)]
    pub fn norm_sqr(self) -> T {
        self.re.mul_add(self.re, self.im * self.im)
    }

    #[inline(always)]
    pub fn abs(self) -> T {
        self.norm_sqr().sqrt()
    }

    #[inline(always)]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Scale by a real factor.
    #[inline(always)]
    pub fn scale(self, s: T) -> Self {
        Self::new(self.re * s, self.im * s)
    }

    /// Fused-multiply-add accumulation in the paper's Eq. (2)–(3) form.
    ///
    /// Computes `self += v * m` using the re-association
    /// ```text
    /// (ṽ_R, ṽ_I) += (v_R·m_R, v_I·m_R)        // Eq. (2)
    /// (ṽ_R, ṽ_I) += (v_I·(−m_I), v_R·m_I)     // Eq. (3)
    /// ```
    /// so each component is exactly two FMAs. The vectorized kernels mirror
    /// this with packed `(m_R, m_R)` / `(−m_I, m_I)` pairs.
    #[inline(always)]
    pub fn mul_add_eq23(&mut self, v: Self, m: Self) {
        // Eq. (2): multiply both components of v by m_R.
        self.re = v.re.mul_add(m.re, self.re);
        self.im = v.im.mul_add(m.re, self.im);
        // Eq. (3): multiply the swapped components by (−m_I, m_I).
        self.re = v.im.mul_add(-m.im, self.re);
        self.im = v.re.mul_add(m.im, self.im);
    }

    /// Multiplicative inverse. Panics in debug mode on zero.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        debug_assert!(d > T::ZERO, "division by zero complex number");
        Self::new(self.re / d, -self.im / d)
    }

    /// True when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Convert the precision of this amplitude (f64 ↔ f32).
    #[inline]
    pub fn convert<U: Real>(self) -> Complex<U> {
        Complex::new(U::from_f64(self.re.to_f64()), U::from_f64(self.im.to_f64()))
    }
}

impl<T: Real> Add for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl<T: Real> Sub for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl<T: Real> Mul for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re.mul_add(rhs.re, -(self.im * rhs.im)),
            self.re.mul_add(rhs.im, self.im * rhs.re),
        )
    }
}

impl<T: Real> Div for Complex<T> {
    type Output = Self;
    #[inline]
    // z / w computed as z * w⁻¹ — intentional, not a typo'd operator.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Self) -> Self {
        self * rhs.recip()
    }
}

impl<T: Real> Neg for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl<T: Real> AddAssign for Complex<T> {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<T: Real> SubAssign for Complex<T> {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<T: Real> MulAssign for Complex<T> {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<T: Real> Mul<T> for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: T) -> Self {
        self.scale(rhs)
    }
}

impl<T: Real> Sum for Complex<T> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::zero(), |a, b| a + b)
    }
}

impl<T: fmt::Debug> fmt::Debug for Complex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:?}{:+?}i)", self.re, self.im)
    }
}

impl<T: fmt::Display> fmt::Display for Complex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}{:+}i)", self.re, self.im)
    }
}

impl<T: Real> From<T> for Complex<T> {
    fn from(re: T) -> Self {
        Self::new(re, T::ZERO)
    }
}

/// The bytes of an amplitude slice, for file IO: `(re, im)` scalar pairs
/// in native byte order (little-endian on every supported target). Sound
/// because `Complex<T>` is `#[repr(C)] { re: T, im: T }` over `f32` or
/// `f64` ([`Real`]): no padding, every byte initialized.
#[inline]
pub fn amps_as_bytes<T: Real>(amps: &[Complex<T>]) -> &[u8] {
    // SAFETY: see above; the byte length is exactly the slice's size.
    unsafe { core::slice::from_raw_parts(amps.as_ptr().cast::<u8>(), core::mem::size_of_val(amps)) }
}

/// Mutable byte view of an amplitude slice (for `read_exact`). Sound in
/// the write direction too: every bit pattern is a valid float.
#[inline]
pub fn amps_as_bytes_mut<T: Real>(amps: &mut [Complex<T>]) -> &mut [u8] {
    let len = core::mem::size_of_val(amps);
    // SAFETY: see `amps_as_bytes`; any byte pattern is a valid Complex<T>.
    unsafe { core::slice::from_raw_parts_mut(amps.as_mut_ptr().cast::<u8>(), len) }
}

/// Max norm distance between two complex vectors; the workhorse assertion
/// of the test suites ("agrees with the dense reference to 1e-12").
pub fn max_dist<T: Real>(a: &[Complex<T>], b: &[Complex<T>]) -> T {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    let mut m = T::ZERO;
    for (&x, &y) in a.iter().zip(b.iter()) {
        m = m.max_val((x - y).abs());
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: c64, b: c64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn basic_arithmetic() {
        let a = c64::new(1.0, 2.0);
        let b = c64::new(3.0, -4.0);
        assert_eq!(a + b, c64::new(4.0, -2.0));
        assert_eq!(a - b, c64::new(-2.0, 6.0));
        // (1+2i)(3-4i) = 3 - 4i + 6i + 8 = 11 + 2i
        assert!(close(a * b, c64::new(11.0, 2.0)));
        assert!(close((a * b) / b, a));
        assert_eq!(-a, c64::new(-1.0, -2.0));
    }

    #[test]
    fn norm_and_conj() {
        let a = c64::new(3.0, 4.0);
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.abs(), 5.0);
        assert_eq!(a.conj(), c64::new(3.0, -4.0));
        assert!(close(a * a.conj(), c64::new(25.0, 0.0)));
    }

    #[test]
    fn polar_unit_phase() {
        // e^{iπ/4} = (1+i)/√2 — the T-gate phase.
        let t = c64::from_polar(1.0, std::f64::consts::FRAC_PI_4);
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!(close(t, c64::new(s, s)));
        // Eighth power of the T phase is the identity phase.
        let mut p = c64::one();
        for _ in 0..8 {
            p *= t;
        }
        assert!(close(p, c64::one()));
    }

    #[test]
    fn eq23_update_matches_naive_multiply() {
        // The re-associated FMA form must compute exactly v*m (up to one
        // rounding difference which is below 1e-15 for these operands).
        let cases = [
            (c64::new(0.3, -0.7), c64::new(-0.2, 0.9)),
            (c64::new(1.0, 0.0), c64::new(0.0, 1.0)),
            (c64::new(-0.5, 0.5), c64::new(0.25, -0.125)),
        ];
        for (v, m) in cases {
            let mut acc = c64::new(0.1, 0.2);
            acc.mul_add_eq23(v, m);
            let expect = c64::new(0.1, 0.2) + v * m;
            assert!((acc - expect).abs() < 1e-15, "{acc:?} vs {expect:?}");
        }
    }

    #[test]
    fn precision_conversion() {
        let a = c64::new(0.5, -0.25);
        let b: c32 = a.convert();
        assert_eq!(b, c32::new(0.5, -0.25));
        let c: c64 = b.convert();
        assert_eq!(c, a);
    }

    #[test]
    fn max_dist_finds_largest_deviation() {
        let a = vec![c64::one(), c64::zero(), c64::i()];
        let mut b = a.clone();
        b[2] = c64::new(0.0, 1.5);
        assert!((max_dist(&a, &b) - 0.5).abs() < 1e-15);
        assert_eq!(max_dist(&a, &a), 0.0);
    }

    #[test]
    fn byte_views_are_little_endian_scalar_pairs() {
        let mut v = vec![c64::new(1.5, -2.0), c64::new(0.0, 3.25)];
        let want: Vec<u8> = v
            .iter()
            .flat_map(|a| [a.re, a.im])
            .flat_map(f64::to_le_bytes)
            .collect();
        assert_eq!(amps_as_bytes(&v), want);
        let w = vec![c32::new(0.5, 7.0)];
        assert_eq!(
            amps_as_bytes(&w),
            [0.5f32.to_le_bytes(), 7.0f32.to_le_bytes()].concat()
        );
        amps_as_bytes_mut(&mut v)[..8].copy_from_slice(&(-4.0f64).to_le_bytes());
        assert_eq!(v[0], c64::new(-4.0, -2.0));
    }

    #[test]
    fn sum_of_amplitudes() {
        let v = vec![c64::new(1.0, 1.0); 4];
        let s: c64 = v.into_iter().sum();
        assert_eq!(s, c64::new(4.0, 4.0));
    }
}
