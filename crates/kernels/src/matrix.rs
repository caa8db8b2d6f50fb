//! Kernel-facing matrix layout.
//!
//! [`GateMatrix`] (re-exported from `qsim-util`) is the portable dense
//! matrix; [`PackedMatrix`] is the Eq. (2)-(3) layout consumed by the
//! scalar step-3 kernel: for every entry `m`, the pairs `(m_R, m_R)` and
//! `(-m_I, m_I)` are stored contiguously so the inner loop is exactly two
//! fused multiply-adds per entry. (The block-lane kernel packs its own
//! broadcast-operand form, [`crate::lane::PackedLane`].)

pub use qsim_util::matrix::GateMatrix;

use qsim_util::Real;

/// The Eq. (2)–(3) packed layout of a gate matrix.
///
/// For every output row `l` and input column `i`, two scalar pairs are
/// stored adjacently: `(m_R, m_R)` then `(−m_I, m_I)`. The scalar FMA
/// kernel reads them as `Complex`-shaped pairs, two output rows at a time.
/// Layout (row pair `L = l/2`):
///
/// ```text
/// [ i=0: rr(l=2L), rr(l=2L+1), im(l=2L), im(l=2L+1) | i=1: ... ] per L
/// ```
///
/// i.e. column-major over `i` within a row pair, so the inner loop over
/// inputs streams the matrix linearly.
pub struct PackedMatrix<T> {
    k: u32,
    /// `[row_pair][i][rr0 rr1 im0 im1]` flattened; each rr/im is 2 scalars.
    data: Vec<T>,
}

impl<T: Real> PackedMatrix<T> {
    /// Pack a gate matrix. For odd dimensions this cannot happen (dims are
    /// powers of two ≥ 2).
    pub fn pack(m: &GateMatrix<T>) -> Self {
        let d = m.dim();
        assert!(d >= 2, "packing needs k >= 1");
        let pairs = d / 2;
        // Per (row pair, input): 8 scalars (rr0 rr1 pair + im0 im1 pair,
        // each entry itself a (x, x) 2-scalar pair).
        let mut data = vec![T::ZERO; pairs * d * 8];
        for lp in 0..pairs {
            for i in 0..d {
                let base = (lp * d + i) * 8;
                let m0 = m.get(2 * lp, i);
                let m1 = m.get(2 * lp + 1, i);
                // (m_R, m_R) for both rows of the pair.
                data[base] = m0.re;
                data[base + 1] = m0.re;
                data[base + 2] = m1.re;
                data[base + 3] = m1.re;
                // (−m_I, m_I) for both rows.
                data[base + 4] = -m0.im;
                data[base + 5] = m0.im;
                data[base + 6] = -m1.im;
                data[base + 7] = m1.im;
            }
        }
        Self { k: m.k(), data }
    }

    #[inline(always)]
    pub fn k(&self) -> u32 {
        self.k
    }

    #[inline(always)]
    pub fn dim(&self) -> usize {
        1usize << self.k
    }

    /// The 8 packed scalars for (row pair `lp`, input `i`).
    #[inline(always)]
    pub fn entry(&self, lp: usize, i: usize) -> &[T] {
        let base = (lp * self.dim() + i) * 8;
        &self.data[base..base + 8]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_util::c64;

    fn h() -> GateMatrix<f64> {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        GateMatrix::from_rows(
            1,
            vec![
                c64::new(s, 0.0),
                c64::new(s, 0.0),
                c64::new(s, 0.0),
                c64::new(-s, 0.0),
            ],
        )
    }

    #[test]
    fn packed_matrix_layout() {
        let m = h();
        let p = PackedMatrix::pack(&m);
        assert_eq!(p.k(), 1);
        assert_eq!(p.dim(), 2);
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert_eq!(p.entry(0, 0), &[s, s, s, s, -0.0, 0.0, -0.0, 0.0]);
        assert_eq!(p.entry(0, 1), &[s, s, -s, -s, -0.0, 0.0, -0.0, 0.0]);
    }

    #[test]
    fn packed_matrix_imaginary_parts() {
        let y_half = GateMatrix::from_rows(
            1,
            vec![
                c64::new(0.5, 0.5),
                c64::new(-0.5, -0.5),
                c64::new(0.5, 0.5),
                c64::new(0.5, 0.5),
            ],
        );
        let p = PackedMatrix::pack(&y_half);
        assert_eq!(p.entry(0, 0), &[0.5, 0.5, 0.5, 0.5, -0.5, 0.5, -0.5, 0.5]);
        assert_eq!(p.entry(0, 1), &[-0.5, -0.5, 0.5, 0.5, 0.5, -0.5, -0.5, 0.5]);
    }
}
