//! FLOP and memory-traffic accounting for the roofline experiments.
//!
//! The paper (§3.1) counts a general single-qubit gate at
//! `2·(4[mul] + 2[add]) + 2[add] = 14` FLOP per output amplitude and derives
//! an operational intensity below 1/2 FLOP/byte — the basis of Fig. 2.
//! Generalized to a dense k-qubit gate, each output amplitude is a scalar
//! product of dimension 2^k: `6·2^k` FLOP of complex multiplies plus
//! `2·(2^k − 1)` FLOP of complex additions, i.e. `8·2^k − 2` per output.
//!
//! These formulas are used both to report GFLOPS in the benchmark harnesses
//! and to place kernels on the roofline (Fig. 2a/2b).

/// FLOP per *output amplitude* for a dense k-qubit gate.
///
/// `flops_per_amplitude(1) == 14`, matching the paper's §3.1 count.
#[inline]
pub fn flops_per_amplitude(k: u32) -> u64 {
    let dim = 1u64 << k;
    8 * dim - 2
}

/// Total FLOP for applying one dense k-qubit gate to an n-qubit state.
#[inline]
pub fn gate_flops(n: u32, k: u32) -> u64 {
    (1u64 << n) * flops_per_amplitude(k)
}

/// Operational intensity (FLOP/byte) of an in-place dense k-qubit kernel.
#[inline]
pub fn operational_intensity(k: u32, scalar_bytes: u64) -> f64 {
    flops_per_amplitude(k) as f64 / (4 * scalar_bytes) as f64
}

/// GFLOPS achieved by `flops` of work done in `seconds`.
#[inline]
pub fn gflops(flops: u64, seconds: f64) -> f64 {
    assert!(seconds > 0.0, "non-positive duration");
    flops as f64 / seconds / 1e9
}

/// A point on the roofline: attainable performance is
/// `min(peak_flops, bandwidth × intensity)`.
#[inline]
pub fn roofline_bound(peak_gflops: f64, bw_gbytes: f64, intensity: f64) -> f64 {
    peak_gflops.min(bw_gbytes * intensity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_qubit_count_matches_paper() {
        assert_eq!(flops_per_amplitude(1), 14);
    }

    #[test]
    fn k_scaling() {
        // 8·2^k − 2.
        assert_eq!(flops_per_amplitude(2), 30);
        assert_eq!(flops_per_amplitude(4), 126);
        assert_eq!(flops_per_amplitude(5), 254);
    }

    #[test]
    fn single_qubit_intensity_below_half() {
        // The paper's §3.1 observation: OI < 1/2 for f64.
        let oi = operational_intensity(1, 8);
        assert!(oi < 0.5, "oi = {oi}");
        assert!((oi - 14.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn four_qubit_intensity_near_four() {
        // Fig. 2 places the 4-qubit kernel near OI ≈ 4 FLOP/byte.
        let oi = operational_intensity(4, 8);
        assert!((oi - 126.0 / 32.0).abs() < 1e-12);
        assert!(oi > 3.9 && oi < 4.0);
    }

    #[test]
    fn f32_doubles_intensity() {
        assert!((operational_intensity(1, 4) - 2.0 * operational_intensity(1, 8)).abs() < 1e-12);
    }

    #[test]
    fn total_flops() {
        assert_eq!(gate_flops(10, 1), 1024 * 14);
    }

    #[test]
    fn gflops_and_roofline() {
        assert!((gflops(2_000_000_000, 1.0) - 2.0).abs() < 1e-12);
        // Memory-bound region.
        assert_eq!(roofline_bound(1000.0, 100.0, 0.5), 50.0);
        // Compute-bound region.
        assert_eq!(roofline_bound(1000.0, 100.0, 100.0), 1000.0);
    }
}
