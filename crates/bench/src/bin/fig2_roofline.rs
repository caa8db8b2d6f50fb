//! Fig. 2 (a/b) — roofline placement of the 1- and 4-qubit kernels across
//! the optimization steps of §3.1–3.2.
//!
//! The paper's steps:
//!   step 0  two-vector textbook product (the pre-"step 1" baseline)
//!   step 1  in-place / lazy evaluation (halves traffic)
//!   step 2  + explicit vectorization of Eq. (1) (mul/permute/hadd lanes)
//!   step 3  + Eq. (2)–(3) re-ordering, packed matrix, vectorised across
//!           blocks: the block-lane kernel at 256 bits (`Simd::Avx2`)
//!   step 4  the same kernel at 512 bits (`Simd::Auto` on AVX-512) —
//!           the paper's "2x for AVX, 4x for AVX512" from one generator
//!
//! Prints operational intensity (FLOP/byte) and measured GFLOPS per
//! (kernel, step), plus the memory-bandwidth roofline bound for this host
//! (estimated via a stream-like triad sweep). Shape to compare with the
//! paper: monotone improvement per step, 1-qubit kernel pinned to the
//! bandwidth roof, 4-qubit kernel ~8× higher intensity.
//!
//! The full-state ladder is bound by the slowest cache level the state
//! spills to, so it cannot show how far the step-3 kernel sits below the
//! core's FMA peak. Two more tables do, both on one thread:
//!   * three compute ceilings of the widest vector the host has — FMAs on
//!     register operands, FMAs that each broadcast their matrix operand
//!     from L1, and FMAs that share one broadcast between two;
//!   * the production kernel where the tiled executor runs it: one
//!     `PreparedGate::apply_chunk` on a cache-resident 2^14-amplitude tile,
//!     k = 1..5, operands low / spread / high, at both vector widths —
//!     followed by the k = 4 constants `CostModel::host` holds for them.

use qsim_bench::harness::*;
use qsim_kernels::apply::{KernelConfig, Simd};
use qsim_kernels::avx::apply_avx_eq1;
use qsim_kernels::opt::{apply_inplace, apply_twovec};
use qsim_kernels::sweep::PreparedGate;
use qsim_util::c64;
use qsim_util::flops::{gate_flops, gflops, operational_intensity, roofline_bound};
use qsim_util::stats::{black_box, summarize, time_reps};

fn main() {
    let n = arg_u32("--state-qubits", 22);
    let threads = arg_u32("--threads", 1) as usize;
    println!("# Fig. 2 roofline — state 2^{n}, {threads} thread(s)");

    // Host bandwidth estimate (triad: a[i] = b[i] + s*c[i]).
    let bw = triad_bandwidth_gbs(n);
    println!("# stream-triad bandwidth ≈ {bw:.1} GB/s");
    println!(
        "# AVX2+FMA available: {}, AVX-512F: {}",
        qsim_kernels::avx::avx2_available(),
        qsim_kernels::avx512::avx512_available()
    );
    fma_ceilings();
    tile_resident_rows();
    row(&[
        cell("kernel", 8),
        cell("step", 24),
        cell("OI[F/B]", 9),
        cell("GFLOPS", 9),
        cell("roof[GFLOPS]", 13),
    ]);

    // Steps 0–2 are reference kernels, called directly (one thread);
    // steps 3–4 are `apply_gate` at the two vector widths.
    let lanes = |simd| KernelConfig { simd, threads };
    for k in [1u32, 4] {
        let qubits = low_order_qubits(k);
        let m = random_gate(k, 0xbeef ^ k as u64);
        // Two-vector traffic is 3 passes (the second vector written, then
        // copied back — the traffic step 1 removes); in-place is 2.
        let mut dst = vec![c64::zero(); 1 << n];
        let two_vector = measure_fn_gflops(n, &qubits, 1, 3, |state, qs| {
            apply_twovec(state, &mut dst, qs, &m);
            state.copy_from_slice(&dst);
        });
        let steps = [
            ("0 two-vector", two_vector),
            (
                "1 in-place (lazy)",
                measure_fn_gflops(n, &qubits, 1, 3, |state, qs| apply_inplace(state, qs, &m)),
            ),
            (
                "2 +vectorized Eq.(1)",
                measure_fn_gflops(n, &qubits, 1, 3, |state, qs| apply_avx_eq1(state, qs, &m)),
            ),
            (
                "3 lanes@256",
                measure_kernel_gflops(n, &qubits, &lanes(Simd::Avx2), 1, 3),
            ),
            (
                "4 lanes@512",
                measure_kernel_gflops(n, &qubits, &lanes(Simd::Auto), 1, 3),
            ),
        ];
        for (step, (name, gf)) in steps.into_iter().enumerate() {
            let oi = match step {
                0 => qsim_util::flops::flops_per_amplitude(k) as f64 / 48.0,
                _ => operational_intensity(k, 8),
            };
            let roof = roofline_bound(f64::INFINITY, bw, oi);
            row(&[
                cell(format!("k={k}"), 8),
                cell(name, 24),
                cell(format!("{oi:.3}"), 9),
                cell(format!("{gf:.2}"), 9),
                cell(format!("{roof:.1}"), 13),
            ]);
        }
    }
    println!("# paper shape: each step raises GFLOPS; k=1 saturates the bandwidth");
    println!("# roof while k=4 gains ~8x intensity and runs well above it.");
}

/// Estimate sustainable memory bandwidth with a triad sweep (GB/s).
fn triad_bandwidth_gbs(n: u32) -> f64 {
    let len = 1usize << n; // f64 elements
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let mut a = vec![0.0f64; len];
    let t = summarize(&time_reps(1, 3, || {
        for i in 0..len {
            a[i] = b[i] + 3.0 * c[i];
        }
        black_box(&a);
    }))
    .median;
    // 3 arrays × 8 bytes (+ write-allocate ignored).
    (3 * len * 8) as f64 / t / 1e9
}

/// Qubits of the tile the sweep executor stages.
const TILE_QUBITS: u32 = qsim_sched::sweep::DEFAULT_TILE_QUBITS;

/// GFLOPS of the production dense kernel on one cache-resident tile:
/// what a tile-local cluster of the tiled executor runs at.
fn tile_resident_rows() {
    println!(
        "# tile-resident: PreparedGate::apply_chunk on 2^{TILE_QUBITS} amplitudes, f64, 1 thread"
    );
    row(&[
        cell("k", 3),
        cell("lo@256", 8),
        cell("spread@256", 11),
        cell("hi@256", 8),
        cell("lo@512", 8),
        cell("spread@512", 11),
        cell("hi@512", 8),
    ]);
    let mut tile = random_state(TILE_QUBITS, 0x711e);
    for k in 1..=5u32 {
        let m = random_gate(k, 0xbeef ^ k as u64);
        let spread: Vec<u32> = (0..k)
            .map(|j| (j * TILE_QUBITS + TILE_QUBITS / 2) / k)
            .collect();
        let operands = [
            low_order_qubits(k),
            spread,
            high_order_qubits(TILE_QUBITS, k),
        ];
        let mut cells = vec![cell(k, 3)];
        for simd in [Simd::Avx2, Simd::Auto] {
            let cfg = KernelConfig { simd, threads: 1 };
            for (qubits, width) in operands.iter().zip([8, 11, 8]) {
                let gate = PreparedGate::new(qubits, &m, &cfg);
                // ~20 µs per application: time batches, keep the fastest.
                let batch = 200;
                let best = summarize(&time_reps(2, 15, || {
                    for _ in 0..batch {
                        gate.apply_chunk(black_box(&mut tile[..]));
                    }
                }))
                .min;
                let gf = gflops(batch * gate_flops(TILE_QUBITS, k), best);
                cells.push(cell(format!("{gf:.1}"), width));
                // A random gate is not unitary: keep the amplitudes finite.
                tile = random_state(TILE_QUBITS, 0x711e);
            }
        }
        row(&cells);
    }
    // The constants the planner prices k = 4 clusters with: they are
    // this table's spread column, recorded — re-record them if it moves.
    let pivot = |bits| 1e-9 / qsim_sched::CostModel::host(bits, 1).flop_seconds_by_k[4];
    println!(
        "# cost model k=4 pivot (GFLOP/s per worker): {:.1} @256, {:.1} @512, {:.1} scalar",
        pivot(256),
        pivot(512),
        pivot(0)
    );
}

/// The three compute ceilings the block-lane kernel is argued against, at
/// the widest f64 vector of the host: 16 accumulator chains of FMAs whose
/// multiplier is (a) a register, (b) broadcast from L1 for every FMA —
/// the kernel blocked over rows alone — and (c) broadcast once for two
/// FMAs — the kernel blocked over rows × two lane groups.
fn fma_ceilings() {
    #[cfg(target_arch = "x86_64")]
    {
        let (name, [reg, bcast1, bcast2]) = if qsim_kernels::avx512::avx512_available() {
            // SAFETY: AVX-512F was just found in CPUID.
            ("512-bit", unsafe { ceilings::probe_512() })
        } else if qsim_kernels::avx::avx2_available() {
            // SAFETY: AVX2 and FMA were just found in CPUID.
            ("256-bit", unsafe { ceilings::probe_256() })
        } else {
            println!("# FMA ceilings: no AVX2+FMA on this host");
            return;
        };
        println!(
            "# FMA ceilings ({name} f64, 1 thread, L1-resident, GFLOPS): register operands \
             {reg:.1}, one broadcast per FMA {bcast1:.1}, one broadcast per two FMAs {bcast2:.1}"
        );
    }
}

#[cfg(target_arch = "x86_64")]
mod ceilings {
    use core::arch::x86_64::*;
    use qsim_util::stats::{black_box, summarize, time_reps};

    /// Matrix scalars streamed per pass: 4 KiB, L1-resident.
    const MAT: usize = 512;
    const PASSES: usize = 20_000;

    macro_rules! probes {
        ($name:ident, $feat:literal, $v:ty, $lanes:literal, $zero:ident, $set1:ident, $fma:ident, $store:ident) => {
            /// `[register, broadcast per FMA, broadcast per two FMAs]` in
            /// GFLOPS.
            ///
            /// # Safety
            /// The host must have the target features enabled here.
            #[target_feature(enable = $feat)]
            pub unsafe fn $name() -> [f64; 3] {
                let mat: Vec<f64> = (0..MAT).map(|i| 1.0 / (i + 1) as f64).collect();
                let mat = black_box(mat.as_slice());
                let (v0, v1) = ($set1(black_box(0.5)), $set1(black_box(0.25)));
                let mut sink = [0.0f64; $lanes];
                let mut gflops = [0.0f64; 3];
                for (variant, out) in gflops.iter_mut().enumerate() {
                    let best = summarize(&time_reps(1, 7, || {
                        let mut acc = [$zero(); 16];
                        for _ in 0..PASSES {
                            for col in mat.chunks_exact(16) {
                                match variant {
                                    0 => {
                                        for a in acc.iter_mut() {
                                            *a = $fma(v0, v1, *a);
                                        }
                                    }
                                    1 => {
                                        for (a, m) in acc.iter_mut().zip(col) {
                                            *a = $fma(v0, $set1(*m), *a);
                                        }
                                    }
                                    _ => {
                                        for (a, m) in acc.chunks_exact_mut(2).zip(col) {
                                            let b = $set1(*m);
                                            a[0] = $fma(v0, b, a[0]);
                                            a[1] = $fma(v1, b, a[1]);
                                        }
                                    }
                                }
                            }
                        }
                        for a in acc {
                            $store(sink.as_mut_ptr(), a);
                            black_box(&sink);
                        }
                    }))
                    .min;
                    let fmas = (PASSES * (MAT / 16) * 16) as f64;
                    *out = fmas * 2.0 * $lanes as f64 / best / 1e9;
                }
                gflops
            }
        };
    }
    probes!(
        probe_512,
        "avx512f",
        __m512d,
        8,
        _mm512_setzero_pd,
        _mm512_set1_pd,
        _mm512_fmadd_pd,
        _mm512_storeu_pd
    );
    probes!(
        probe_256,
        "avx2,fma",
        __m256d,
        4,
        _mm256_setzero_pd,
        _mm256_set1_pd,
        _mm256_fmadd_pd,
        _mm256_storeu_pd
    );
}
