//! Backend equivalence: the same circuit executed by the in-memory
//! distributed engine, the out-of-core engine and the single-node engine
//! must produce identical physics — the property that justifies the §5
//! claim that the slow tier (network or SSD) is interchangeable when the
//! schedule only needs two all-to-alls.
//!
//! Every engine is driven through the unified [`Backend`] trait (the
//! conformance half of the contract lives in `tests/backend_trait.rs`):
//! the planner is deterministic, so two backends planning the same
//! circuit at the same partition count execute the identical schedule —
//! which is what makes the `== 0.0` bit-exactness assertions below
//! meaningful.

use qsim45::circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim45::circuit::Circuit;
use qsim45::core::{
    Backend, BackendOutcome, BackendPlan, BackendStats, DistBackend, DistConfig, DistSimulator,
    SimError, SingleBackend, SingleNodeSimulator,
};
use qsim45::kernels::{KernelConfig, SweepDispatch};
use qsim45::ooc::{Codec, OocBackend, OocConfig, OocSimulator};
use qsim45::util::complex::max_dist;

fn workload() -> Circuit {
    supremacy_circuit(&SupremacySpec {
        rows: 3,
        cols: 4,
        depth: 20,
        seed: 77,
    })
}

fn dist_backend(n_ranks: usize) -> DistBackend {
    DistBackend::new(DistSimulator::new(DistConfig {
        n_ranks,
        kernel: KernelConfig::sequential(),
        ..Default::default()
    }))
}

fn ooc_backend<R: SweepDispatch>(n_chunks: usize, compress: Codec) -> OocBackend<R> {
    OocBackend::new(
        OocSimulator::<R>::new(OocConfig {
            compress,
            ..OocConfig::sequential()
        }),
        n_chunks,
    )
}

/// Plan + gathered run through the trait.
fn run_gathered<R: SweepDispatch>(
    b: &mut dyn Backend<R>,
    c: &Circuit,
) -> (BackendPlan, BackendOutcome<R>) {
    b.gather_state(true);
    let plan = b.plan(c).unwrap_or_else(|e| panic!("{}: {e}", b.name()));
    let out = b.run(&plan).unwrap_or_else(|e| panic!("{}: {e}", b.name()));
    (plan, out)
}

#[test]
fn memory_and_disk_backends_agree_amplitude_for_amplitude() {
    let c = workload();
    let mut single = SingleBackend::new(SingleNodeSimulator::default());
    let (_, sout) = run_gathered::<f64>(&mut single, &c);
    let single_state = sout.state.unwrap();
    for g in [2u32, 3] {
        let mut dist = dist_backend(1usize << g);
        let (dplan, dout) = run_gathered::<f64>(&mut dist, &c);
        dplan.schedule.verify(&dplan.exec);
        let dist_state = dout.state.unwrap();

        // Out-of-core engine: same deterministic plan, disk data path.
        let mut ooc = ooc_backend::<f64>(1usize << g, Codec::None);
        let (_, oout) = run_gathered(&mut ooc, &c);
        let ooc_state = oout.state.unwrap();

        assert!(
            max_dist(&dist_state, &single_state) < 1e-9,
            "dist vs single, g={g}"
        );
        assert!(
            max_dist(&ooc_state, &dist_state) < 1e-12,
            "ooc vs dist must be bit-close, g={g}: {}",
            max_dist(&ooc_state, &dist_state)
        );
    }
}

#[test]
fn disk_backend_handles_schedules_with_multiple_swaps() {
    // Force many swaps with a small local window (l = n - 4).
    let c = workload();
    let mut ooc = ooc_backend::<f64>(16, Codec::None);
    let (plan, out) = run_gathered(&mut ooc, &c);
    assert!(plan.schedule.n_swaps() >= 1);
    let state = out.state.unwrap();
    let mut single = SingleBackend::new(SingleNodeSimulator::default());
    let (_, sout) = run_gathered::<f64>(&mut single, &c);
    assert!(max_dist(&state, &sout.state.unwrap()) < 1e-9);
    assert!((out.norm - 1.0).abs() < 1e-9);
    // Batching means one compute traversal per swap boundary.
    let BackendStats::Ooc { runs, .. } = out.stats else {
        panic!("ooc stats expected");
    };
    assert_eq!(runs, plan.schedule.n_swaps() + 1);
}

#[test]
fn ooc_traffic_grows_with_swap_count_not_gate_count() {
    // Same state size, two circuits with very different gate counts but
    // comparable swap counts: disk traffic must track swaps.
    let n = 12u32;
    let shallow = supremacy_circuit(&SupremacySpec {
        rows: 3,
        cols: 4,
        depth: 8,
        seed: 1,
    });
    let deep = supremacy_circuit(&SupremacySpec {
        rows: 3,
        cols: 4,
        depth: 40,
        seed: 1,
    });
    let run = |c: &Circuit| {
        let mut b = ooc_backend::<f64>(4, Codec::None);
        let plan = b.plan(c).unwrap();
        let out = b.run(&plan).unwrap();
        let BackendStats::Ooc { io, runs, .. } = out.stats else {
            panic!("ooc stats expected");
        };
        (
            c.len(),
            plan.schedule.n_swaps(),
            runs,
            io.bytes_read + io.bytes_written,
        )
    };
    let (g1, s1, r1, b1) = run(&shallow);
    let (g2, s2, r2, b2) = run(&deep);
    assert!(g2 > 3 * g1, "deep circuit must have many more gates");
    // The §5 property at its sharpest: traffic is fixed by the swap
    // structure alone — one state write per swap, one read and one write
    // per later run, nothing for the start state or the reduction —
    // independent of gate count and of how many stages the planner
    // emitted.
    let state_bytes = (1u64 << n) * 16;
    assert_eq!(b1, state_bytes * (2 * s1 as u64 + 1), "shallow traffic");
    assert_eq!(b2, state_bytes * (2 * s2 as u64 + 1), "deep traffic");
    assert_eq!(r1, s1 + 1);
    assert_eq!(r2, s2 + 1);
}

#[test]
fn f32_backends_agree_bit_for_bit() {
    // Precision tiering must not weaken the backend-equivalence story:
    // at f32 the chunk store's uniform init matches the distributed
    // engine's slice init bitwise, chunk compute replays the rank
    // compute, so OOC vs dist is exact equality — not a tolerance. The
    // single-node engine plans its own (undistributed) schedule, so it
    // agrees only up to f32 rounding.
    let c = workload();
    let mut single = SingleBackend::new(SingleNodeSimulator {
        kernel: KernelConfig::sequential(),
        ..Default::default()
    });
    let (_, sout) = run_gathered::<f32>(&mut single, &c);
    let single_state = sout.state.unwrap();
    for g in [2u32, 3] {
        let mut dist = dist_backend(1usize << g);
        let (_, dout) = run_gathered::<f32>(&mut dist, &c);
        let dist_state = dout.state.unwrap();

        let mut ooc = ooc_backend::<f32>(1usize << g, Codec::None);
        let (_, oout) = run_gathered(&mut ooc, &c);
        let ooc_state = oout.state.unwrap();

        assert_eq!(
            max_dist(&ooc_state, &dist_state),
            0.0,
            "ooc f32 vs dist f32 must be bit-exact, g={g}"
        );
        assert!((oout.norm - 1.0).abs() < 1e-4, "f32 norm {}", oout.norm);
        let mut worst = 0.0f64;
        for (a, b) in single_state.iter().zip(&dist_state) {
            worst = worst
                .max((a.re as f64 - b.re as f64).abs())
                .max((a.im as f64 - b.im as f64).abs());
        }
        assert!(
            worst < 1e-6,
            "single f32 vs dist f32 drift {worst:e}, g={g}"
        );
    }
}

#[test]
fn compressed_ooc_agrees_with_dist_bit_for_bit() {
    // The lossless chunk codec sits on the IO path only: every
    // amplitude that comes back from disk is the exact bytes that went
    // in, so compressed OOC vs the in-memory distributed engine is
    // exact equality — at both precisions — and the stored-raw fallback
    // keeps a dense state from costing more than its frame headers.
    // (The highly compressible *start* state is never written.)
    let c = workload();
    let g = 3u32;

    let mut dist = dist_backend(1usize << g);
    let (_, dout) = run_gathered::<f64>(&mut dist, &c);
    let dist64 = dout.state.unwrap();
    let mut ooc = ooc_backend::<f64>(1usize << g, Codec::ShuffleRle);
    let (_, oout) = run_gathered(&mut ooc, &c);
    let state = oout.state.unwrap();
    assert_eq!(
        max_dist(&state, &dist64),
        0.0,
        "compressed ooc f64 vs dist must be bit-exact"
    );
    let BackendStats::Ooc { io, .. } = &oout.stats else {
        panic!("ooc stats expected");
    };
    assert!(
        io.compression_ratio() > 0.99,
        "stored-raw fallback bounds the loss: ratio {}",
        io.compression_ratio()
    );

    let mut dist = dist_backend(1usize << g);
    let (_, dout) = run_gathered::<f32>(&mut dist, &c);
    let dist32 = dout.state.unwrap();
    let mut ooc = ooc_backend::<f32>(1usize << g, Codec::ShuffleRle);
    let (_, oout) = run_gathered(&mut ooc, &c);
    assert_eq!(
        max_dist(&oout.state.unwrap(), &dist32),
        0.0,
        "compressed ooc f32 vs dist must be bit-exact"
    );
}

/// Dist and OOC on the *same* plan at partition sizes above
/// `PAR_THRESHOLD` (4×5: 2^18 amplitudes at P = 4, 2^16 at P = 16), where
/// the reduction's leaves run in parallel: norm and entropy must still
/// agree to the last bit, because `norm_entropy`'s association depends
/// on the amplitudes alone.
fn partition_reductions_agree<R: SweepDispatch>() {
    let c = supremacy_circuit(&SupremacySpec {
        rows: 4,
        cols: 5,
        depth: 25,
        seed: 3,
    });
    for parts in [4usize, 16] {
        let mut dist = DistBackend::new(DistSimulator::new(DistConfig {
            n_ranks: parts,
            ..Default::default()
        }));
        let plan = Backend::<R>::plan(&dist, &c).unwrap();
        let dout = Backend::<R>::run(&mut dist, &plan).unwrap();
        let mut ooc = OocBackend::new(OocSimulator::<R>::new(OocConfig::default()), parts);
        let oout = ooc.run(&plan).unwrap();
        let tier = format!("{} x{parts}", R::NAME);
        assert_eq!(oout.norm.to_bits(), dout.norm.to_bits(), "norm, {tier}");
        assert_eq!(
            oout.entropy.to_bits(),
            dout.entropy.to_bits(),
            "entropy, {tier}: {:x} vs {:x}",
            oout.entropy.to_bits(),
            dout.entropy.to_bits()
        );
    }
}

#[test]
fn partition_reductions_agree_above_the_parallel_threshold() {
    partition_reductions_agree::<f64>();
    partition_reductions_agree::<f32>();
}

#[test]
fn dist_reductions_repeat_bit_for_bit() {
    // 2^15 amplitudes per rank puts the reduction's leaves on parallel
    // workers; which worker computes which leaf must not reach the
    // result, so ten runs agree to the last bit.
    let c = supremacy_circuit(&SupremacySpec {
        rows: 4,
        cols: 4,
        depth: 10,
        seed: 11,
    });
    let mut dist = DistBackend::new(DistSimulator::new(DistConfig {
        n_ranks: 2,
        kernel: KernelConfig {
            threads: 2,
            ..KernelConfig::default()
        },
        ..Default::default()
    }));
    let plan = Backend::<f64>::plan(&dist, &c).unwrap();
    let runs: Vec<(u64, u64)> = (0..10)
        .map(|_| {
            let out = Backend::<f64>::run(&mut dist, &plan).unwrap();
            (out.norm.to_bits(), out.entropy.to_bits())
        })
        .collect();
    assert!(runs.iter().all(|r| *r == runs[0]), "{runs:x?}");
}

#[test]
fn ooc_geometry_misuse_is_a_typed_error() {
    // 8 chunks of a 4-qubit state: g = 3 > l = 1, so a chunk cannot be
    // split 8 ways for the all-to-all. The trait must say so, not assert
    // (hand-planned schedules meet the same check inside the run
    // function: `tests/backend_trait.rs`).
    let mut c = Circuit::new(4);
    c.t(0).h(1);
    let mut ooc = ooc_backend::<f64>(8, Codec::None);
    match Backend::<f64>::plan(&ooc, &c).and_then(|plan| ooc.run(&plan)) {
        Err(SimError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}"),
        Err(e) => panic!("expected an InvalidInput Io error, got {e}"),
        Ok(_) => panic!("g > l must be rejected"),
    }
}

#[test]
fn lossy_codec_bounds_the_error_it_introduces() {
    // `lossy-8` zeroes 8 low mantissa bits per component before
    // encoding — a relative error around 2^-44 at f64. The result may
    // differ from the exact state, but only within that budget (gates
    // are unitary, so per-pass truncation error cannot blow up).
    let c = workload();
    let mut exact = ooc_backend::<f64>(8, Codec::None);
    let (_, eout) = run_gathered(&mut exact, &c);
    let oracle = eout.state.unwrap();
    let mut lossy = ooc_backend::<f64>(8, Codec::Lossy(8));
    let (_, lout) = run_gathered(&mut lossy, &c);
    let state = lout.state.unwrap();
    let d = max_dist(&state, &oracle);
    assert!(d > 0.0, "lossy-8 should actually drop bits on this state");
    assert!(d < 1e-10, "lossy-8 error must stay tiny: {d:e}");
    assert!((lout.norm - 1.0).abs() < 1e-9, "norm {}", lout.norm);
}

#[test]
fn pipelining_and_batching_are_bitwise_invisible() {
    // The overlapped default (depth 3) and the serialised
    // `sync_baseline` (depth 1) against the distributed engine planning
    // the same circuit: not a single bit may differ.
    let c = workload();
    let mut dist = dist_backend(8);
    let (_, dout) = run_gathered::<f64>(&mut dist, &c);
    let oracle = dout.state.unwrap();
    let mut sync = OocBackend::new(
        OocSimulator::<f64>::new(OocConfig::sync_baseline(KernelConfig::sequential())),
        8,
    );
    let mut pipe = ooc_backend::<f64>(8, Codec::None);
    for ooc in [&mut sync, &mut pipe] {
        let (plan, out) = run_gathered(ooc, &c);
        assert_eq!(max_dist(&out.state.unwrap(), &oracle), 0.0);
        let BackendStats::Ooc { io, runs, .. } = &out.stats else {
            panic!("ooc stats expected");
        };
        assert_eq!(*runs, plan.schedule.n_swaps() + 1);
        assert_eq!(io.traversals as usize, *runs);
    }
}
