//! Property-based equivalence of the fused swap engine against the
//! textbook composition it replaces.
//!
//! The fused path (`perform_swap`, pack/unpack through `all_to_all_with`)
//! and the reference path (`perform_swap_reference`: permute → allocating
//! `all_to_all` → inverse permute) move the same f64 payloads without any
//! arithmetic, so the comparison is exact (bit-for-bit), across random
//! rank counts, local qubit counts, slot choices and pipeline depths —
//! including the degenerate S=1 (no pipelining) and S ≥ segment cases.

use proptest::prelude::*;
use qsim_core::dist::{perform_swap, perform_swap_reference, SwapBuffers};
use qsim_core::StateVector;
use qsim_net::collective::{all_to_all, all_to_all_inplace, Communicator};
use qsim_net::run_cluster;
use qsim_sched::SwapOp;
use qsim_util::{c64, Xoshiro256};

/// Choose `g` ascending slot positions out of `0..l`, seed-derived.
fn random_slots(g: u32, l: u32, seed: u64) -> Vec<u32> {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5107 ^ ((g as u64) << 32));
    let mut pos: Vec<u32> = (0..l).collect();
    // Partial Fisher–Yates: the first g entries become the sample.
    for i in 0..g as usize {
        let j = i + (rng.next_u64() as usize) % (pos.len() - i);
        pos.swap(i, j);
    }
    let mut slots = pos[..g as usize].to_vec();
    slots.sort_unstable();
    slots
}

fn random_slice(len: usize, seed: u64) -> Vec<c64> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..len)
        .map(|_| c64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fused permute-scatter swap == reference three-pass swap, exactly.
    #[test]
    fn fused_swap_matches_reference(
        g in 0u32..=5,          // 1..=32 ranks
        l_extra in 0u32..=2,    // l = max(g,1)+extra local qubits
        sub_chunks in 1usize..=5,
        seed in 0u64..1000,
    ) {
        let l = g.max(1) + l_extra;
        let ranks = 1usize << g;
        let slots = random_slots(g, l, seed);
        let swap = SwapOp { local_slots: slots };
        let slice = 1usize << l;

        let (reference, _) = run_cluster(ranks, |ctx| {
            let mut state = StateVector::from_amplitudes(random_slice(
                slice,
                seed ^ ((ctx.rank() as u64) << 8),
            ));
            perform_swap_reference(ctx, &mut state, &swap, l);
            state.amplitudes().to_vec()
        });
        let (fused, _) = run_cluster(ranks, |ctx| {
            let mut bufs = SwapBuffers::new(Some(sub_chunks));
            let mut state = StateVector::from_amplitudes(random_slice(
                slice,
                seed ^ ((ctx.rank() as u64) << 8),
            ));
            perform_swap(ctx, &mut state, &swap, l, &mut bufs);
            state.amplitudes().to_vec()
        });
        for (r, (a, b)) in reference.iter().zip(fused.iter()).enumerate() {
            prop_assert_eq!(a, b, "rank {} diverged", r);
        }
    }

    /// `all_to_all_inplace` on a copy, at any pipeline depth == the naive
    /// allocating `all_to_all`, for random rank counts and payload sizes.
    #[test]
    fn all_to_all_inplace_matches_naive(
        g in 0u32..=5,
        payload_log in 0u32..=3,
        sub_chunks in 1usize..=5,
        seed in 0u64..1000,
    ) {
        let ranks = 1usize << g;
        let seg = 1usize << payload_log;
        let (results, _) = run_cluster(ranks, |ctx| {
            let send = random_slice(ranks * seg, seed ^ ((ctx.rank() as u64) << 16));
            let comm = Communicator::world(ctx);
            let naive = all_to_all(ctx, comm, &send);
            let mut out = send.clone();
            all_to_all_inplace(ctx, comm, &mut out, sub_chunks);
            (naive, out)
        });
        for (naive, out) in results {
            prop_assert_eq!(naive, out);
        }
    }
}
