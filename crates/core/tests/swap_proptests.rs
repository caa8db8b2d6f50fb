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

/// Run the fused and the reference swap over `slots` on `2^g` ranks of
/// `2^l` amplitudes each, from the same seeded slices, and compare every
/// rank's result bit for bit.
fn check_fused_swap(g: u32, l: u32, slots: Vec<u32>, sub_chunks: usize, seed: u64) {
    let ranks = 1usize << g;
    let swap = SwapOp { local_slots: slots };
    let slice = 1usize << l;
    let start = |rank: usize| {
        StateVector::from_amplitudes(random_slice(slice, seed ^ ((rank as u64) << 8)))
    };
    let (reference, _) = run_cluster(ranks, |ctx| {
        let mut state = start(ctx.rank());
        perform_swap_reference(ctx, &mut state, &swap, l);
        state.amplitudes().to_vec()
    });
    let (fused, _) = run_cluster(ranks, |ctx| {
        let mut bufs = SwapBuffers::new(Some(sub_chunks));
        let mut state = start(ctx.rank());
        perform_swap(ctx, &mut state, &swap, l, &mut bufs);
        state.amplitudes().to_vec()
    });
    let bits =
        |v: &[c64]| -> Vec<_> { v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect() };
    for (r, (a, b)) in reference.iter().zip(fused.iter()).enumerate() {
        assert!(
            bits(a) == bits(b),
            "rank {r} diverged: g={g} l={l} slots={:?} sub_chunks={sub_chunks} seed={seed}",
            swap.local_slots
        );
    }
}

/// The planner's shape at n = 21 (one swap slot at bit 0, `g = 1`), wide
/// enough that whole sub-chunks take the parallel block path (`S = 1`)
/// and, at `S = 3`, start off the 256-amplitude grid.
#[test]
fn fused_swap_matches_reference_at_the_planner_shape() {
    for sub_chunks in [1, 3] {
        check_fused_swap(1, 16, vec![0], sub_chunks, 21);
    }
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
        check_fused_swap(g, l, random_slots(g, l, seed), sub_chunks, seed);
    }

    /// The same at l = 9..=14 on 2 or 4 ranks, where pack and unpack walk
    /// whole 256-amplitude blocks; 3 and 5 sub-chunks put the sub-chunk
    /// starts off the block grid.
    #[test]
    fn fused_swap_matches_reference_on_the_block_path(
        g in 1u32..=2,
        l in 9u32..=14,
        depth in 0usize..3,
        seed in 0u64..1000,
    ) {
        let sub_chunks = [1, 3, 5][depth];
        check_fused_swap(g, l, random_slots(g, l, seed), sub_chunks, seed);
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
