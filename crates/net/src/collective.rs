//! Collectives (§3.4).
//!
//! "Turning all global qubits into local ones amounts to executing one
//! all-to-all on the MPI_COMM_WORLD communicator": the scheduler emits
//! only such full swaps, so [`Communicator`] is the world and nothing
//! else (the paper's group-local all-to-all over 2^{g−q} sub-groups went
//! with the partial swap, its one caller).
//!
//! The workhorse is the pipelined engine [`all_to_all_with`]: each peer
//! segment is split into `sub_chunks` rounds; every round posts all sends
//! (packing straight into pooled wire buffers) before draining the
//! matching receives (unpacking straight out of them), so payload work
//! overlaps with other ranks' progress and nothing is buffered twice.
//! [`all_to_all_inplace`] is the borrowed, allocation-free entry point;
//! [`all_to_all`] keeps the classic allocate-and-return signature on
//! top. [`all_reduce_sum`] backs the entropy/norm reductions (§4.2.2);
//! the pairwise half-state exchange of \[19\] the baseline simulator
//! uses is [`RankCtx::exchange`] itself.

use crate::fabric::RankCtx;
use std::ops::Range;

/// The ranks an all-to-all runs over: all `size` of them.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Communicator {
    pub size: usize,
}

impl Communicator {
    /// The world communicator.
    pub fn world(ctx: &RankCtx) -> Self {
        Self {
            size: ctx.n_ranks(),
        }
    }
}

/// The offset range of pipeline round `round` when a `seg_len`-element
/// segment is split into `sub_chunks` rounds (earlier rounds absorb the
/// remainder, so rounds differ in length by at most one element).
pub fn sub_range(seg_len: usize, sub_chunks: usize, round: usize) -> Range<usize> {
    debug_assert!(round < sub_chunks);
    let base = seg_len / sub_chunks;
    let rem = seg_len % sub_chunks;
    let start = round * base + round.min(rem);
    start..start + base + usize::from(round < rem)
}

/// Pipelined all-to-all engine: every rank owns `comm.size` segments of
/// `seg_len` elements; segment `j` is produced for rank `j` by
/// `pack` and the segment received from member `i` is consumed by
/// `unpack`, sub-chunk by sub-chunk. The self segment (`j == me`) is never
/// packed, sent, or unpacked — callers for whom it is not a no-op must
/// handle it themselves (for the swap data path it is an exact identity).
///
/// `data` is threaded mutably through both closures so a caller can pack
/// from and unpack into the *same* storage: within a round all packs
/// (reads) complete before any unpack (write), and distinct rounds touch
/// disjoint sub-ranges of each segment, so an injective index mapping
/// makes the in-place exchange safe.
///
/// Deadlock-free for any `sub_chunks >= 1`: sends are non-blocking
/// (mailboxes buffer), and every rank posts all round-`s` sends before
/// blocking on its first round-`s` receive.
pub fn all_to_all_with<T: Copy, D: ?Sized>(
    ctx: &mut RankCtx,
    comm: Communicator,
    seg_len: usize,
    sub_chunks: usize,
    data: &mut D,
    mut pack: impl FnMut(&mut D, usize, Range<usize>, &mut [T]),
    mut unpack: impl FnMut(&mut D, usize, Range<usize>, &[T]),
) {
    let p = comm.size;
    assert!(p >= 1, "empty communicator");
    let me = ctx.rank();
    assert!(me < p, "rank outside communicator");
    if p == 1 || seg_len == 0 {
        return;
    }
    let s = sub_chunks.clamp(1, seg_len);
    for round in 0..s {
        let r = sub_range(seg_len, s, round);
        for j in 0..p {
            if j == me {
                continue;
            }
            ctx.send_with::<T>(j, r.len(), |wire| pack(data, j, r.clone(), wire));
        }
        for i in 0..p {
            if i == me {
                continue;
            }
            ctx.recv_with::<T, ()>(i, |wire| {
                assert_eq!(wire.len(), r.len(), "sub-chunk size mismatch from {i}");
                unpack(data, i, r.clone(), wire);
            });
        }
    }
}

/// All-to-all exchanging the segments of `buf` in place (the swap data
/// path when the outgoing qubits already sit at the top local positions:
/// segment contents swap between ranks without local reordering, and the
/// self segment stays put untouched).
pub fn all_to_all_inplace<T: Copy>(
    ctx: &mut RankCtx,
    comm: Communicator,
    buf: &mut [T],
    sub_chunks: usize,
) {
    let p = comm.size;
    assert_eq!(buf.len() % p, 0, "payload not divisible into {p} chunks");
    let seg = buf.len() / p;
    all_to_all_with::<T, [T]>(
        ctx,
        comm,
        seg,
        sub_chunks,
        buf,
        |buf, j, r, wire| wire.copy_from_slice(&buf[j * seg + r.start..j * seg + r.end]),
        |buf, i, r, wire| buf[i * seg + r.start..i * seg + r.end].copy_from_slice(wire),
    );
}

/// All-to-all over `comm` with the classic allocate-and-return signature;
/// see [`all_to_all_inplace`] for the allocation-free variant. An empty
/// payload is a no-op returning an empty vector.
pub fn all_to_all<T: Copy>(ctx: &mut RankCtx, comm: Communicator, send: &[T]) -> Vec<T> {
    let mut out = send.to_vec();
    all_to_all_inplace(ctx, comm, &mut out, 1);
    out
}

/// Sum-all-reduce of one f64 (recursive doubling).
pub fn all_reduce_sum(ctx: &mut RankCtx, value: f64) -> f64 {
    let p = ctx.n_ranks();
    debug_assert!(p.is_power_of_two());
    let mut acc = value;
    let mut stride = 1usize;
    while stride < p {
        let partner = ctx.rank() ^ stride;
        let got = ctx.exchange(partner, &[acc]);
        acc += got[0];
        stride <<= 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::run_cluster;
    use qsim_util::c64;

    #[test]
    fn world_all_to_all_transposes_chunks() {
        // Rank r sends chunk j = value r*10 + j; after the all-to-all,
        // rank r holds chunk i = i*10 + r.
        let (results, stats) = run_cluster(4, |ctx| {
            let send: Vec<u64> = (0..4).map(|j| (ctx.rank() * 10 + j) as u64).collect();
            all_to_all(ctx, Communicator::world(ctx), &send)
        });
        for (r, recv) in results.iter().enumerate() {
            for (i, &v) in recv.iter().enumerate() {
                assert_eq!(v, (i * 10 + r) as u64, "rank {r} chunk {i}");
            }
        }
        // Each rank sends 3 chunks of 8 bytes.
        assert_eq!(stats.total_bytes_sent, 4 * 3 * 8);
    }

    #[test]
    fn all_to_all_single_rank_is_identity() {
        let (results, stats) = run_cluster(1, |ctx| {
            let send = vec![c64::new(1.0, 2.0), c64::new(3.0, 4.0)];
            all_to_all(ctx, Communicator::world(ctx), &send)
        });
        assert_eq!(results[0], vec![c64::new(1.0, 2.0), c64::new(3.0, 4.0)]);
        assert_eq!(stats.total_bytes_sent, 0, "self-chunk is not traffic");
    }

    #[test]
    fn all_to_all_empty_payload_is_noop() {
        // Regression: the previous implementation indexed send[0] to size
        // its output and panicked on an empty payload.
        let (results, stats) = run_cluster(4, |ctx| {
            let send: Vec<u64> = Vec::new();
            all_to_all(ctx, Communicator::world(ctx), &send)
        });
        assert!(results.iter().all(|v| v.is_empty()));
        assert_eq!(stats.total_bytes_sent, 0);
    }

    #[test]
    fn all_to_all_is_involution_for_symmetric_layout() {
        // Applying the all-to-all twice restores the original data.
        let (results, _) = run_cluster(4, |ctx| {
            let send: Vec<u64> = (0..8).map(|j| (ctx.rank() * 100 + j) as u64).collect();
            let once = all_to_all(ctx, Communicator::world(ctx), &send);
            let twice = all_to_all(ctx, Communicator::world(ctx), &once);
            (send, twice)
        });
        for (send, twice) in results {
            assert_eq!(send, twice);
        }
    }

    #[test]
    fn all_to_all_inplace_matches_all_to_all_at_any_depth() {
        // The pipelined in-place path must equal the classic collective
        // regardless of rank count and sub-chunk depth (including depths
        // exceeding the segment, which clamp).
        for ranks in [4usize, 8] {
            for sub_chunks in [1usize, 2, 3, 5, 100] {
                let (results, stats) = run_cluster(ranks, |ctx| {
                    let comm = Communicator::world(ctx);
                    let send: Vec<u64> = (0..24).map(|j| (ctx.rank() * 100 + j) as u64).collect();
                    let expect = all_to_all(ctx, comm, &send);
                    let mut buf = send.clone();
                    all_to_all_inplace(ctx, comm, &mut buf, sub_chunks);
                    (expect, buf)
                });
                for (expect, buf) in results {
                    assert_eq!(expect, buf, "{ranks} ranks, sub_chunks={sub_chunks}");
                }
                // Sub-chunking splits messages but never changes byte
                // totals: two all-to-alls of every rank sending each peer
                // its 24/ranks-element segment of 8-byte elements.
                let per_run = ranks * (ranks - 1) * (24 / ranks) * 8;
                assert_eq!(stats.total_bytes_sent as usize, 2 * per_run);
            }
        }
    }

    #[test]
    fn sub_ranges_partition_segment() {
        for (seg, s) in [(10usize, 3usize), (7, 7), (16, 1), (5, 4), (12, 5)] {
            let mut covered = 0usize;
            for round in 0..s {
                let r = sub_range(seg, s, round);
                assert_eq!(r.start, covered, "rounds must be contiguous");
                covered = r.end;
                assert!(r.len() >= seg / s && r.len() <= seg.div_ceil(s));
            }
            assert_eq!(covered, seg, "rounds must cover the segment");
        }
    }

    #[test]
    fn all_reduce_sum_is_the_balanced_pairwise_tree() {
        // Values whose sum depends on the association (a running sum
        // from 1e16 absorbs every 1.0): every rank must hold the bits of
        // ((v0+v1)+(v2+v3))+((v4+v5)+(v6+v7)), which is what lets
        // per-chunk partials summed pairwise out of core match the
        // distributed reduction exactly.
        let v = |r: usize| if r == 0 { 1e16 } else { 1.0 };
        let (results, _) = run_cluster(8, |ctx| all_reduce_sum(ctx, v(ctx.rank())));
        let tree = ((v(0) + v(1)) + (v(2) + v(3))) + ((v(4) + v(5)) + (v(6) + v(7)));
        assert_ne!(tree.to_bits(), (0..8).map(v).sum::<f64>().to_bits());
        for sum in results {
            assert_eq!(sum.to_bits(), tree.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "rank thread panicked")]
    fn all_to_all_rejects_ragged_payload() {
        let _ = run_cluster(4, |ctx| {
            let send = vec![0u64; 5];
            all_to_all(ctx, Communicator::world(ctx), &send)
        });
    }
}
