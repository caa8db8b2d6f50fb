//! Workspace smoke test for the out-of-core pipeline: at tiny n the
//! batched engine must already clear the ≥ 3× traversal-reduction
//! acceptance floor against the synchronous one-traversal-per-op
//! baseline, with all engine modes agreeing on the outcome entropy.
//! (The wall-clock floor is asserted by the full-size
//! `fig_ooc_pipeline` run, not here — timing at toy sizes is noise.)

use qsim_bench::ooc_report::{run_compress_bench, run_ooc_bench};
use qsim_ooc::Codec;

#[test]
fn ooc_pipeline_traversal_floor() {
    // 3×4 grid (n = 12), 4 chunks, one op per stage, single thread.
    let r = run_ooc_bench(3, 4, 25, 4, 2, 1, 3, 1);
    assert!(
        r.traversal_ratio() >= 3.0,
        "traversal ratio {:.2} below the 3x acceptance floor \
         (sync {} vs pipelined {} traversals over {} stages / {} swaps)",
        r.traversal_ratio(),
        r.sync_segmented.traversals,
        r.pipelined.traversals,
        r.stages,
        r.swaps,
    );
    // Batching makes the traversal count granularity-independent: one
    // traversal per swap boundary, the swap halves riding inside.
    assert_eq!(r.pipelined.runs, r.swaps + 1);
    assert_eq!(r.pipelined.traversals, r.swaps as u64 + 1);
    // The pipelined run overlaps IO with compute; the sync baseline by
    // construction cannot.
    assert!(r.pipelined.overlap_fraction >= 0.0);
    assert!(r.sync_segmented.overlap_fraction <= 0.05);
}

#[test]
fn ooc_compress_smoke() {
    // 3×4 grid (n = 12), depth 10, 4 chunks, single thread: the codec
    // comparison must show shuffle-rle never losing to raw on bytes
    // written and reproducing the raw state bit for bit, with lossy-8
    // inside its truncation budget. (No byte-reduction floor: the one
    // highly compressible generation was the start state, which the
    // engine synthesises and never writes.)
    let r = run_compress_bench(
        3,
        4,
        10,
        4,
        2,
        3,
        1,
        &[Codec::None, Codec::ShuffleRle, Codec::Lossy(8)],
    );
    let raw = r.raw();
    assert_eq!(raw.compression_ratio, 1.0, "raw runs store byte-for-byte");
    let rle = r.mode("shuffle-rle").expect("shuffle-rle row");
    assert_eq!(rle.max_dist_vs_raw, 0.0, "lossless parity");
    assert!(
        rle.compression_ratio >= 1.0,
        "stored-raw fallback bounds the ratio at 1.0: {}",
        rle.compression_ratio
    );
    assert_eq!(
        rle.gb_logical_written, raw.gb_logical_written,
        "codec must not change the amplitude traffic"
    );
    let lossy = r.mode("lossy-8").expect("lossy-8 row");
    assert!(
        lossy.max_dist_vs_raw < 1e-10,
        "lossy-8 error {:e} above budget",
        lossy.max_dist_vs_raw
    );
    assert!(lossy.compression_ratio >= rle.compression_ratio);
}
