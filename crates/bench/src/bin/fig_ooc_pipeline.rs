//! §5 outlook — the out-of-core pipeline benchmark.
//!
//! Runs one depth-25 supremacy schedule through three out-of-core engine
//! modes and reports full-state disk traversals, bytes moved, IO/compute
//! overlap and wall-clock:
//!
//! * **sync segmented** — the synchronous baseline on a schedule
//!   segmented to `--segment-ops` ops per stage (1 by default, i.e. one
//!   traversal per op: the naive "stream the state for every gate"
//!   shape);
//! * **sync coarse** — the same engine on the planner's fused stages;
//! * **pipelined** — stage-run batching (one traversal per swap
//!   boundary) + async prefetch/writeback + compiled-stage compute.
//!
//! Writes the machine-readable `BENCH_ooc_pipeline.json`.
//!
//! `--mode compress` instead compares chunk codecs on the pipelined
//! engine — raw vs `shuffle-rle` (lossless) vs `lossy-8` — at each of
//! `--depths` (default `10,25`), reporting bytes on disk, compression
//! ratio, codec time and wall-clock, and writes
//! `BENCH_ooc_compress.json`.

use qsim_bench::harness::*;
use qsim_bench::ooc_report::{compress_reports_to_json, run_compress_bench, run_ooc_bench};
use qsim_ooc::Codec;

fn main() {
    let rows = arg_u32("--rows", 2);
    let cols = arg_u32("--cols", 11);
    let depth = arg_u32("--depth", 25);
    let kmax = arg_u32("--kmax", 4);
    let g = arg_u32("--global-qubits", 2);
    let segment_ops = arg_u32("--segment-ops", 1) as usize;
    let prefetch_depth = arg_u32("--prefetch-depth", 3) as usize;
    let threads = arg_u32("--threads", num_threads() as u32) as usize;

    if arg_value("--mode").as_deref() == Some("compress") {
        return compress_mode(rows, cols, kmax, g, prefetch_depth, threads);
    }

    let r = run_ooc_bench(
        rows,
        cols,
        depth,
        kmax,
        g,
        segment_ops,
        prefetch_depth,
        threads,
    );
    println!(
        "# OOC pipeline — {rows}x{cols} grid (n={n}), depth {depth}, kmax {kmax}, \
         2^{g} chunks, segment_ops {segment_ops}, prefetch {prefetch_depth}, {threads} threads",
        n = r.n_qubits
    );
    println!(
        "# segmented stages: {}, swap boundaries: {}",
        r.stages, r.swaps
    );
    row(&[
        cell("mode", 16),
        cell("seconds", 10),
        cell("traversals", 11),
        cell("GB read", 9),
        cell("GB written", 11),
        cell("io wait s", 10),
        cell("compute s", 10),
        cell("overlap", 8),
        cell("runs", 5),
    ]);
    for m in [&r.sync_segmented, &r.sync_coarse, &r.pipelined] {
        row(&[
            cell(m.label, 16),
            cell(format!("{:.3}", m.seconds), 10),
            cell(m.traversals, 11),
            cell(format!("{:.3}", m.gb_read), 9),
            cell(format!("{:.3}", m.gb_written), 11),
            cell(format!("{:.3}", m.io_wait_seconds), 10),
            cell(format!("{:.3}", m.compute_seconds), 10),
            cell(format!("{:.2}", m.overlap_fraction), 8),
            cell(m.runs, 5),
        ]);
    }
    println!(
        "# traversal ratio (sync segmented : pipelined): {:.2}x  (acceptance floor: 3x)",
        r.traversal_ratio()
    );
    println!(
        "# wall-clock speedup (sync segmented : pipelined): {:.2}x  (acceptance floor: 1.3x)",
        r.speedup()
    );

    let json = r.to_json();
    std::fs::write("BENCH_ooc_pipeline.json", &json).expect("write BENCH_ooc_pipeline.json");
    println!("# wrote BENCH_ooc_pipeline.json");
}

/// `--mode compress`: codec comparison at each requested depth.
fn compress_mode(rows: u32, cols: u32, kmax: u32, g: u32, prefetch_depth: usize, threads: usize) {
    let depths: Vec<u32> = arg_value("--depths")
        .unwrap_or_else(|| "10,25".into())
        .split(',')
        .map(|d| d.trim().parse().expect("bad --depths"))
        .collect();
    let codecs = [Codec::None, Codec::ShuffleRle, Codec::Lossy(8)];
    let mut reports = Vec::new();
    for &depth in &depths {
        let r = run_compress_bench(rows, cols, depth, kmax, g, prefetch_depth, threads, &codecs);
        println!(
            "# OOC compression — {rows}x{cols} grid (n={n}), depth {depth}, kmax {kmax}, \
             2^{g} chunks, prefetch {prefetch_depth}, {threads} threads, {s} swaps",
            n = r.n_qubits,
            s = r.swaps
        );
        row(&[
            cell("codec", 12),
            cell("seconds", 10),
            cell("GB logical", 11),
            cell("GB on disk", 11),
            cell("ratio", 7),
            cell("enc s", 7),
            cell("dec s", 7),
            cell("io wait s", 10),
            cell("overlap", 8),
            cell("max dist", 10),
        ]);
        for m in &r.modes {
            row(&[
                cell(&m.label, 12),
                cell(format!("{:.3}", m.seconds), 10),
                cell(format!("{:.3}", m.gb_logical_written), 11),
                cell(format!("{:.3}", m.gb_written), 11),
                cell(format!("{:.2}x", m.compression_ratio), 7),
                cell(format!("{:.2}", m.encode_seconds), 7),
                cell(format!("{:.2}", m.decode_seconds), 7),
                cell(format!("{:.3}", m.io_wait_seconds), 10),
                cell(format!("{:.2}", m.overlap_fraction), 8),
                cell(format!("{:.1e}", m.max_dist_vs_raw), 10),
            ]);
        }
        println!(
            "# shuffle-rle: {:.2}x fewer bytes written, {:.2}x wall-clock vs raw \
             (the start state, the one highly compressible generation, is synthesised \
             and never written)",
            r.mode("shuffle-rle")
                .map(|m| m.compression_ratio)
                .unwrap_or(f64::NAN),
            r.wallclock_ratio("shuffle-rle"),
        );
        reports.push(r);
    }
    let json = compress_reports_to_json(&reports);
    std::fs::write("BENCH_ooc_compress.json", &json).expect("write BENCH_ooc_compress.json");
    println!("# wrote BENCH_ooc_compress.json");
}
