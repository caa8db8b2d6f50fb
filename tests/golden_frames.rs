//! Golden frames: the bytes `encode_frame` writes, pinned across commits.
//! A chunk file is a sequence of these frames and a checkpoint digests
//! them, so an encoder change that moves a byte moves every compressed
//! manifest. Each row pins `fnv1a64` of one frame: a whole 2^16-amplitude
//! state and a ragged 4099-amplitude piece of it at an offset, at depth 10
//! and 25, f64 and f32, under every codec tier — plus a random-bits frame
//! (stored raw) and an all-equal one.

use qsim45::circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim45::compress::{encode_frame, Codec, CodecScratch};
use qsim45::core::checkpoint::fnv1a64;
use qsim45::core::SingleNodeSimulator;
use qsim45::kernels::{KernelConfig, SweepDispatch};
use qsim45::util::complex::Complex;
use qsim45::util::{c64, SplitMix64};

const CODECS: [Codec; 3] = [Codec::ShuffleRle, Codec::Lossy(8), Codec::Lossy(51)];

fn frame_digest<R: SweepDispatch>(codec: Codec, off: usize, amps: &[Complex<R>]) -> u64 {
    let mut bytes = Vec::new();
    encode_frame(codec, off, amps, &mut CodecScratch::default(), &mut bytes);
    fnv1a64(&bytes)
}

/// `(name, digest)` of every frame of the 4×4 state at `depth`, seed 1.
fn state_frames<R: SweepDispatch>(depth: u32) -> Vec<(String, u64)> {
    let circuit = supremacy_circuit(&SupremacySpec {
        rows: 4,
        cols: 4,
        depth,
        seed: 1,
    });
    let sim = SingleNodeSimulator {
        kernel: KernelConfig::sequential(),
        ..Default::default()
    };
    let state = sim.try_run_t::<R>(&circuit).expect("4x4 state").state;
    let amps = state.amplitudes();
    let mut rows = Vec::new();
    for codec in CODECS {
        for (off, len) in [(0, amps.len()), (1000, 4099)] {
            let name = format!("{} d{depth} {codec} [{off}, +{len})", R::NAME);
            rows.push((name, frame_digest(codec, off, &amps[off..off + len])));
        }
    }
    rows
}

fn observe() -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for depth in [10, 25] {
        rows.extend(state_frames::<f64>(depth));
        rows.extend(state_frames::<f32>(depth));
    }
    let mut rng = SplitMix64::new(7);
    let random: Vec<c64> = (0..4099)
        .map(|_| {
            c64::new(
                f64::from_bits(rng.next_u64()),
                f64::from_bits(rng.next_u64()),
            )
        })
        .collect();
    rows.push(("random".into(), frame_digest(Codec::ShuffleRle, 0, &random)));
    let equal = vec![c64::new(0.125, -0.0); 4096];
    rows.push((
        "all-equal".into(),
        frame_digest(Codec::ShuffleRle, 4096, &equal),
    ));
    rows
}

#[test]
fn encode_frame_writes_the_pinned_bytes() {
    #[rustfmt::skip]
    let pinned: [u64; 26] = [
        0x48f2be94446524e0, // f64 d10 shuffle-rle [0, +65536)
        0xf47d12520f815cf7, // f64 d10 shuffle-rle [1000, +4099)
        0xcd98e87f7660a92b, // f64 d10 lossy-8 [0, +65536)
        0x7c61a22d6bc6a6b9, // f64 d10 lossy-8 [1000, +4099)
        0x0c415d8f76955772, // f64 d10 lossy-51 [0, +65536)
        0xf6f1d1aea92e42b9, // f64 d10 lossy-51 [1000, +4099)
        0x6455c84a3d23abbd, // f32 d10 shuffle-rle [0, +65536)
        0x91466e498dc215c0, // f32 d10 shuffle-rle [1000, +4099)
        0xa7c7eb4b4b3480b0, // f32 d10 lossy-8 [0, +65536)
        0x294952818eb01ab3, // f32 d10 lossy-8 [1000, +4099)
        0x4c2b8b06cc258a5a, // f32 d10 lossy-51 [0, +65536)
        0xa21a2e8e9d86d052, // f32 d10 lossy-51 [1000, +4099)
        0xb19f90c2980ac400, // f64 d25 shuffle-rle [0, +65536)
        0x1a9cf27709e795c7, // f64 d25 shuffle-rle [1000, +4099)
        0xdb9408b81bc6c2db, // f64 d25 lossy-8 [0, +65536)
        0x7401ddf2fb449887, // f64 d25 lossy-8 [1000, +4099)
        0xcc9debed527d400b, // f64 d25 lossy-51 [0, +65536)
        0xab6bb898e44f3218, // f64 d25 lossy-51 [1000, +4099)
        0x5b82a6197d1bf990, // f32 d25 shuffle-rle [0, +65536)
        0x07be249dec73c809, // f32 d25 shuffle-rle [1000, +4099)
        0xd24aeedc55dd5fa3, // f32 d25 lossy-8 [0, +65536)
        0xb7efe5b3f6fbf022, // f32 d25 lossy-8 [1000, +4099)
        0x7352b3db433e63c5, // f32 d25 lossy-51 [0, +65536)
        0x1ab8518ae4061f92, // f32 d25 lossy-51 [1000, +4099)
        0x197b30a6f64e372e, // random
        0x0992b0b95f67c33e, // all-equal
    ];
    let rows = observe();
    let got: Vec<u64> = rows.iter().map(|r| r.1).collect();
    if got != pinned {
        for (name, d) in &rows {
            eprintln!("{d:#018x}, // {name}");
        }
    }
    for ((name, d), want) in rows.iter().zip(pinned) {
        assert_eq!(*d, want, "{name}: {d:#018x} != {want:#018x}");
    }
}
