//! # qsim-compress
//!
//! Chunked amplitude codec for the out-of-core backend (ROADMAP item 4).
//!
//! Supremacy-circuit states are highly compressible at early depth: the
//! amplitudes take few distinct values (the uniform start state decorated
//! by a handful of phase factors), so the sign/exponent/high-mantissa
//! bytes of neighbouring `Complex<R>` scalars are overwhelmingly equal.
//! The codec turns that redundancy into long zero runs in three steps:
//!
//! 1. **XOR-delta, stride 2** — each scalar's IEEE-754 bit pattern is
//!    XORed with the previous scalar of the same lane (re with previous
//!    re, im with previous im). Equal or near-equal neighbours become
//!    zeros or sparse low-bit patterns; strictly reversible by prefix
//!    XOR.
//! 2. **Byte-plane shuffle** — a Blosc-style transpose: byte `p` of every
//!    delta is gathered into plane `p`, so the (mostly zero) high planes
//!    form runs of length `2·n_amps` instead of being interleaved with
//!    the noisy mantissa bytes.
//! 3. **Run-length coding** with literal runs, short repeat runs and
//!    extended (u16-length) runs — zero planes collapse to a few bytes.
//!
//! Every encoded block is a self-describing [frame](FRAME_HEADER_LEN)
//! with a **stored-raw fallback**: when the RLE output would not beat the
//! raw bytes (late-depth, entropy-saturated states) the frame stores the
//! scalars verbatim, so an incompressible chunk never costs more than a
//! memcpy plus 16 header bytes.
//!
//! The lossless tier ([`Codec::ShuffleRle`]) is bit-exact: decode
//! reproduces the input bit patterns including NaN payloads, signed
//! zeros and denormals. The lossy tier ([`Codec::Lossy`]) masks the low
//! `bits` mantissa bits *before* the delta (truncation is the loss; the
//! rest of the pipeline stays lossless), trading fidelity for longer
//! runs in the low planes. Decoding never needs to know the codec — the
//! frame records only the payload encoding — so a reader can decode any
//! mix of frames, which is what lets checkpoint digests cover the
//! encoded bytes unchanged.

use qsim_util::complex::Complex;
use qsim_util::Real;
use std::io;

/// Frame header magic ("QZ").
pub const FRAME_MAGIC: [u8; 2] = *b"QZ";

/// Fixed frame header: magic (2) + payload encoding (1) + scalar width
/// (1) + amp offset (4, LE) + amplitude count (4, LE) + payload length
/// (4, LE).
pub const FRAME_HEADER_LEN: usize = 16;

/// Payload stored as raw little-endian scalars (fallback, or the value
/// `Codec::None` would write if framed).
const ENC_RAW: u8 = 0;
/// Payload is the XOR-delta + byte-plane shuffle + RLE pipeline.
const ENC_SHUFFLE_RLE: u8 = 1;

/// Chunk codec selection, as configured per OOC run (`--compress`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Codec {
    /// Raw chunk files, byte-identical to the pre-codec format.
    #[default]
    None,
    /// Lossless XOR-delta + byte-plane shuffle + RLE.
    ShuffleRle,
    /// Same pipeline after masking the low `bits` mantissa bits of every
    /// scalar (truncation toward zero). `bits` is clamped to the
    /// precision's mantissa width − 1 at encode time.
    Lossy(u8),
}

impl Codec {
    /// Parse a `--compress` argument: `none`, `shuffle-rle` or
    /// `lossy-<bits>` with 1 ≤ bits ≤ 51.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "none" => Ok(Codec::None),
            "shuffle-rle" => Ok(Codec::ShuffleRle),
            _ => match s.strip_prefix("lossy-") {
                Some(b) => match b.parse::<u8>() {
                    Ok(bits) if (1..=51).contains(&bits) => Ok(Codec::Lossy(bits)),
                    _ => Err(format!("bad lossy bit count '{b}' (expected 1..=51)")),
                },
                None => Err(format!(
                    "unknown codec '{s}' (expected none, shuffle-rle or lossy-<bits>)"
                )),
            },
        }
    }

    /// Canonical name, recorded in checkpoint manifests (cross-codec
    /// resume is rejected on mismatch) and telemetry.
    pub fn name(&self) -> String {
        match self {
            Codec::None => "none".to_string(),
            Codec::ShuffleRle => "shuffle-rle".to_string(),
            Codec::Lossy(bits) => format!("lossy-{bits}"),
        }
    }

    #[inline]
    pub fn is_none(&self) -> bool {
        matches!(self, Codec::None)
    }

    /// Whether decode reproduces the input bit patterns exactly.
    #[inline]
    pub fn is_lossless(&self) -> bool {
        !matches!(self, Codec::Lossy(_))
    }

    /// Bit mask applied to each scalar's pattern before encoding: all
    /// ones except the low mantissa bits a lossy tier truncates. Clamped
    /// so the mask never reaches the exponent field (f64 keeps ≥ 1
    /// mantissa bit of 52, f32 ≥ 1 of 23).
    fn mantissa_mask<R: Real>(&self) -> u64 {
        match self {
            Codec::Lossy(bits) => {
                let mantissa = if R::BYTES == 8 { 52u32 } else { 23u32 };
                let drop = (*bits as u32).min(mantissa - 1);
                !((1u64 << drop) - 1)
            }
            _ => !0u64,
        }
    }
}

impl std::fmt::Display for Codec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Reusable encode/decode working memory (the plane transpose buffer and
/// the RLE staging buffer), so the steady-state chunk loop does not
/// allocate per frame.
#[derive(Debug, Default)]
pub struct CodecScratch {
    planes: Vec<u8>,
    rle: Vec<u8>,
}

fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Little-endian u64 from 1–8 bytes.
#[inline]
fn read_le(bytes: &[u8]) -> u64 {
    let mut v = 0u64;
    for (i, &b) in bytes.iter().enumerate() {
        v |= (b as u64) << (8 * i);
    }
    v
}

/// Append one encoded frame covering `amps` at amplitude offset
/// `amp_off` of its chunk. The frame is self-describing; `codec` only
/// selects the transform (and the lossy mask), it is not recorded.
pub fn encode_frame<R: Real>(
    codec: Codec,
    amp_off: usize,
    amps: &[Complex<R>],
    scratch: &mut CodecScratch,
    out: &mut Vec<u8>,
) {
    let b = R::BYTES;
    let n = amps.len();
    let raw_len = n * 2 * b;
    assert!(
        amp_off <= u32::MAX as usize && n <= u32::MAX as usize && raw_len <= u32::MAX as usize,
        "frame exceeds u32 header fields"
    );
    let mask = codec.mantissa_mask::<R>();
    let header_at = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
    let mut encoding = ENC_RAW;
    if !codec.is_none() {
        // Delta + shuffle into the plane buffer: plane `p` holds byte
        // `p` of every delta, scalars in chunk order (re, im, re, …).
        let s_count = 2 * n;
        scratch.planes.clear();
        scratch.planes.resize(s_count * b, 0);
        let planes = &mut scratch.planes[..];
        let mut prev = [0u64; 2];
        for (i, a) in amps.iter().enumerate() {
            let scalars = [a.re.to_bits_u64() & mask, a.im.to_bits_u64() & mask];
            for (k, &bits) in scalars.iter().enumerate() {
                let d = if i == 0 { bits } else { bits ^ prev[k] };
                prev[k] = bits;
                let j = 2 * i + k;
                for plane in 0..b {
                    planes[plane * s_count + j] = (d >> (8 * plane)) as u8;
                }
            }
        }
        scratch.rle.clear();
        rle_encode(planes, &mut scratch.rle);
        if scratch.rle.len() < raw_len {
            out.extend_from_slice(&scratch.rle);
            encoding = ENC_SHUFFLE_RLE;
        }
    }
    if encoding == ENC_RAW {
        // Stored-raw fallback (and the Codec::None framing): masked
        // scalars verbatim, so an incompressible frame costs a memcpy.
        out.reserve(raw_len);
        for a in amps {
            out.extend_from_slice(&(a.re.to_bits_u64() & mask).to_le_bytes()[..b]);
            out.extend_from_slice(&(a.im.to_bits_u64() & mask).to_le_bytes()[..b]);
        }
    }
    let payload_len = out.len() - header_at - FRAME_HEADER_LEN;
    let h = &mut out[header_at..header_at + FRAME_HEADER_LEN];
    h[0..2].copy_from_slice(&FRAME_MAGIC);
    h[2] = encoding;
    h[3] = b as u8;
    h[4..8].copy_from_slice(&(amp_off as u32).to_le_bytes());
    h[8..12].copy_from_slice(&(n as u32).to_le_bytes());
    h[12..16].copy_from_slice(&(payload_len as u32).to_le_bytes());
}

/// Decode a sequence of frames into `out`. Frames may land at any
/// offsets (a scattered chunk file appends one frame per piece) but
/// must jointly cover `out` exactly: total decoded amplitudes ==
/// `out.len()`. All malformed inputs are [`io::ErrorKind::InvalidData`],
/// never a panic — these bytes come straight from disk.
pub fn decode_frames<R: Real>(
    bytes: &[u8],
    scratch: &mut CodecScratch,
    out: &mut [Complex<R>],
) -> io::Result<()> {
    let b = R::BYTES;
    let mut pos = 0usize;
    let mut covered = 0usize;
    while pos < bytes.len() {
        if bytes.len() - pos < FRAME_HEADER_LEN {
            return Err(corrupt("truncated frame header"));
        }
        let h = &bytes[pos..pos + FRAME_HEADER_LEN];
        if h[0..2] != FRAME_MAGIC {
            return Err(corrupt("bad frame magic"));
        }
        let encoding = h[2];
        if h[3] as usize != b {
            return Err(corrupt(format!(
                "frame scalar width {} != {} (cross-precision read)",
                h[3], b
            )));
        }
        let amp_off = u32::from_le_bytes(h[4..8].try_into().unwrap()) as usize;
        let n = u32::from_le_bytes(h[8..12].try_into().unwrap()) as usize;
        let payload_len = u32::from_le_bytes(h[12..16].try_into().unwrap()) as usize;
        pos += FRAME_HEADER_LEN;
        if bytes.len() - pos < payload_len {
            return Err(corrupt("truncated frame payload"));
        }
        let payload = &bytes[pos..pos + payload_len];
        pos += payload_len;
        if amp_off.checked_add(n).is_none_or(|end| end > out.len()) {
            return Err(corrupt(format!(
                "frame [{amp_off}, {amp_off}+{n}) outside chunk of {}",
                out.len()
            )));
        }
        let dst = &mut out[amp_off..amp_off + n];
        match encoding {
            ENC_RAW => {
                if payload_len != n * 2 * b {
                    return Err(corrupt("raw frame payload length mismatch"));
                }
                for (i, a) in dst.iter_mut().enumerate() {
                    let at = i * 2 * b;
                    a.re = R::from_bits_u64(read_le(&payload[at..at + b]));
                    a.im = R::from_bits_u64(read_le(&payload[at + b..at + 2 * b]));
                }
            }
            ENC_SHUFFLE_RLE => {
                let s_count = 2 * n;
                scratch.planes.clear();
                scratch.planes.resize(s_count * b, 0);
                rle_decode(payload, &mut scratch.planes)?;
                let planes = &scratch.planes[..];
                let mut prev = [0u64; 2];
                for (i, a) in dst.iter_mut().enumerate() {
                    #[allow(clippy::needless_range_loop)]
                    for k in 0..2 {
                        let j = 2 * i + k;
                        let mut d = 0u64;
                        for plane in 0..b {
                            d |= (planes[plane * s_count + j] as u64) << (8 * plane);
                        }
                        let bits = if i == 0 { d } else { d ^ prev[k] };
                        prev[k] = bits;
                        let v = R::from_bits_u64(bits);
                        if k == 0 {
                            a.re = v;
                        } else {
                            a.im = v;
                        }
                    }
                }
            }
            other => return Err(corrupt(format!("unknown frame encoding {other}"))),
        }
        covered += n;
    }
    if covered != out.len() {
        return Err(corrupt(format!(
            "frames cover {covered} of {} amplitudes",
            out.len()
        )));
    }
    Ok(())
}

// RLE token grammar (control byte `c`):
//   0x00..=0x7F  literal run of c+1 bytes (1..=128), bytes follow
//   0x80..=0xFE  repeat run of (c - 0x80 + 4) copies (4..=130) of the
//                next byte
//   0xFF         extended repeat: u16 LE length (131..=65535), then the
//                byte
// Runs shorter than 4 are cheaper as literals (1 control byte per 128
// vs 2 bytes per run), so 4 is the repeat threshold.

fn flush_literals(src: &[u8], out: &mut Vec<u8>) {
    for lit in src.chunks(128) {
        out.push((lit.len() - 1) as u8);
        out.extend_from_slice(lit);
    }
}

fn rle_encode(input: &[u8], out: &mut Vec<u8>) {
    let n = input.len();
    let mut i = 0usize;
    let mut lit = 0usize;
    while i < n {
        let v = input[i];
        let mut j = i + 1;
        while j < n && input[j] == v {
            j += 1;
        }
        let mut run = j - i;
        if run >= 4 {
            flush_literals(&input[lit..i], out);
            while run >= 4 {
                if run >= 131 {
                    let m = run.min(65535);
                    out.push(0xFF);
                    out.extend_from_slice(&(m as u16).to_le_bytes());
                    out.push(v);
                    run -= m;
                } else {
                    out.push(0x80 + (run as u8 - 4));
                    out.push(v);
                    run = 0;
                }
            }
            // A sub-4 remainder of a chopped extended run joins the next
            // literal block.
            lit = j - run;
        }
        i = j;
    }
    flush_literals(&input[lit..n], out);
}

fn rle_decode(input: &[u8], out: &mut [u8]) -> io::Result<()> {
    let mut i = 0usize;
    let mut o = 0usize;
    while i < input.len() {
        let c = input[i];
        i += 1;
        if c < 0x80 {
            let len = c as usize + 1;
            if input.len() - i < len || out.len() - o < len {
                return Err(corrupt("literal run overflows frame"));
            }
            out[o..o + len].copy_from_slice(&input[i..i + len]);
            i += len;
            o += len;
        } else {
            let len = if c == 0xFF {
                if input.len() - i < 3 {
                    return Err(corrupt("truncated extended run"));
                }
                let len = u16::from_le_bytes([input[i], input[i + 1]]) as usize;
                i += 2;
                len
            } else {
                c as usize - 0x80 + 4
            };
            if input.len() - i < 1 {
                return Err(corrupt("truncated repeat run"));
            }
            let v = input[i];
            i += 1;
            if out.len() - o < len {
                return Err(corrupt("repeat run overflows frame"));
            }
            out[o..o + len].fill(v);
            o += len;
        }
    }
    if o != out.len() {
        return Err(corrupt(format!("RLE produced {o} of {} bytes", out.len())));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_util::{c32, c64, SplitMix64};

    fn rle_round_trip(input: &[u8]) {
        let mut enc = Vec::new();
        rle_encode(input, &mut enc);
        let mut back = vec![0u8; input.len()];
        rle_decode(&enc, &mut back).unwrap();
        assert_eq!(back, input, "rle round trip of {} bytes", input.len());
    }

    #[test]
    fn rle_edge_cases() {
        rle_round_trip(&[]);
        rle_round_trip(&[7]);
        rle_round_trip(&[1, 2, 3]);
        rle_round_trip(&[5; 4]);
        rle_round_trip(&[5; 130]);
        rle_round_trip(&[5; 131]);
        rle_round_trip(&[5; 65535]);
        rle_round_trip(&[5; 65536]); // extended run + literal remainder
        rle_round_trip(&[5; 65535 + 4]); // extended + short run
        rle_round_trip(&[0; 200_000]);
        let mut mixed = vec![1, 1, 1, 2, 2, 2, 2, 9];
        mixed.extend_from_slice(&[0; 300]);
        mixed.extend((0..500).map(|i| (i % 251) as u8));
        rle_round_trip(&mixed);
    }

    #[test]
    fn zero_runs_collapse() {
        let mut enc = Vec::new();
        rle_encode(&[0u8; 65535], &mut enc);
        assert_eq!(enc.len(), 4, "one extended run token");
    }

    fn frame_round_trip<R: Real>(codec: Codec, amps: &[Complex<R>]) -> usize {
        let mut scratch = CodecScratch::default();
        let mut bytes = Vec::new();
        encode_frame(codec, 0, amps, &mut scratch, &mut bytes);
        let mut back = vec![Complex::<R>::zero(); amps.len()];
        decode_frames(&bytes, &mut scratch, &mut back).unwrap();
        if codec.is_lossless() {
            for (a, b) in amps.iter().zip(&back) {
                assert_eq!(a.re.to_bits_u64(), b.re.to_bits_u64());
                assert_eq!(a.im.to_bits_u64(), b.im.to_bits_u64());
            }
        }
        bytes.len()
    }

    #[test]
    fn uniform_chunk_compresses_massively() {
        let amps = vec![c64::new(0.176_776_695_296_636_9, 0.0); 1 << 12];
        let encoded = frame_round_trip(Codec::ShuffleRle, &amps);
        let raw = amps.len() * 16;
        assert!(
            encoded * 100 < raw,
            "uniform chunk must compress >100x, got {raw}/{encoded}"
        );
    }

    #[test]
    fn special_values_round_trip_bit_exactly() {
        let amps = vec![
            c64::new(0.0, -0.0),
            c64::new(f64::from_bits(1), f64::from_bits(0x000f_ffff_ffff_ffff)), // denormals
            c64::new(f64::INFINITY, f64::NEG_INFINITY),
            c64::new(f64::from_bits(0x7ff8_0000_dead_beef), 1.5), // NaN payload
            c64::new(f64::MIN_POSITIVE, -f64::MAX),
        ];
        frame_round_trip(Codec::ShuffleRle, &amps);
        let amps32 = vec![
            c32::new(0.0, -0.0),
            c32::new(f32::from_bits(1), f32::from_bits(0x007f_ffff)),
            c32::new(f32::INFINITY, f32::NEG_INFINITY),
        ];
        frame_round_trip(Codec::ShuffleRle, &amps32);
    }

    #[test]
    fn incompressible_random_hits_stored_raw() {
        let mut rng = SplitMix64::new(42);
        let amps: Vec<c64> = (0..1024)
            .map(|_| {
                c64::new(
                    f64::from_bits(rng.next_u64()),
                    f64::from_bits(rng.next_u64()),
                )
            })
            .collect();
        let encoded = frame_round_trip(Codec::ShuffleRle, &amps);
        let raw = amps.len() * 16;
        assert_eq!(
            encoded,
            raw + FRAME_HEADER_LEN,
            "random bits must fall back to stored-raw (header-only overhead)"
        );
    }

    #[test]
    fn scattered_frames_reassemble() {
        let mut scratch = CodecScratch::default();
        let chunk: Vec<c64> = (0..64).map(|i| c64::new(i as f64, -1.0)).collect();
        let mut bytes = Vec::new();
        // Pieces appended out of order, as a scatter pass would.
        for &(off, len) in &[(32usize, 16usize), (0, 32), (48, 16)] {
            encode_frame(
                Codec::ShuffleRle,
                off,
                &chunk[off..off + len],
                &mut scratch,
                &mut bytes,
            );
        }
        let mut back = vec![c64::zero(); 64];
        decode_frames(&bytes, &mut scratch, &mut back).unwrap();
        assert_eq!(back, chunk);
    }

    #[test]
    fn partial_coverage_is_rejected() {
        let mut scratch = CodecScratch::default();
        let chunk = vec![c64::one(); 16];
        let mut bytes = Vec::new();
        encode_frame(Codec::ShuffleRle, 0, &chunk[..8], &mut scratch, &mut bytes);
        let mut back = vec![c64::zero(); 16];
        let err = decode_frames(&bytes, &mut scratch, &mut back).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn corrupt_inputs_error_not_panic() {
        let mut scratch = CodecScratch::default();
        let mut out = vec![c64::zero(); 4];
        for bad in [
            &b"QZ"[..],                                                // truncated header
            &[0u8; FRAME_HEADER_LEN],                                  // bad magic
            &[b'Q', b'Z', 9, 8, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0],   // unknown encoding
            &[b'Q', b'Z', 0, 4, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0],   // wrong width
            &[b'Q', b'Z', 0, 8, 0, 0, 0, 0, 4, 0, 255, 0, 0, 0, 0, 0], // truncated payload
        ] {
            assert!(decode_frames::<f64>(bad, &mut scratch, &mut out).is_err());
        }
    }

    #[test]
    fn lossy_masks_low_mantissa_and_nothing_else() {
        let amps = vec![c64::new(std::f64::consts::PI, -std::f64::consts::E); 8];
        let mut scratch = CodecScratch::default();
        let mut bytes = Vec::new();
        encode_frame(Codec::Lossy(8), 0, &amps, &mut scratch, &mut bytes);
        let mut back = vec![c64::zero(); 8];
        decode_frames(&bytes, &mut scratch, &mut back).unwrap();
        for (a, b) in amps.iter().zip(&back) {
            assert_eq!(b.re.to_bits() & 0xff, 0, "low mantissa bits dropped");
            assert_eq!(a.re.to_bits() & !0xffu64, b.re.to_bits());
            assert_eq!(a.im.to_bits() & !0xffu64, b.im.to_bits());
            assert!((a.re - b.re).abs() < 1e-13);
        }
        // Lossy bit counts are clamped below the exponent at f32.
        let amps32 = vec![c32::new(1.25, -3.5); 4];
        let mut b32 = Vec::new();
        encode_frame(Codec::Lossy(51), 0, &amps32, &mut scratch, &mut b32);
        let mut back32 = vec![c32::zero(); 4];
        decode_frames(&b32, &mut scratch, &mut back32).unwrap();
        for b in &back32 {
            assert!(b.re.is_finite() && b.re > 0.0, "exponent/sign preserved");
        }
    }

    #[test]
    fn codec_parse_and_names() {
        assert_eq!(Codec::parse("none"), Ok(Codec::None));
        assert_eq!(Codec::parse("shuffle-rle"), Ok(Codec::ShuffleRle));
        assert_eq!(Codec::parse("lossy-8"), Ok(Codec::Lossy(8)));
        assert!(Codec::parse("lossy-0").is_err());
        assert!(Codec::parse("lossy-52").is_err());
        assert!(Codec::parse("gzip").is_err());
        for c in [Codec::None, Codec::ShuffleRle, Codec::Lossy(12)] {
            assert_eq!(Codec::parse(&c.name()), Ok(c));
        }
        assert!(Codec::None.is_none() && Codec::None.is_lossless());
        assert!(Codec::ShuffleRle.is_lossless());
        assert!(!Codec::Lossy(8).is_lossless());
    }
}
