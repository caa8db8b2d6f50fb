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

use qsim_util::complex::{amps_as_bytes, amps_as_bytes_mut, Complex};
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

/// Largest frame the chunk writer emits, in amplitudes: 64 KiB of f64
/// scalars, so one frame's plane buffer and encoded bytes stay in L2.
/// The decoder takes frames of any size, so files written as one
/// whole-chunk frame stay readable.
pub const FRAME_AMPS: usize = 1 << 12;

/// Reusable encode/decode working memory (the plane transpose buffer and
/// the spans of the frames decoded into the current chunk), so the
/// steady-state chunk loop does not allocate per frame.
#[derive(Debug, Default)]
pub struct CodecScratch {
    planes: Vec<u8>,
    /// `(amp_off, amps)` of every frame [`decode_frame`] decoded since
    /// [`CodecScratch::start_chunk`], for [`CodecScratch::check_tiling`].
    spans: Vec<(usize, usize)>,
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

/// Little-endian u64 from the 8 bytes at `at` (one unaligned load).
#[inline(always)]
fn load8(bytes: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(w)
}

/// Transpose the 8×8 byte matrix held in `rows` (byte `c` of `rows[r]`
/// is entry (r, c)) in three masked-swap stages: stage `k` exchanges bit
/// `k` of the row index with bit `k` of the byte index. Its own inverse.
#[inline(always)]
fn transpose8(rows: &mut [u64; 8]) {
    for (shift, mask) in [
        (8, 0x00ff_00ff_00ff_00ffu64),
        (16, 0x0000_ffff_0000_ffff),
        (32, 0x0000_0000_ffff_ffff),
    ] {
        let step = shift / 8;
        for r in (0..8).filter(|r| r & step == 0) {
            let t = ((rows[r] >> shift) ^ rows[r + step]) & mask;
            rows[r + step] ^= t;
            rows[r] ^= t << shift;
        }
    }
}

/// XOR-delta at stride 2 plus byte-plane shuffle of `amps` into
/// `planes`: plane `p` holds byte `p` of every delta, scalars in chunk
/// order (re, im, re, …). Four amplitudes (8 scalars) at a time: their
/// deltas are the rows of an 8×8 byte matrix whose transpose is one
/// 8-byte word per plane.
fn shuffle<R: Real>(amps: &[Complex<R>], mask: u64, planes: &mut Vec<u8>) {
    let b = R::BYTES;
    let s_count = 2 * amps.len();
    planes.clear();
    planes.resize(s_count * b, 0);
    let mut prev = [0u64; 2];
    let quads = amps.chunks_exact(4);
    let tail = quads.remainder();
    for (g, quad) in quads.enumerate() {
        let mut rows = [0u64; 8];
        for (pair, a) in rows.chunks_exact_mut(2).zip(quad) {
            let bits = [a.re.to_bits_u64() & mask, a.im.to_bits_u64() & mask];
            pair[0] = bits[0] ^ prev[0];
            pair[1] = bits[1] ^ prev[1];
            prev = bits;
        }
        transpose8(&mut rows);
        let j = 8 * g;
        for (plane, w) in planes.chunks_exact_mut(s_count).zip(rows) {
            plane[j..j + 8].copy_from_slice(&w.to_le_bytes());
        }
    }
    let first = amps.len() - tail.len();
    for (i, a) in tail.iter().enumerate() {
        let bits = [a.re.to_bits_u64() & mask, a.im.to_bits_u64() & mask];
        for k in 0..2 {
            let d = bits[k] ^ prev[k];
            let j = 2 * (first + i) + k;
            for plane in 0..b {
                planes[plane * s_count + j] = (d >> (8 * plane)) as u8;
            }
        }
        prev = bits;
    }
}

/// Inverse of [`shuffle`] (lossless part): the same transpose, then the
/// prefix XOR.
fn unshuffle<R: Real>(planes: &[u8], dst: &mut [Complex<R>]) {
    let b = R::BYTES;
    let s_count = 2 * dst.len();
    let mut prev = [0u64; 2];
    let first = dst.len() / 4 * 4;
    let (body, tail) = dst.split_at_mut(first);
    for (g, quad) in body.chunks_exact_mut(4).enumerate() {
        let j = 8 * g;
        let mut rows = [0u64; 8];
        for (w, plane) in rows.iter_mut().zip(planes.chunks_exact(s_count)) {
            *w = load8(plane, j);
        }
        transpose8(&mut rows);
        for (pair, a) in rows.chunks_exact(2).zip(quad) {
            prev = [pair[0] ^ prev[0], pair[1] ^ prev[1]];
            a.re = R::from_bits_u64(prev[0]);
            a.im = R::from_bits_u64(prev[1]);
        }
    }
    for (i, a) in tail.iter_mut().enumerate() {
        for (k, bits) in prev.iter_mut().enumerate() {
            let j = 2 * (first + i) + k;
            for plane in 0..b {
                *bits ^= (planes[plane * s_count + j] as u64) << (8 * plane);
            }
        }
        a.re = R::from_bits_u64(prev[0]);
        a.im = R::from_bits_u64(prev[1]);
    }
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
    // Room for the RLE output up to where it gives up (one literal flush
    // past `raw_len` at most), so the frame never reallocates `out`.
    out.reserve(FRAME_HEADER_LEN + raw_len + raw_len / 128 + 8);
    out.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
    let payload_at = out.len();
    let mut encoding = ENC_RAW;
    if !codec.is_none() {
        shuffle(amps, mask, &mut scratch.planes);
        if rle_encode(&scratch.planes, raw_len, out) {
            encoding = ENC_SHUFFLE_RLE;
        } else {
            out.truncate(payload_at);
        }
    }
    if encoding == ENC_RAW {
        // Stored-raw fallback (and the Codec::None framing): masked
        // scalars verbatim, so an incompressible frame costs a memcpy.
        if mask == !0 && cfg!(target_endian = "little") {
            out.extend_from_slice(amps_as_bytes(amps));
        } else {
            for a in amps {
                out.extend_from_slice(&(a.re.to_bits_u64() & mask).to_le_bytes()[..b]);
                out.extend_from_slice(&(a.im.to_bits_u64() & mask).to_le_bytes()[..b]);
            }
        }
    }
    let payload_len = out.len() - payload_at;
    let h = &mut out[header_at..payload_at];
    h[0..2].copy_from_slice(&FRAME_MAGIC);
    h[2] = encoding;
    h[3] = b as u8;
    h[4..8].copy_from_slice(&(amp_off as u32).to_le_bytes());
    h[8..12].copy_from_slice(&(n as u32).to_le_bytes());
    h[12..16].copy_from_slice(&(payload_len as u32).to_le_bytes());
}

/// The fixed header of one frame, checked against the chunk it claims a
/// span of: what a reader needs to take the frame's payload off a stream
/// and decode it ([`decode_frame`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    encoding: u8,
    /// First amplitude of the chunk the frame covers.
    pub amp_off: usize,
    /// Amplitudes the frame covers.
    pub amps: usize,
    /// Encoded payload bytes that follow the header.
    pub payload_len: usize,
}

impl FrameHeader {
    /// Parse the [`FRAME_HEADER_LEN`] bytes `h` of a frame of `R` scalars
    /// inside a chunk of `chunk_len` amplitudes. A bad magic, a foreign
    /// scalar width, a span outside the chunk and a payload longer than
    /// its amplitudes stored raw (no encoder writes one) are
    /// [`io::ErrorKind::InvalidData`], so a reader bounds what it stages
    /// before it reads the payload.
    pub fn parse<R: Real>(h: &[u8; FRAME_HEADER_LEN], chunk_len: usize) -> io::Result<Self> {
        let b = R::BYTES;
        let field = |at: usize| read_le(&h[at..at + 4]) as usize;
        if h[0..2] != FRAME_MAGIC {
            return Err(corrupt("bad frame magic"));
        }
        if h[3] as usize != b {
            return Err(corrupt(format!(
                "frame scalar width {} != {} (cross-precision read)",
                h[3], b
            )));
        }
        let (amp_off, amps, payload_len) = (field(4), field(8), field(12));
        if amp_off.checked_add(amps).is_none_or(|end| end > chunk_len) {
            return Err(corrupt(format!(
                "frame [{amp_off}, {amp_off}+{amps}) outside chunk of {chunk_len}"
            )));
        }
        if payload_len > amps * 2 * b {
            return Err(corrupt(format!(
                "frame payload of {payload_len} bytes exceeds its {amps} amplitudes stored raw"
            )));
        }
        Ok(Self {
            encoding: h[2],
            amp_off,
            amps,
            payload_len,
        })
    }
}

/// Decode the `payload` of the frame `h` heads into `dst`, its
/// `h.amps` amplitudes, and record the frame's span for
/// [`CodecScratch::check_tiling`].
pub fn decode_frame<R: Real>(
    h: &FrameHeader,
    payload: &[u8],
    scratch: &mut CodecScratch,
    dst: &mut [Complex<R>],
) -> io::Result<()> {
    let b = R::BYTES;
    assert_eq!(payload.len(), h.payload_len, "payload of another frame");
    assert_eq!(dst.len(), h.amps, "destination of another frame");
    match h.encoding {
        ENC_RAW => {
            if h.payload_len != h.amps * 2 * b {
                return Err(corrupt("raw frame payload length mismatch"));
            }
            if cfg!(target_endian = "little") {
                amps_as_bytes_mut(dst).copy_from_slice(payload);
            } else {
                for (a, s) in dst.iter_mut().zip(payload.chunks_exact(2 * b)) {
                    a.re = R::from_bits_u64(read_le(&s[..b]));
                    a.im = R::from_bits_u64(read_le(&s[b..]));
                }
            }
        }
        ENC_SHUFFLE_RLE => {
            scratch.planes.clear();
            scratch.planes.resize(2 * h.amps * b, 0);
            rle_decode(payload, &mut scratch.planes)?;
            unshuffle(&scratch.planes, dst);
        }
        other => return Err(corrupt(format!("unknown frame encoding {other}"))),
    }
    scratch.spans.push((h.amp_off, h.amps));
    Ok(())
}

impl CodecScratch {
    /// Forget the frames decoded so far: the next [`decode_frame`] starts
    /// a new chunk.
    pub fn start_chunk(&mut self) {
        self.spans.clear();
    }

    /// Check that the frames decoded since [`CodecScratch::start_chunk`]
    /// tile a chunk of `len` amplitudes exactly, in any order: every
    /// amplitude covered by one frame, none by two.
    pub fn check_tiling(&mut self, len: usize) -> io::Result<()> {
        self.spans.sort_unstable();
        let mut end = 0usize;
        for &(off, n) in &self.spans {
            if off != end {
                let what = if off < end { "overlap" } else { "leave a hole" };
                return Err(corrupt(format!(
                    "frames {what} at amplitude {}",
                    off.min(end)
                )));
            }
            end = off + n;
        }
        if end != len {
            return Err(corrupt(format!("frames cover {end} of {len} amplitudes")));
        }
        Ok(())
    }
}

/// Decode a sequence of frames into `out`. Frames may come in any order
/// (a scattered chunk file appends one frame per piece) but must tile
/// `out` exactly: every amplitude covered by one frame, none by two. All
/// malformed inputs are [`io::ErrorKind::InvalidData`], never a panic —
/// these bytes come straight from disk.
pub fn decode_frames<R: Real>(
    bytes: &[u8],
    scratch: &mut CodecScratch,
    out: &mut [Complex<R>],
) -> io::Result<()> {
    scratch.start_chunk();
    let mut rest = bytes;
    while !rest.is_empty() {
        let Some((head, tail)) = rest.split_first_chunk::<FRAME_HEADER_LEN>() else {
            return Err(corrupt("truncated frame header"));
        };
        let h = FrameHeader::parse::<R>(head, out.len())?;
        let Some((payload, tail)) = tail.split_at_checked(h.payload_len) else {
            return Err(corrupt("truncated frame payload"));
        };
        decode_frame(
            &h,
            payload,
            scratch,
            &mut out[h.amp_off..h.amp_off + h.amps],
        )?;
        rest = tail;
    }
    scratch.check_tiling(out.len())
}

// RLE token grammar (control byte `c`):
//   0x00..=0x7F  literal run of c+1 bytes (1..=128), bytes follow
//   0x80..=0xFE  repeat run of (c - 0x80 + 4) copies (4..=130) of the
//                next byte
//   0xFF         extended repeat: u16 LE length (131..=65535), then the
//                byte
// Runs shorter than 4 are cheaper as literals (1 control byte per 128
// vs 2 bytes per run), so 4 is the repeat threshold. The encoder codes
// every maximal run of 4 or more equal bytes as repeats and everything
// between as literals; it finds and extends runs a word at a time.

fn flush_literals(src: &[u8], out: &mut Vec<u8>) {
    for lit in src.chunks(128) {
        out.push((lit.len() - 1) as u8);
        out.extend_from_slice(lit);
    }
}

const ONES: u64 = 0x0101_0101_0101_0101;
const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;

/// 0x80 in each byte of `x` that is zero and 0 in every other byte.
/// Exact: the sum of the low 7 bits never carries across bytes.
#[inline(always)]
fn zero_bytes(x: u64) -> u64 {
    !(((x & LOW7) + LOW7) | x | LOW7)
}

/// The first `p >= from` where 4 equal bytes start, if any. Two
/// overlapping loads compare 8 neighbour pairs; three zero pairs in a
/// row mark a run start, at 6 candidate offsets per step.
fn next_run4(input: &[u8], from: usize) -> Option<usize> {
    let mut q = from;
    while q + 9 <= input.len() {
        let z = zero_bytes(load8(input, q) ^ load8(input, q + 1));
        let starts = z & (z >> 8) & (z >> 16);
        if starts != 0 {
            return Some(q + (starts.trailing_zeros() / 8) as usize);
        }
        q += 6;
    }
    (q..input.len().saturating_sub(3)).find(|&p| {
        let v = input[p];
        input[p + 1] == v && input[p + 2] == v && input[p + 3] == v
    })
}

/// The end of the run of `v` that continues at `from`, 8 bytes a step.
fn run_end(input: &[u8], from: usize, v: u8) -> usize {
    let pattern = ONES * v as u64;
    let mut j = from;
    while j + 8 <= input.len() {
        let diff = load8(input, j) ^ pattern;
        if diff != 0 {
            return j + (diff.trailing_zeros() / 8) as usize;
        }
        j += 8;
    }
    j + input[j..].iter().take_while(|&&x| x == v).count()
}

/// Append the RLE coding of `input` to `out` and report whether it is
/// shorter than `limit` bytes. Gives up (returning false, `out` holding a
/// partial coding) as soon as it reaches `limit`.
fn rle_encode(input: &[u8], limit: usize, out: &mut Vec<u8>) -> bool {
    let start = out.len();
    let mut lit = 0usize;
    let mut from = 0usize;
    while let Some(p) = next_run4(input, from) {
        let v = input[p];
        let end = run_end(input, p + 4, v);
        flush_literals(&input[lit..p], out);
        let mut run = end - p;
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
        lit = end - run;
        from = end;
        if out.len() - start >= limit {
            return false;
        }
    }
    flush_literals(&input[lit..], out);
    out.len() - start < limit
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

    /// The per-byte run-length encoder the word scan replaced: the
    /// reference its output must equal byte for byte.
    fn rle_encode_reference(input: &[u8], out: &mut Vec<u8>) {
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
                lit = j - run;
            }
            i = j;
        }
        flush_literals(&input[lit..n], out);
    }

    /// The per-byte delta + shuffle frame encoder the transpose replaced.
    fn encode_frame_reference<R: Real>(
        codec: Codec,
        amp_off: usize,
        amps: &[Complex<R>],
    ) -> Vec<u8> {
        let b = R::BYTES;
        let n = amps.len();
        let mask = codec.mantissa_mask::<R>();
        let mut payload = Vec::new();
        let mut encoding = ENC_RAW;
        if !codec.is_none() {
            let s_count = 2 * n;
            let mut planes = vec![0u8; s_count * b];
            let mut prev = [0u64; 2];
            for (i, a) in amps.iter().enumerate() {
                let scalars = [a.re.to_bits_u64() & mask, a.im.to_bits_u64() & mask];
                for (k, &bits) in scalars.iter().enumerate() {
                    let d = if i == 0 { bits } else { bits ^ prev[k] };
                    prev[k] = bits;
                    for plane in 0..b {
                        planes[plane * s_count + 2 * i + k] = (d >> (8 * plane)) as u8;
                    }
                }
            }
            rle_encode_reference(&planes, &mut payload);
            if payload.len() < n * 2 * b {
                encoding = ENC_SHUFFLE_RLE;
            } else {
                payload.clear();
            }
        }
        if encoding == ENC_RAW {
            for a in amps {
                payload.extend_from_slice(&(a.re.to_bits_u64() & mask).to_le_bytes()[..b]);
                payload.extend_from_slice(&(a.im.to_bits_u64() & mask).to_le_bytes()[..b]);
            }
        }
        let mut out = FRAME_MAGIC.to_vec();
        out.extend_from_slice(&[encoding, b as u8]);
        for field in [amp_off, n, payload.len()] {
            out.extend_from_slice(&(field as u32).to_le_bytes());
        }
        out.extend_from_slice(&payload);
        out
    }

    fn rle_round_trip(input: &[u8]) {
        let mut enc = Vec::new();
        assert!(rle_encode(input, usize::MAX, &mut enc));
        let mut want = Vec::new();
        rle_encode_reference(input, &mut want);
        assert!(
            enc == want,
            "word scan != per-byte coding of {} bytes",
            input.len()
        );
        let mut back = vec![0u8; input.len()];
        rle_decode(&enc, &mut back).unwrap();
        assert_eq!(back, input, "rle round trip of {} bytes", input.len());
    }

    /// The word scan codes every input as the per-byte encoder did: runs
    /// of 1–8, 129–132 (the short/extended token boundary) and
    /// 65534–65537 (the u16 limit) at every start offset mod 8, between
    /// random bytes and next to other runs.
    #[test]
    fn word_scan_matches_the_per_byte_encoder() {
        let mut rng = SplitMix64::new(11);
        let lens = (1..=8).chain(129..=132).chain(65534..=65537);
        for len in lens {
            for lead in 0..8 {
                for trail in [0usize, 3, 13] {
                    let noise = |rng: &mut SplitMix64, k: usize| -> Vec<u8> {
                        (0..k).map(|_| (rng.next_u64() % 3) as u8).collect()
                    };
                    let mut input = noise(&mut rng, lead);
                    input.extend(std::iter::repeat_n(7u8, len));
                    input.extend(noise(&mut rng, trail));
                    rle_round_trip(&input);
                    // The same run abutting a run of another byte.
                    input.extend(std::iter::repeat_n(9u8, len % 9 + 1));
                    rle_round_trip(&input);
                }
            }
        }
        // Random mixes of short runs over a small alphabet.
        for _ in 0..200 {
            let n = (rng.next_u64() % 600) as usize;
            let mut input = Vec::with_capacity(n);
            while input.len() < n {
                let v = (rng.next_u64() % 4) as u8;
                let run = 1 + (rng.next_u64() % 7) as usize;
                input.extend(std::iter::repeat_n(v, run));
            }
            rle_round_trip(&input);
        }
    }

    /// Frames of every length mod 4 (the transpose takes 4 amplitudes at
    /// a time, a per-byte loop the rest), at both precisions and every
    /// codec tier, are the bytes the per-byte encoder wrote, and decode
    /// back.
    #[test]
    fn frames_match_the_per_byte_encoder() -> io::Result<()> {
        fn check<R: Real>(codec: Codec, amps: &[Complex<R>]) -> io::Result<()> {
            let mut scratch = CodecScratch::default();
            let mut bytes = vec![0xee; 3]; // frames append
            encode_frame(codec, 5, amps, &mut scratch, &mut bytes);
            let want = encode_frame_reference(codec, 5, amps);
            assert!(
                bytes[3..] == want[..],
                "{codec} {} amps at {}",
                amps.len(),
                R::NAME
            );
            // A raw frame fills the 5 amplitudes before the one under test.
            let mut back = vec![Complex::<R>::zero(); amps.len() + 5];
            encode_frame(Codec::None, 0, &back[..5], &mut scratch, &mut bytes);
            decode_frames(&bytes[3..], &mut scratch, &mut back)?;
            if codec.is_lossless() {
                assert!(
                    amps_as_bytes(&back[5..]) == amps_as_bytes(amps),
                    "{codec} round trip"
                );
            }
            Ok(())
        }
        let mut rng = SplitMix64::new(5);
        for len in (0..=13).chain([FRAME_AMPS - 1, FRAME_AMPS + 2]) {
            // Few distinct values (long runs) and random low bits (short).
            let smooth: Vec<c64> = (0..len)
                .map(|i| c64::new(0.25 * (i % 3) as f64, -0.125))
                .collect();
            let noisy: Vec<c64> = (0..len)
                .map(|_| c64::new(1.0 + (rng.next_u64() % 64) as f64 * f64::EPSILON, 0.5))
                .collect();
            for codec in [
                Codec::ShuffleRle,
                Codec::Lossy(8),
                Codec::Lossy(51),
                Codec::None,
            ] {
                for amps in [&smooth, &noisy] {
                    check(codec, amps)?;
                    let narrow: Vec<c32> = amps
                        .iter()
                        .map(|a| c32::new(a.re as f32, a.im as f32))
                        .collect();
                    check(codec, &narrow)?;
                }
            }
        }
        Ok(())
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
        assert!(rle_encode(&[0u8; 65535], usize::MAX, &mut enc));
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

    /// Frames must tile the chunk, in any order. A lone half leaves a
    /// hole; two frames over one half add up to the chunk's length but
    /// would leave the other half as it was; overlapping frames that
    /// reach the end still cover some amplitude twice.
    #[test]
    fn partial_coverage_is_rejected() {
        let mut scratch = CodecScratch::default();
        let chunk = vec![c64::one(); 16];
        let mut back = vec![c64::zero(); 16];
        let cases: [(&[(usize, usize)], bool); 5] = [
            (&[(0, 8)], false),
            (&[(0, 8), (0, 8)], false),
            (&[(0, 8), (4, 8)], false),
            (&[(0, 12), (8, 8)], false),
            (&[(8, 8), (0, 8)], true),
        ];
        for (frames, tiles) in cases {
            let mut bytes = Vec::new();
            for &(off, n) in frames {
                encode_frame(
                    Codec::ShuffleRle,
                    off,
                    &chunk[off..off + n],
                    &mut scratch,
                    &mut bytes,
                );
            }
            let got = decode_frames(&bytes, &mut scratch, &mut back).map_err(|e| e.kind());
            let want = if tiles {
                Ok(())
            } else {
                Err(io::ErrorKind::InvalidData)
            };
            assert_eq!(got, want, "frames {frames:?}");
        }
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
