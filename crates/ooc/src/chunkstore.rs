//! Chunked on-disk amplitude storage.
//!
//! A 2^n-amplitude state is split into `2^g` chunk files of `2^l`
//! amplitudes (n = g + l), mirroring the distributed layout: the chunk
//! index is the high (global) bits, the offset within a chunk the low
//! (local) bits. Files live in a caller-supplied directory and hold raw
//! `Complex<R>` component pairs (f64 or f32) in native byte order
//! (little-endian on every supported target); all IO is counted for the
//! bandwidth analysis of the §5 SSD argument.
//!
//! ## Two generations
//!
//! The store holds the state twice over: chunk files are named by the
//! parity of the generation that wrote them (`chunk_000003.g1.amps`).
//! Direct store IO and [`ChunkReader`] views address the *current*
//! generation; a [`ChunkWriter`] view writes the next one into the other
//! parity, and `ChunkStore::advance` makes it current once every chunk
//! is written. A streaming pass therefore never overwrites what it reads,
//! and a checkpoint is just `ChunkStore::sync_digests` of the current
//! generation plus a manifest naming it — whatever the other parity holds
//! (an older generation, a torn write, nothing) is overwritten by the
//! next writer and never read.
//!
//! The store is generic over the scalar precision `R`: chunk files hold
//! raw `Complex<R>` pairs (8 bytes per amplitude at f32, 16 at f64), so
//! an f32 run halves both the on-disk footprint and every pass's disk
//! traffic. The default `R = f64` layout is byte-identical to the
//! pre-tiering format.
//!
//! IO is zero-copy: reads and writes move bytes directly between the
//! files and caller-owned amplitude buffers (`Complex<R>` is `#[repr(C)]`
//! with no padding, so a `&[Complex<R>]` reinterprets soundly as `&[u8]`)
//! — no intermediate byte `Vec`s — through one timed read and one timed
//! write that the store and its views share. The pipelined engine's IO threads use
//! [`ChunkReader`] / [`ChunkWriter`] views, which hold their own file
//! handles (independent cursors) opened at most once per pass — the
//! writer's lazily, one per chunk on its first write — plus local
//! [`IoStats`] merged back on completion.
//! Buffers come from a [`BufferPool`] of 64-byte-aligned allocations
//! recycled across chunks, passes and engine runs, so the steady-state
//! chunk loop performs no heap allocation (asserted by
//! `tests/ooc_alloc.rs`).
//!
//! ## Compressed chunk records
//!
//! With a non-[`Codec::None`] codec every chunk file becomes a sequence
//! of self-describing `qsim-compress` frames instead of fixed-offset raw
//! scalars: a full-chunk write is one frame, a scattered chunk is one
//! frame per piece (appended in write order, each carrying its amplitude
//! offset). Reads slurp the whole file and decode; a writer truncates
//! each file on first touch, since encoded sizes vary per generation. The
//! `bytes_read`/`bytes_written` counters stay *physical* (on-disk bytes —
//! the quantity the bandwidth analysis cares about) while
//! `logical_bytes_*` record the amplitude bytes moved; their ratio is
//! [`IoStats::compression_ratio`]. Digests ([`ChunkStore::chunk_digest`])
//! hash the file bytes as stored, i.e. the *encoded* bytes, so the
//! checkpoint protocol is codec-oblivious.

use qsim_compress::{decode_frames, encode_frame, Codec, CodecScratch};
use qsim_util::align::AlignedVec;
use qsim_util::complex::Complex;
use qsim_util::Real;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Disk-traffic and pipeline-overlap counters, defined in
/// `qsim_telemetry` (so the unified backend outcome in `qsim_core` can
/// carry them) and re-exported here where they are produced. See
/// [`qsim_telemetry::IoStats`] for the field-by-field accounting
/// contract.
pub use qsim_telemetry::IoStats;

/// Bytes per stored amplitude at precision `R` (16 for f64, 8 for f32).
#[inline]
pub(crate) fn amp_bytes<R: Real>() -> usize {
    std::mem::size_of::<Complex<R>>()
}

/// Reinterpret amplitudes as raw bytes for file IO. Sound because
/// `Complex<R>` is `#[repr(C)] { re: R, im: R }` with no padding.
#[inline]
pub(crate) fn amps_as_bytes<R: Real>(amps: &[Complex<R>]) -> &[u8] {
    // SAFETY: Complex<R> is repr(C) with no padding; every byte is
    // initialized.
    unsafe { std::slice::from_raw_parts(amps.as_ptr().cast::<u8>(), std::mem::size_of_val(amps)) }
}

/// Mutable byte view of an amplitude buffer (for `read_exact`). Sound in
/// the write direction too: every bit pattern is a valid float.
#[inline]
pub(crate) fn amps_as_bytes_mut<R: Real>(amps: &mut [Complex<R>]) -> &mut [u8] {
    let len = std::mem::size_of_val(amps);
    // SAFETY: see `amps_as_bytes`; any byte pattern is a valid Complex<R>.
    unsafe { std::slice::from_raw_parts_mut(amps.as_mut_ptr().cast::<u8>(), len) }
}

/// Every amplitude of the n-qubit uniform superposition. The one
/// expression (shared with `StateVector::uniform_slice`) behind both the
/// written and the synthesised start state, so all tiers start bitwise
/// equal.
#[inline]
pub(crate) fn uniform_amp<R: Real>(n_qubits: u32) -> Complex<R> {
    Complex::new(R::ONE / R::from_usize(1usize << n_qubits).sqrt(), R::ZERO)
}

/// What every IO path of a store carries — the store's own direct calls
/// and its [`ChunkReader`] / [`ChunkWriter`] views: the codec, its working
/// memory and encoded-bytes staging (reused across chunks, so codec IO is
/// allocation-free once warm), and the counters. The one timed read and
/// the one timed write live here.
struct ChunkIo<R> {
    codec: Codec,
    scratch: CodecScratch,
    enc: Vec<u8>,
    stats: IoStats,
    _precision: std::marker::PhantomData<R>,
}

impl<R: Real> ChunkIo<R> {
    fn new(codec: Codec) -> Self {
        Self {
            codec,
            scratch: CodecScratch::default(),
            enc: Vec::new(),
            stats: IoStats::default(),
            _precision: std::marker::PhantomData,
        }
    }

    /// Read one whole chunk file — raw scalars, or every frame of it under
    /// a codec — from the handle `open` yields (positioned at its start)
    /// into `out`. Returns the seconds it took, IO plus decode, for callers
    /// that waited on it.
    fn read<F: Read>(
        &mut self,
        open: impl FnOnce() -> std::io::Result<F>,
        out: &mut [Complex<R>],
    ) -> std::io::Result<f64> {
        let logical = std::mem::size_of_val(out) as u64;
        let t = Instant::now();
        let mut f = open()?;
        let physical = if self.codec.is_none() {
            f.read_exact(amps_as_bytes_mut(out))?;
            logical
        } else {
            self.enc.clear();
            f.read_to_end(&mut self.enc)? as u64
        };
        let io_dt = t.elapsed().as_secs_f64();
        let mut codec_dt = 0.0;
        if !self.codec.is_none() {
            let t = Instant::now();
            decode_frames(&self.enc, &mut self.scratch, out)?;
            codec_dt = t.elapsed().as_secs_f64();
        }
        self.stats.read_seconds += io_dt;
        self.stats.decode_seconds += codec_dt;
        self.stats.bytes_read += physical;
        self.stats.logical_bytes_read += logical;
        Ok(io_dt + codec_dt)
    }

    /// Hand the stored form of `amps` — the raw scalars, or one frame
    /// carrying the amplitude offset `off` — to `put`, which writes it.
    /// Returns the seconds it took, encode plus IO.
    fn write(
        &mut self,
        off: usize,
        amps: &[Complex<R>],
        put: impl FnOnce(&[u8]) -> std::io::Result<()>,
    ) -> std::io::Result<f64> {
        let mut codec_dt = 0.0;
        let bytes = if self.codec.is_none() {
            amps_as_bytes(amps)
        } else {
            let t = Instant::now();
            self.enc.clear();
            encode_frame(self.codec, off, amps, &mut self.scratch, &mut self.enc);
            codec_dt = t.elapsed().as_secs_f64();
            &self.enc
        };
        let t = Instant::now();
        put(bytes)?;
        let io_dt = t.elapsed().as_secs_f64();
        self.stats.write_seconds += io_dt;
        self.stats.encode_seconds += codec_dt;
        self.stats.bytes_written += bytes.len() as u64;
        self.stats.logical_bytes_written += std::mem::size_of_val(amps) as u64;
        Ok(io_dt + codec_dt)
    }
}

/// A pool of fixed-length 64-byte-aligned amplitude buffers. `get`
/// reuses a free buffer when one is available and counts an allocation
/// otherwise; `prewarm` front-loads those allocations so steady-state
/// traffic is miss-free. Mirrors the PR 1 wire-buffer fabric.
#[derive(Debug, Default)]
pub struct BufferPool<R: Real = f64> {
    len: usize,
    free: Vec<AlignedVec<Complex<R>>>,
    allocs: u64,
}

impl<R: Real> BufferPool<R> {
    pub fn new(len: usize) -> Self {
        Self {
            len,
            free: Vec::new(),
            allocs: 0,
        }
    }

    /// Buffer length served by this pool.
    pub fn buf_len(&self) -> usize {
        self.len
    }

    /// Re-target the pool to a new buffer length, dropping stale
    /// buffers. No-op when the length already matches.
    pub fn ensure_len(&mut self, len: usize) {
        if self.len != len {
            self.len = len;
            self.free.clear();
        }
    }

    /// Allocate up front so the next `count` concurrent `get`s are
    /// miss-free.
    pub fn prewarm(&mut self, count: usize) {
        while self.free.len() < count {
            self.free.push(AlignedVec::new_zeroed(self.len));
            self.allocs += 1;
        }
        // Reserve slot capacity too, so `put` never reallocates the
        // free list during a pass.
        if self.free.capacity() < count {
            self.free.reserve(count - self.free.len());
        }
    }

    /// Take a buffer (pool hit) or allocate one (counted miss).
    pub fn get(&mut self) -> AlignedVec<Complex<R>> {
        self.free.pop().unwrap_or_else(|| {
            self.allocs += 1;
            AlignedVec::new_zeroed(self.len)
        })
    }

    /// Return a buffer to the pool.
    pub fn put(&mut self, buf: AlignedVec<Complex<R>>) {
        assert_eq!(buf.len(), self.len, "foreign buffer returned to pool");
        self.free.push(buf);
    }

    /// Total allocations performed (prewarm + misses).
    pub fn allocs(&self) -> u64 {
        self.allocs
    }
}

/// A directory of 2^g chunk files per generation, each holding 2^l
/// `Complex<R>` amplitudes — raw scalars at [`Codec::None`], encoded
/// frames otherwise.
pub struct ChunkStore<R: Real = f64> {
    dir: PathBuf,
    local_qubits: u32,
    global_qubits: u32,
    /// The current generation: what reads address. Its files carry the
    /// parity `generation % 2`; a writer view writes `generation + 1`.
    generation: usize,
    io: ChunkIo<R>,
}

impl<R: Real> ChunkStore<R> {
    fn bare(dir: &Path, local_qubits: u32, global_qubits: u32, codec: Codec) -> Self {
        Self {
            dir: dir.to_path_buf(),
            local_qubits,
            global_qubits,
            generation: 0,
            io: ChunkIo::new(codec),
        }
    }

    /// Create a store under `dir` (created if missing; existing chunk
    /// files are overwritten) whose generation 0 is the given state.
    ///
    /// `init`: amplitude value for every basis state, or use
    /// [`ChunkStore::create_zero_state`] / [`ChunkStore::create_uniform`].
    pub fn create_filled(
        dir: &Path,
        local_qubits: u32,
        global_qubits: u32,
        init: Complex<R>,
    ) -> std::io::Result<Self> {
        Self::create_filled_with(dir, local_qubits, global_qubits, init, Codec::None)
    }

    /// [`ChunkStore::create_filled`] with an explicit chunk codec.
    fn create_filled_with(
        dir: &Path,
        local_qubits: u32,
        global_qubits: u32,
        init: Complex<R>,
        codec: Codec,
    ) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let mut store = Self::bare(dir, local_qubits, global_qubits, codec);
        let chunk = vec![init; 1usize << local_qubits];
        for c in 0..store.n_chunks() {
            store.write_chunk_from(c, &chunk)?;
        }
        Ok(store)
    }

    /// A store at generation 0 with no chunk files (directory created if
    /// missing): the engine synthesises the start state in its first
    /// pass, so chunks first appear when that pass writes generation 1.
    pub fn create_empty_with(
        dir: &Path,
        local_qubits: u32,
        global_qubits: u32,
        codec: Codec,
    ) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Self::bare(dir, local_qubits, global_qubits, codec))
    }

    /// |0…0⟩: amplitude 1 in chunk 0 slot 0, zero elsewhere.
    pub fn create_zero_state(dir: &Path, l: u32, g: u32) -> std::io::Result<Self> {
        let mut store = Self::create_filled(dir, l, g, Complex::zero())?;
        let mut chunk0 = store.read_chunk(0)?;
        chunk0[0] = Complex::one();
        store.write_chunk_from(0, &chunk0)?;
        Ok(store)
    }

    /// The uniform superposition (the supremacy starting state, §3.6),
    /// written out — what the engine's first pass synthesises instead.
    pub fn create_uniform(dir: &Path, l: u32, g: u32) -> std::io::Result<Self> {
        Self::create_filled(dir, l, g, uniform_amp(l + g))
    }

    #[inline]
    pub fn n_qubits(&self) -> u32 {
        self.local_qubits + self.global_qubits
    }

    #[inline]
    pub fn n_chunks(&self) -> usize {
        1usize << self.global_qubits
    }

    #[inline]
    pub fn chunk_len(&self) -> usize {
        1usize << self.local_qubits
    }

    pub fn stats(&self) -> IoStats {
        self.io.stats
    }

    /// Merge counters measured elsewhere (reader/writer views, pipeline
    /// wait accounting) into this store's totals.
    pub fn absorb(&mut self, stats: &IoStats) {
        self.io.stats.merge(stats);
    }

    /// Count one full-state streaming pass.
    pub fn count_traversal(&mut self) {
        self.io.stats.traversals += 1;
    }

    /// The file of chunk `c` in generation `generation`.
    fn path_in(&self, generation: usize, c: usize) -> PathBuf {
        self.dir
            .join(format!("chunk_{c:06}.g{}.amps", generation % 2))
    }

    /// The file of chunk `c` in the current generation.
    fn chunk_path(&self, c: usize) -> PathBuf {
        self.path_in(self.generation, c)
    }

    /// Make the generation the last [`ChunkStore::writer`] view wrote
    /// current, once that view has written every chunk of it.
    pub(crate) fn advance(&mut self) {
        self.generation += 1;
    }

    /// Read chunk `c` directly into a caller-owned buffer. Direct store
    /// IO is synchronous by definition: the caller waited for all of it
    /// (pass-level IO instead attributes wait through the reader/writer
    /// views).
    pub fn read_chunk_into(&mut self, c: usize, out: &mut [Complex<R>]) -> std::io::Result<()> {
        assert!(c < self.n_chunks(), "chunk {c} out of range");
        assert_eq!(out.len(), self.chunk_len(), "chunk size mismatch");
        let path = self.chunk_path(c);
        self.io.stats.io_wait_seconds += self.io.read(|| File::open(path), out)?;
        Ok(())
    }

    /// Read chunk `c` into a fresh `Vec`.
    fn read_chunk(&mut self, c: usize) -> std::io::Result<Vec<Complex<R>>> {
        let mut out = vec![Complex::<R>::zero(); self.chunk_len()];
        self.read_chunk_into(c, &mut out)?;
        Ok(out)
    }

    /// Overwrite chunk `c` of the current generation in place from a
    /// caller-owned buffer.
    pub fn write_chunk_from(&mut self, c: usize, amps: &[Complex<R>]) -> std::io::Result<()> {
        assert!(c < self.n_chunks(), "chunk {c} out of range");
        assert_eq!(amps.len(), self.chunk_len(), "chunk size mismatch");
        let path = self.chunk_path(c);
        // `File::create` truncates, discarding any longer previous
        // generation of this chunk (encoded sizes vary).
        let put = |bytes: &[u8]| File::create(path)?.write_all(bytes);
        self.io.stats.io_wait_seconds += self.io.write(0, amps, put)?;
        Ok(())
    }

    /// FNV-1a digest of chunk `c`'s on-disk bytes in the current
    /// generation (a synchronous, counted read).
    pub fn chunk_digest(&mut self, c: usize) -> std::io::Result<u64> {
        assert!(c < self.n_chunks(), "chunk {c} out of range");
        let t = Instant::now();
        let bytes = std::fs::read(self.chunk_path(c))?;
        let dt = t.elapsed().as_secs_f64();
        self.io.stats.read_seconds += dt;
        self.io.stats.io_wait_seconds += dt;
        self.io.stats.bytes_read += bytes.len() as u64;
        Ok(qsim_core::checkpoint::fnv1a64(&bytes))
    }

    /// Make the current generation durable and digest it: `sync_all`
    /// each chunk file, then hash its bytes as stored — what a manifest
    /// naming this generation records.
    pub(crate) fn sync_digests(&mut self) -> std::io::Result<Vec<u64>> {
        (0..self.n_chunks())
            .map(|c| {
                File::open(self.chunk_path(c))?.sync_all()?;
                self.chunk_digest(c)
            })
            .collect()
    }

    /// Open the store at the generation a manifest names and check every
    /// chunk of it against the manifest's `digests`: a mismatch is a torn
    /// store ([`std::io::ErrorKind::InvalidData`]). The other parity is
    /// never looked at — it holds an abandoned or older generation, which
    /// the next pass overwrites. The digests hash the bytes as stored
    /// (encoded frames under a codec), so the check is the same at every
    /// codec.
    pub fn open_verified_with(
        dir: &Path,
        local_qubits: u32,
        global_qubits: u32,
        generation: usize,
        digests: &[u64],
        codec: Codec,
    ) -> std::io::Result<Self> {
        let mut store = Self::bare(dir, local_qubits, global_qubits, codec);
        store.generation = generation;
        assert_eq!(digests.len(), store.n_chunks(), "digest count mismatch");
        for (c, &want) in digests.iter().enumerate() {
            let got = store.chunk_digest(c)?;
            if got != want {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("chunk {c} digest {got:016x} != manifest {want:016x} (torn store)"),
                ));
            }
        }
        Ok(store)
    }

    /// Delete the chunk files of both generations (cleanup helper for
    /// tests/examples).
    pub fn remove_files(&self) -> std::io::Result<()> {
        for generation in 0..2 {
            for c in 0..self.n_chunks() {
                let p = self.path_in(generation, c);
                if p.exists() {
                    std::fs::remove_file(p)?;
                }
            }
        }
        Ok(())
    }

    /// Load the current generation's full state into memory (small n).
    pub fn to_vec(&mut self) -> std::io::Result<Vec<Complex<R>>> {
        let mut out = vec![Complex::<R>::zero(); self.chunk_len() * self.n_chunks()];
        for c in 0..self.n_chunks() {
            let off = c * self.chunk_len();
            let span = &mut out[off..off + self.chunk_len()];
            self.read_chunk_into(c, span)?;
        }
        Ok(out)
    }

    /// A read view of the current generation with its own file handles
    /// (one per chunk, opened eagerly) and local counters — safe to move
    /// onto a prefetch thread while a [`ChunkWriter`] writes the next
    /// generation.
    pub fn reader(&self) -> std::io::Result<ChunkReader<R>> {
        let files = (0..self.n_chunks())
            .map(|c| File::open(self.chunk_path(c)))
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(ChunkReader {
            files,
            chunk_len: self.chunk_len(),
            io: ChunkIo::new(self.io.codec),
        })
    }

    /// A write view of the next generation (`generation + 1`, the other
    /// parity), one lazily opened handle per chunk. Cursor state is
    /// private to the view, so a writeback thread never races the
    /// reader's seeks.
    pub fn writer(&self) -> ChunkWriter<R> {
        let next = self.generation + 1;
        ChunkWriter {
            paths: (0..self.n_chunks())
                .map(|c| self.path_in(next, c))
                .collect(),
            files: (0..self.n_chunks()).map(|_| None).collect(),
            chunk_len: self.chunk_len(),
            io: ChunkIo::new(self.io.codec),
        }
    }
}

/// Cached-handle read view of a [`ChunkStore`] (see
/// [`ChunkStore::reader`]). Reads are zero-copy and allocation-free.
pub struct ChunkReader<R: Real = f64> {
    files: Vec<File>,
    chunk_len: usize,
    io: ChunkIo<R>,
}

impl<R: Real> ChunkReader<R> {
    /// Read chunk `c` into `out` through the cached handle.
    pub fn read_into(&mut self, c: usize, out: &mut [Complex<R>]) -> std::io::Result<()> {
        assert_eq!(out.len(), self.chunk_len, "chunk size mismatch");
        let f = &mut self.files[c];
        self.io
            .read(|| f.seek(SeekFrom::Start(0)).map(|_| f), out)?;
        Ok(())
    }

    /// The chunk codec this view decodes with.
    #[inline]
    pub fn codec(&self) -> Codec {
        self.io.codec
    }

    pub fn stats(&self) -> IoStats {
        self.io.stats
    }
}

/// Cached-handle write view of a [`ChunkStore`]'s next generation (see
/// [`ChunkStore::writer`]). Writes are zero-copy and allocation-free
/// once the first write per chunk has opened its file.
pub struct ChunkWriter<R: Real = f64> {
    paths: Vec<PathBuf>,
    files: Vec<Option<File>>,
    chunk_len: usize,
    io: ChunkIo<R>,
}

impl<R: Real> ChunkWriter<R> {
    /// Write `amps` at amplitude offset `off` of chunk `c` — a whole
    /// chunk is `off = 0`. The first write to a chunk opens its file and
    /// discards whatever an older generation (or a torn write) left
    /// there: a raw file is sized to one chunk, and every range is then
    /// written in place; a framed file is truncated, and every write
    /// appends one offset-carrying frame through the retained handle.
    pub fn write_range(
        &mut self,
        c: usize,
        off: usize,
        amps: &[Complex<R>],
    ) -> std::io::Result<()> {
        assert!(off + amps.len() <= self.chunk_len);
        let raw = self.io.codec.is_none();
        let chunk_bytes = (self.chunk_len * amp_bytes::<R>()) as u64;
        let (slot, path) = (&mut self.files[c], &self.paths[c]);
        self.io.write(off, amps, |bytes| {
            let f = match slot {
                Some(f) => f,
                slot => {
                    let f = OpenOptions::new()
                        .write(true)
                        .create(true)
                        .truncate(!raw)
                        .open(path)?;
                    if raw {
                        f.set_len(chunk_bytes)?;
                    }
                    slot.insert(f)
                }
            };
            if raw {
                f.seek(SeekFrom::Start((off * amp_bytes::<R>()) as u64))?;
            }
            f.write_all(bytes)
        })?;
        Ok(())
    }

    /// The chunk codec this view encodes with.
    #[inline]
    pub fn codec(&self) -> Codec {
        self.io.codec
    }

    pub fn stats(&self) -> IoStats {
        self.io.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;
    use qsim_util::c64;

    #[test]
    fn create_read_write_round_trip() {
        let dir = ScratchDir::new("store_rw");
        let mut store = ChunkStore::create_zero_state(dir.path(), 4, 2).unwrap();
        assert_eq!(store.n_chunks(), 4);
        assert_eq!(store.chunk_len(), 16);
        let c0 = store.read_chunk(0).unwrap();
        assert_eq!(c0[0], c64::one());
        assert!(c0[1..].iter().all(|&a| a == c64::zero()));
        // Write and read back a pattern through pooled buffers.
        let pattern: Vec<c64> = (0..16).map(|i| c64::new(i as f64, -(i as f64))).collect();
        store.write_chunk_from(3, &pattern).unwrap();
        let mut back = vec![c64::zero(); 16];
        store.read_chunk_into(3, &mut back).unwrap();
        assert_eq!(back, pattern);
    }

    #[test]
    fn uniform_state_norm() {
        let dir = ScratchDir::new("store_uniform");
        let mut store = ChunkStore::<f64>::create_uniform(dir.path(), 5, 2).unwrap();
        let v = store.to_vec().unwrap();
        let norm: f64 = v.iter().map(|a| a.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-12);
    }

    /// Write every chunk of the next generation through one writer view
    /// (chunk `c` holds `fill(c)`), then make it current.
    fn write_generation(store: &mut ChunkStore, fill: impl Fn(usize) -> Vec<c64>) {
        let mut writer = store.writer();
        for c in 0..store.n_chunks() {
            writer.write_range(c, 0, &fill(c)).unwrap();
        }
        store.absorb(&writer.stats());
        store.advance();
    }

    #[test]
    fn reader_writer_views_round_trip() {
        let dir = ScratchDir::new("store_views");
        let mut store = ChunkStore::create_filled(dir.path(), 3, 2, c64::one()).unwrap();
        let pattern = |c: usize| (0..8).map(|i| c64::new(i as f64, c as f64)).collect();
        write_generation(&mut store, pattern);
        assert_eq!(
            store.stats().bytes_written,
            2 * 4 * 8 * 16,
            "create + 1 generation"
        );
        let mut reader = store.reader().unwrap();
        let mut buf = vec![c64::zero(); 8];
        reader.read_into(2, &mut buf).unwrap();
        assert_eq!(buf, pattern(2));
        // Re-reads through the same cached handle work (seek resets).
        reader.read_into(2, &mut buf).unwrap();
        assert_eq!(buf, pattern(2));
        store.absorb(&reader.stats());
        assert_eq!(store.stats().bytes_read, 2 * 8 * 16);
    }

    #[test]
    fn ranges_assemble_the_next_generation_behind_the_current_one() {
        for codec in [Codec::None, Codec::ShuffleRle] {
            let dir = ScratchDir::new("store_ranges");
            let mut store =
                ChunkStore::create_filled_with(dir.path(), 3, 1, c64::one(), codec).unwrap();
            // Chunk 0 from two half-chunk pieces, out of order; chunk 1
            // whole.
            let hi = vec![c64::new(2.0, 0.0); 4];
            let lo = vec![c64::new(3.0, 0.0); 4];
            let whole = [lo.clone(), hi.clone()].concat();
            let mut writer = store.writer();
            writer.write_range(0, 4, &hi).unwrap();
            writer.write_range(0, 0, &lo).unwrap();
            writer.write_range(1, 0, &whole).unwrap();
            drop(writer);
            assert_eq!(store.to_vec().unwrap(), vec![c64::one(); 16], "{codec:?}");
            store.advance();
            let want = [whole.clone(), whole].concat();
            assert_eq!(store.to_vec().unwrap(), want, "{codec:?}");
            // Reopened at that generation, its digests check out.
            let digests = store.sync_digests().unwrap();
            let mut re =
                ChunkStore::<f64>::open_verified_with(dir.path(), 3, 1, 1, &digests, codec)
                    .unwrap();
            assert_eq!(re.to_vec().unwrap(), want, "{codec:?}");
        }
    }

    #[test]
    fn a_writer_overwrites_whatever_the_other_parity_held() {
        // Longer, shorter and same-length leftovers of an older or torn
        // generation, and a missing file: the new generation reads back
        // exactly what was written.
        for codec in [Codec::None, Codec::ShuffleRle] {
            let dir = ScratchDir::new("store_leftovers");
            let mut store =
                ChunkStore::create_filled_with(dir.path(), 6, 2, c64::one(), codec).unwrap();
            std::fs::write(store.path_in(1, 0), vec![0xa5u8; 64 * 16 + 999]).unwrap();
            std::fs::write(store.path_in(1, 1), b"short").unwrap();
            std::fs::write(store.path_in(1, 2), vec![0x5au8; 64 * 16]).unwrap();
            let fill = |c: usize| vec![c64::new(c as f64, -0.5); 64];
            write_generation(&mut store, fill);
            let want: Vec<c64> = (0..4).flat_map(fill).collect();
            assert_eq!(store.to_vec().unwrap(), want, "{codec:?}");
        }
    }

    #[test]
    fn open_verified_rejects_a_torn_chunk_with_a_typed_error() {
        for codec in [Codec::None, Codec::ShuffleRle] {
            let dir = ScratchDir::new("store_torn");
            let mut store =
                ChunkStore::<f64>::create_filled_with(dir.path(), 3, 2, c64::one(), codec).unwrap();
            let digests = store.sync_digests().unwrap();
            std::fs::write(store.chunk_path(2), b"short").unwrap();
            let e = ChunkStore::<f64>::open_verified_with(dir.path(), 3, 2, 0, &digests, codec)
                .err()
                .expect("torn chunk must not open");
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
            assert!(e.to_string().contains("chunk 2"), "{e}");
        }
    }

    #[test]
    fn io_is_accounted() {
        let dir = ScratchDir::new("store_stats");
        let mut store = ChunkStore::create_filled(dir.path(), 3, 1, c64::zero()).unwrap();
        let created = store.stats();
        assert_eq!(created.bytes_written, 2 * 8 * 16);
        let _ = store.read_chunk(0).unwrap();
        assert_eq!(store.stats().bytes_read, 8 * 16);
        assert!(store.stats().write_seconds >= 0.0);
        store.count_traversal();
        assert_eq!(store.stats().traversals, 1);
    }

    #[test]
    fn buffer_pool_reuses_and_counts() {
        let mut pool = BufferPool::<f64>::new(32);
        pool.prewarm(2);
        assert_eq!(pool.allocs(), 2);
        let a = pool.get();
        let b = pool.get();
        assert_eq!(pool.allocs(), 2, "prewarmed gets are miss-free");
        let c = pool.get();
        assert_eq!(pool.allocs(), 3, "third concurrent buffer is a miss");
        pool.put(a);
        pool.put(b);
        pool.put(c);
        for _ in 0..10 {
            let x = pool.get();
            pool.put(x);
        }
        assert_eq!(pool.allocs(), 3, "steady-state gets never allocate");
        pool.ensure_len(64);
        assert_eq!(pool.buf_len(), 64);
        let d = pool.get();
        assert_eq!(d.len(), 64);
    }

    #[test]
    fn codec_store_round_trips_and_compresses() {
        let dir = ScratchDir::new("store_codec");
        let mut store = ChunkStore::<f64>::create_filled_with(
            dir.path(),
            6,
            2,
            uniform_amp(8),
            Codec::ShuffleRle,
        )
        .unwrap();
        // The uniform state is maximally degenerate: far fewer encoded
        // bytes than the 64 * 16 raw bytes per chunk.
        let created = store.stats();
        assert_eq!(created.logical_bytes_written, 4 * 64 * 16);
        assert!(
            created.bytes_written < created.logical_bytes_written / 4,
            "uniform chunks should compress >4x, got {} / {}",
            created.bytes_written,
            created.logical_bytes_written
        );
        assert!(created.compression_ratio() > 4.0);
        let v = store.to_vec().unwrap();
        let amp = 1.0 / 16.0;
        assert!(v.iter().all(|a| a.re == amp && a.im == 0.0));
        assert!(store.stats().decode_seconds >= 0.0);
    }

    #[test]
    fn overlap_fraction_bounds() {
        let mut s = IoStats {
            read_seconds: 1.0,
            write_seconds: 1.0,
            io_wait_seconds: 0.5,
            ..IoStats::default()
        };
        assert!((s.overlap_fraction() - 0.75).abs() < 1e-12);
        s.io_wait_seconds = 5.0;
        assert_eq!(s.overlap_fraction(), 0.0);
        assert_eq!(IoStats::default().overlap_fraction(), 0.0);
    }
}
