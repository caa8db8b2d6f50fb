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
//! writer's lazily, since no live chunk exists before a run's first
//! write or commit — plus local [`IoStats`] merged back on completion.
//! Buffers come from a [`BufferPool`] of 64-byte-aligned allocations
//! recycled across chunks, passes and engine runs, so the steady-state
//! chunk loop performs no heap allocation (asserted by
//! `tests/ooc_alloc.rs`).
//!
//! ## Compressed chunk records
//!
//! With a non-[`Codec::None`] codec every chunk file becomes a sequence
//! of self-describing `qsim-compress` frames instead of fixed-offset raw
//! scalars: a full-chunk write is one frame, a scattered staged file is
//! one frame per piece (appended in write order, each carrying its
//! amplitude offset). Reads slurp the whole file and decode; writes
//! encode into a reusable buffer and truncate to the new length, since
//! encoded sizes vary per generation. The `bytes_read`/`bytes_written`
//! counters stay *physical* (on-disk bytes — the quantity the bandwidth
//! analysis cares about) while `logical_bytes_*` record the amplitude
//! bytes moved; their ratio is [`IoStats::compression_ratio`]. Digests
//! ([`ChunkStore::chunk_digest`]/[`ChunkStore::staged_digest`]) hash the
//! file bytes as stored, i.e. the *encoded* bytes, so the PR 5 staged →
//! manifest → commit crash-consistency protocol is codec-oblivious.

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

/// A directory of 2^g chunk files, each holding 2^l `Complex<R>`
/// amplitudes — raw scalars at [`Codec::None`] (byte-identical to the
/// pre-codec format), encoded frames otherwise.
pub struct ChunkStore<R: Real = f64> {
    dir: PathBuf,
    local_qubits: u32,
    global_qubits: u32,
    io: ChunkIo<R>,
}

impl<R: Real> ChunkStore<R> {
    fn bare(dir: &Path, local_qubits: u32, global_qubits: u32, codec: Codec) -> Self {
        Self {
            dir: dir.to_path_buf(),
            local_qubits,
            global_qubits,
            io: ChunkIo::new(codec),
        }
    }

    /// Create a store under `dir` (created if missing; existing chunk
    /// files are overwritten) initialized to the given state.
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

    /// A store with no chunk files yet (directory created if missing):
    /// the engine synthesises the start state in its first pass, so live
    /// chunks first appear when that pass writes or commits them.
    pub fn create_empty_with(
        dir: &Path,
        local_qubits: u32,
        global_qubits: u32,
        codec: Codec,
    ) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Self::bare(dir, local_qubits, global_qubits, codec))
    }

    /// Open an existing store (files must have been created by a prior
    /// `create_*` with the same geometry and codec mode). Raw stores are
    /// size-checked per chunk; framed stores vary in size, so only the
    /// frame headers can vouch for them (verified on every read).
    pub fn open_with(
        dir: &Path,
        local_qubits: u32,
        global_qubits: u32,
        codec: Codec,
    ) -> std::io::Result<Self> {
        let store = Self::bare(dir, local_qubits, global_qubits, codec);
        for c in 0..store.n_chunks() {
            let p = store.chunk_path(c);
            let len = std::fs::metadata(&p)?.len();
            let want = (store.chunk_len() * amp_bytes::<R>()) as u64;
            let fault = if codec.is_none() {
                (len != want).then(|| format!("this geometry/precision needs {want}"))
            } else {
                (len < qsim_compress::FRAME_HEADER_LEN as u64)
                    .then(|| "too short to hold a frame (not a codec store?)".to_string())
            };
            if let Some(why) = fault {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("chunk {c} holds {len} bytes: {why}"),
                ));
            }
        }
        Ok(store)
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

    fn chunk_path(&self, c: usize) -> PathBuf {
        self.dir.join(format!("chunk_{c:06}.amps"))
    }

    fn staged_path(&self, c: usize) -> PathBuf {
        self.dir.join(format!("chunk_{c:06}.amps.staged"))
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

    /// Overwrite chunk `c` from a caller-owned buffer.
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

    /// Promote all staged chunks written through a [`ChunkWriter`] view,
    /// renaming each over its live counterpart.
    ///
    /// Crash-consistent ordering: every staged file is `sync_all`ed
    /// *before* the first rename, and the directory is fsynced after the
    /// last, so a crash anywhere in the commit leaves each chunk either
    /// fully old or fully new — never a renamed file whose contents were
    /// still in the page cache. (A *mix* of old and new chunks across the
    /// store is still possible mid-commit; the checkpoint manifest's
    /// per-chunk digests let [`ChunkStore::open_verified_with`] roll that
    /// forward.)
    pub fn commit_staged(&mut self) -> std::io::Result<()> {
        self.promote_staged(true)
    }

    /// [`ChunkStore::commit_staged`], taking the fsyncs only when
    /// `durable`: a run that publishes no manifest cannot be resumed, so
    /// there is no generation for them to protect.
    pub(crate) fn promote_staged(&mut self, durable: bool) -> std::io::Result<()> {
        let t = Instant::now();
        let mut renamed = false;
        for c in 0..self.n_chunks() {
            let staged = self.staged_path(c);
            if staged.exists() {
                if durable {
                    File::open(&staged)?.sync_all()?;
                }
                std::fs::rename(staged, self.chunk_path(c))?;
                renamed = true;
            }
        }
        if renamed && durable {
            File::open(&self.dir)?.sync_all()?;
        }
        let dt = t.elapsed().as_secs_f64();
        self.io.stats.write_seconds += dt;
        self.io.stats.io_wait_seconds += dt;
        Ok(())
    }

    /// FNV-1a digest of live chunk `c`'s current on-disk bytes.
    pub fn chunk_digest(&mut self, c: usize) -> std::io::Result<u64> {
        assert!(c < self.n_chunks(), "chunk {c} out of range");
        self.file_digest(&self.chunk_path(c))
    }

    /// FNV-1a digest of chunk `c`'s *staged* file (the bytes that would
    /// become live at the next [`ChunkStore::commit_staged`]); falls back
    /// to the live chunk when nothing is staged.
    pub fn staged_digest(&mut self, c: usize) -> std::io::Result<u64> {
        let staged = self.staged_path(c);
        if !staged.exists() {
            return self.chunk_digest(c);
        }
        self.file_digest(&staged)
    }

    /// Read and hash one file as stored (a synchronous, counted read).
    fn file_digest(&mut self, path: &Path) -> std::io::Result<u64> {
        let t = Instant::now();
        let bytes = std::fs::read(path)?;
        let dt = t.elapsed().as_secs_f64();
        self.io.stats.read_seconds += dt;
        self.io.stats.io_wait_seconds += dt;
        self.io.stats.bytes_read += bytes.len() as u64;
        Ok(qsim_core::checkpoint::fnv1a64(&bytes))
    }

    /// `sync_all` every staged file so its bytes are durable before a
    /// manifest referencing them is published.
    pub fn sync_staged(&self) -> std::io::Result<()> {
        for c in 0..self.n_chunks() {
            let staged = self.staged_path(c);
            if staged.exists() {
                File::open(staged)?.sync_all()?;
            }
        }
        Ok(())
    }

    /// Delete every stray staged file. A fresh checkpointed run over a
    /// reused directory must start from live chunks only — a leftover
    /// shadow from an abandoned pass would otherwise be folded into the
    /// next `commit_staged`.
    pub fn clear_staged(&mut self) -> std::io::Result<()> {
        for c in 0..self.n_chunks() {
            let staged = self.staged_path(c);
            if staged.exists() {
                std::fs::remove_file(staged)?;
            }
        }
        Ok(())
    }

    /// Open a store and reconcile it against a manifest's per-chunk
    /// `digests`, recovering from a crash at any point of the commit
    /// protocol:
    ///
    /// * a staged file whose digest matches the manifest is rolled
    ///   *forward* (synced and renamed live) — the crash hit after the
    ///   manifest was published but before the rename;
    /// * any other staged file is deleted — the crash hit before the
    ///   manifest flipped, so the staged bytes belong to an abandoned
    ///   pass;
    /// * every live chunk must then match its digest, or the store is
    ///   rejected as torn ([`std::io::ErrorKind::InvalidData`]).
    ///
    /// No live file need exist beforehand: the first pass of a run reads
    /// none, so a crash between its manifest and its commit leaves only
    /// staged files, all of which roll forward. The digests hash the bytes
    /// as stored — encoded frames under a codec — so the protocol is
    /// identical at every codec.
    pub fn open_verified_with(
        dir: &Path,
        local_qubits: u32,
        global_qubits: u32,
        digests: &[u64],
        codec: Codec,
    ) -> std::io::Result<Self> {
        let mut store = Self::bare(dir, local_qubits, global_qubits, codec);
        assert_eq!(digests.len(), store.n_chunks(), "digest count mismatch");
        let mut renamed = false;
        for (c, &want) in digests.iter().enumerate() {
            let staged = store.staged_path(c);
            if staged.exists() && store.staged_digest(c)? == want {
                File::open(&staged)?.sync_all()?;
                std::fs::rename(&staged, store.chunk_path(c))?;
                renamed = true;
                continue;
            }
            if staged.exists() {
                std::fs::remove_file(&staged)?;
            }
            let got = store.chunk_digest(c)?;
            if got != want {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("chunk {c} digest {got:016x} != manifest {want:016x} (torn store)"),
                ));
            }
        }
        if renamed {
            File::open(dir)?.sync_all()?;
        }
        Ok(store)
    }

    /// Delete all chunk files (cleanup helper for tests/examples).
    pub fn remove_files(&self) -> std::io::Result<()> {
        for c in 0..self.n_chunks() {
            let p = self.chunk_path(c);
            if p.exists() {
                std::fs::remove_file(p)?;
            }
        }
        Ok(())
    }

    /// Load the full state into memory (small n; testing).
    pub fn to_vec(&mut self) -> std::io::Result<Vec<Complex<R>>> {
        let mut out = vec![Complex::<R>::zero(); self.chunk_len() * self.n_chunks()];
        for c in 0..self.n_chunks() {
            let off = c * self.chunk_len();
            let span = &mut out[off..off + self.chunk_len()];
            self.read_chunk_into(c, span)?;
        }
        Ok(out)
    }

    /// A read view with its own file handles (one per chunk, opened
    /// eagerly) and local counters — safe to move onto a prefetch thread
    /// while a [`ChunkWriter`] writes other chunks of the same store.
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

    /// A write view with its own lazily created live and staged files
    /// (no live chunk exists before a run's first write or commit).
    /// Cursor state is private to the view, so a writeback thread never
    /// races the reader's seeks.
    pub fn writer(&self) -> std::io::Result<ChunkWriter<R>> {
        Ok(ChunkWriter {
            live_paths: (0..self.n_chunks()).map(|c| self.chunk_path(c)).collect(),
            staged_paths: (0..self.n_chunks()).map(|c| self.staged_path(c)).collect(),
            live: (0..self.n_chunks()).map(|_| None).collect(),
            staged: (0..self.n_chunks()).map(|_| None).collect(),
            chunk_len: self.chunk_len(),
            io: ChunkIo::new(self.io.codec),
        })
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

/// Cached-handle write view of a [`ChunkStore`] (see
/// [`ChunkStore::writer`]). Writes are zero-copy and allocation-free
/// once the first write per chunk has created (or opened) its live or
/// shadow file.
pub struct ChunkWriter<R: Real = f64> {
    live_paths: Vec<PathBuf>,
    staged_paths: Vec<PathBuf>,
    live: Vec<Option<File>>,
    staged: Vec<Option<File>>,
    chunk_len: usize,
    io: ChunkIo<R>,
}

impl<R: Real> ChunkWriter<R> {
    /// Overwrite live chunk `c` through the cached handle, creating the
    /// file on first touch.
    pub fn write_chunk_from(&mut self, c: usize, amps: &[Complex<R>]) -> std::io::Result<()> {
        assert_eq!(amps.len(), self.chunk_len, "chunk size mismatch");
        let (slot, path) = (&mut self.live[c], &self.live_paths[c]);
        self.io.write(0, amps, |bytes| {
            let f = match slot {
                Some(f) => f,
                slot => slot.insert(
                    OpenOptions::new()
                        .write(true)
                        .create(true)
                        .truncate(false)
                        .open(path)?,
                ),
            };
            f.seek(SeekFrom::Start(0))?;
            f.write_all(bytes)?;
            // The handle doesn't truncate on open: chop any stale tail left
            // by a longer previous generation (encoded sizes vary; a reused
            // directory may hold another geometry's chunk), or the next read
            // would see trailing garbage.
            f.set_len(bytes.len() as u64)
        })?;
        Ok(())
    }

    /// Write `[off, off+len)` of chunk `c`'s shadow file, creating and
    /// sizing it on first touch. Under a codec the shadow is a sequence
    /// of offset-carrying frames instead: first touch truncates, every
    /// piece appends one frame through the retained handle.
    pub fn write_staged_range(
        &mut self,
        c: usize,
        off: usize,
        amps: &[Complex<R>],
    ) -> std::io::Result<()> {
        assert!(off + amps.len() <= self.chunk_len);
        let raw = self.io.codec.is_none();
        let chunk_bytes = (self.chunk_len * amp_bytes::<R>()) as u64;
        let (slot, path) = (&mut self.staged[c], &self.staged_paths[c]);
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
            // Under a codec the retained handle's cursor already sits at
            // the end of the previous frame, so pieces append in write
            // order.
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

    #[test]
    fn reader_writer_views_round_trip() {
        let dir = ScratchDir::new("store_views");
        let mut store = ChunkStore::create_filled(dir.path(), 3, 2, c64::one()).unwrap();
        let pattern: Vec<c64> = (0..8).map(|i| c64::new(i as f64, 0.5)).collect();
        let mut writer = store.writer().unwrap();
        writer.write_chunk_from(2, &pattern).unwrap();
        let wstats = writer.stats();
        assert_eq!(wstats.bytes_written, 8 * 16);
        let mut reader = store.reader().unwrap();
        let mut buf = vec![c64::zero(); 8];
        reader.read_into(2, &mut buf).unwrap();
        assert_eq!(buf, pattern);
        // Re-reads through the same cached handle work (seek resets).
        reader.read_into(2, &mut buf).unwrap();
        assert_eq!(buf, pattern);
        store.absorb(&reader.stats());
        store.absorb(&wstats);
        assert_eq!(store.stats().bytes_read, 2 * 8 * 16);
    }

    #[test]
    fn staged_range_assembly_commits_atomically() {
        let dir = ScratchDir::new("store_staged");
        let mut store = ChunkStore::create_filled(dir.path(), 3, 1, c64::one()).unwrap();
        // Assemble chunk 0's shadow from two half-chunk pieces, out of
        // order; the live chunk must be untouched until commit.
        let hi = vec![c64::new(2.0, 0.0); 4];
        let lo = vec![c64::new(3.0, 0.0); 4];
        let mut writer = store.writer().unwrap();
        writer.write_staged_range(0, 4, &hi).unwrap();
        writer.write_staged_range(0, 0, &lo).unwrap();
        let wstats = writer.stats();
        drop(writer);
        assert_eq!(store.read_chunk(0).unwrap(), vec![c64::one(); 8]);
        store.absorb(&wstats);
        store.commit_staged().unwrap();
        let got = store.read_chunk(0).unwrap();
        assert_eq!(&got[..4], &lo[..]);
        assert_eq!(&got[4..], &hi[..]);
    }

    #[test]
    fn open_rejects_a_truncated_chunk_with_a_typed_error() {
        // The state gather reopens the store through `open_with`; a short
        // chunk file must come back as `InvalidData`, not a panic.
        let dir = ScratchDir::new("store_short");
        drop(ChunkStore::create_filled(dir.path(), 3, 2, c64::one()).unwrap());
        std::fs::write(dir.path().join("chunk_000002.amps"), b"short").unwrap();
        for codec in [Codec::None, Codec::ShuffleRle] {
            let e = ChunkStore::<f64>::open_with(dir.path(), 3, 2, codec)
                .err()
                .expect("truncated chunk must not open");
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
        let mut store =
            ChunkStore::create_filled_with(dir.path(), 6, 2, uniform_amp(8), Codec::ShuffleRle)
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

        // Shrinking rewrites through the cached writer handle must not
        // leave stale frame tails behind.
        let mut writer = store.writer().unwrap();
        let noise: Vec<c64> = (0..64)
            .map(|i| {
                let mut s = qsim_util::SplitMix64::new(i as u64 + 7);
                c64::new(f64::from_bits(s.next_u64()), f64::from_bits(s.next_u64()))
            })
            .collect();
        writer.write_chunk_from(1, &noise).unwrap(); // incompressible (long file)
        writer.write_chunk_from(1, &vec![c64::zero(); 64]).unwrap(); // tiny (short file)
        let wstats = writer.stats();
        drop(writer);
        store.absorb(&wstats);
        let mut back = vec![c64::one(); 64];
        store.read_chunk_into(1, &mut back).unwrap();
        assert!(back.iter().all(|&a| a == c64::zero()));
        assert!(store.stats().encode_seconds >= 0.0);
        assert!(store.stats().decode_seconds >= 0.0);
    }

    #[test]
    fn codec_staged_scatter_commits_and_reopens() {
        let dir = ScratchDir::new("store_codec_staged");
        let mut store =
            ChunkStore::create_filled_with(dir.path(), 3, 1, c64::one(), Codec::ShuffleRle)
                .unwrap();
        let hi = vec![c64::new(2.0, 0.0); 4];
        let lo = vec![c64::new(3.0, 0.0); 4];
        let mut writer = store.writer().unwrap();
        writer.write_staged_range(0, 4, &hi).unwrap();
        writer.write_staged_range(0, 0, &lo).unwrap();
        drop(writer);
        // Live chunk untouched until commit.
        assert_eq!(store.read_chunk(0).unwrap(), vec![c64::one(); 8]);
        store.commit_staged().unwrap();
        let got = store.read_chunk(0).unwrap();
        assert_eq!(&got[..4], &lo[..]);
        assert_eq!(&got[4..], &hi[..]);
        // A second scatter generation (a fresh writer view) truncates on
        // first touch: it must not inherit old frames.
        let mut writer = store.writer().unwrap();
        writer.write_staged_range(1, 0, &lo).unwrap();
        writer.write_staged_range(1, 4, &hi).unwrap();
        drop(writer);
        store.commit_staged().unwrap();
        let got = store.read_chunk(1).unwrap();
        assert_eq!(&got[..4], &lo[..]);
        assert_eq!(&got[4..], &hi[..]);
        // Reopen with the matching codec and verify digests round-trip.
        let d0 = store.chunk_digest(0).unwrap();
        let d1 = store.chunk_digest(1).unwrap();
        drop(store);
        let mut re =
            ChunkStore::<f64>::open_verified_with(dir.path(), 3, 1, &[d0, d1], Codec::ShuffleRle)
                .unwrap();
        let got = re.read_chunk(1).unwrap();
        assert_eq!(&got[..4], &lo[..]);
        assert_eq!(&got[4..], &hi[..]);
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
