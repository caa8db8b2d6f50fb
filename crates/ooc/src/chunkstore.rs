//! Chunked on-disk amplitude storage.
//!
//! A 2^n-amplitude state is split into `2^g` chunk files of `2^l`
//! amplitudes (n = g + l), mirroring the distributed layout: the chunk
//! index is the high (global) bits, the offset within a chunk the low
//! (local) bits. Files live in a caller-supplied directory and hold raw
//! `Complex<R>` component pairs (f64 or f32) in native byte order
//! (little-endian on every supported target); all IO is counted for the
//! bandwidth analysis of the §5 SSD argument. A chunk file is the same
//! partition artifact as an in-memory rank's checkpoint — same name
//! ([`part_path`]), same raw bytes in the same layout, same digest,
//! reader ([`read_raw_part`]) and verifier ([`check_part_digest`]) — so
//! the chunk index is the rank id on disk too.
//!
//! ## Two generations
//!
//! The store holds the state twice over: chunk files are named by the
//! parity of the generation that wrote them (`part_000003.g1.amps`).
//! Direct store IO and [`ChunkReader`] views address the *current*
//! generation; a [`ChunkWriter`] view writes the next one into the other
//! parity, and `ChunkStore::advance` makes it current once every chunk
//! is written. A streaming pass therefore never overwrites what it reads,
//! and whatever the other parity holds (an older generation, a torn
//! write, nothing) is overwritten by the next writer and never read.
//!
//! The store follows the artifact IO rule of `write_part` / `read_part`:
//! it digests the bytes it writes and verifies the bytes it reads. A
//! pass that commits writes through a digesting writer, which folds
//! every byte it hands a file into that chunk's running digest, so the
//! commit (`ChunkStore::sync`) fsyncs and publishes without reading
//! anything back. A store opened at the generation a manifest names
//! ([`ChunkStore::open_named`]) reads nothing up front: each read of that
//! generation checks the chunk it reads against the manifest.
//!
//! The store is generic over the scalar precision `R`: chunk files hold
//! raw `Complex<R>` pairs (8 bytes per amplitude at f32, 16 at f64), so
//! an f32 run halves both the on-disk footprint and every pass's disk
//! traffic. The default `R = f64` layout is byte-identical to the
//! pre-tiering format.
//!
//! IO is zero-copy: reads and writes move bytes directly between the
//! files and caller-owned amplitude buffers ([`amps_as_bytes`]) — no
//! intermediate byte `Vec`s — through one timed read and one timed
//! write that the store and its views share. A read takes a file one
//! block at a time (`PART_BLOCK_AMPS` raw amplitudes, or one frame) and
//! can place each block through a swap's `p⁻¹` as it arrives
//! ([`ChunkStore::reader`]); unpermuted, raw blocks land straight in the
//! caller's buffer, and a permuted or framed read stages one block. The
//! pipelined engine's IO threads use
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
//! scalars: each write — a whole chunk or a scattered piece — appends
//! consecutive frames of at most [`FRAME_AMPS`] amplitudes, each carrying
//! its amplitude offset, and hands each to the file as soon as it is
//! encoded, so the codec's working memory is one frame. Reads stream the
//! file frame by frame, header then payload, decoding each as it
//! arrives, and accept any tiling of frames (files written as one
//! whole-chunk frame included, which stage that one frame); a writer
//! truncates
//! each file on first touch, since encoded sizes vary per generation. The
//! `bytes_read`/`bytes_written` counters stay *physical* (on-disk bytes —
//! the quantity the bandwidth analysis cares about) while
//! `logical_bytes_*` record the amplitude bytes moved; their ratio is
//! [`IoStats::compression_ratio`]. Digests hash the file bytes as
//! stored, i.e. the *encoded* frames, so the checkpoint protocol is
//! codec-oblivious.

use qsim_compress::{
    decode_frame, encode_frame, Codec, CodecScratch, FrameHeader, FRAME_AMPS, FRAME_HEADER_LEN,
};
use qsim_core::checkpoint::{
    at_path, check_part_digest, part_path, read_raw_part, CheckpointError, Fnv1a,
};
use qsim_kernels::parallel::par_scatter;
use qsim_telemetry::TrackHandle;
use qsim_util::align::{grown, AlignedVec};
use qsim_util::bits::BitPermutation;
use qsim_util::complex::{amps_as_bytes, Complex};
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
/// memory, one frame of encoded bytes (the frame a writer hands its file,
/// the payload a reader takes from it), one block of amplitudes on its
/// way to its unpermuted places, and the counters. All of it is reused
/// across chunks, so IO is allocation-free once warm, and none of it is
/// chunk-sized. The one timed read and the one timed write live here.
struct ChunkIo<R> {
    codec: Codec,
    scratch: CodecScratch,
    enc: Vec<u8>,
    block: Vec<Complex<R>>,
    stats: IoStats,
}

impl<R: Real> ChunkIo<R> {
    fn new(codec: Codec) -> Self {
        Self {
            codec,
            scratch: CodecScratch::default(),
            enc: Vec::new(),
            block: Vec::new(),
            stats: IoStats::default(),
        }
    }

    /// Read chunk `c`'s whole file from `f` (at its start) into `out`: raw
    /// through the one raw partition reader ([`read_raw_part`]), framed
    /// frame by frame. With `unpermute` (the generation's layout, a swap's
    /// `p⁻¹`) file offset `y` lands at `out[p⁻¹(y)]`, under one `unpermute`
    /// span on `track`. A chunk a manifest names (`want`) is checked as a
    /// rank's is, and a named file that does not decode is rejected,
    /// naming the partition. Returns the seconds it took — IO, decode and
    /// placement — for callers that waited on it.
    fn read(
        &mut self,
        c: usize,
        f: &mut File,
        out: &mut [Complex<R>],
        want: Option<u64>,
        unpermute: Option<&BitPermutation>,
        track: Option<&TrackHandle>,
    ) -> std::io::Result<f64> {
        let t = Instant::now();
        let decode0 = self.stats.decode_seconds;
        let logical = std::mem::size_of_val(out) as u64;
        let _s = unpermute
            .and(track)
            .map(|t| t.span_id("unpermute", c as u64));
        let physical = if self.codec.is_none() {
            let raw = read_raw_part(c, f, out, want, unpermute, &mut self.block);
            raw.map_err(|e| match e {
                CheckpointError::Io(e) => e,
                e => rejected(e),
            })?;
            logical
        } else {
            let mut digest = want.map(|_| Fnv1a::new());
            let physical = match self.read_frames(f, out, &mut digest, unpermute) {
                Err(e) if want.is_some() && e.kind() == std::io::ErrorKind::InvalidData => {
                    let e = CheckpointError::Mismatch(format!("partition {c}: {e}"));
                    return Err(rejected(e));
                }
                r => r?,
            };
            if let (Some(h), Some(want)) = (digest, want) {
                check_part_digest(c, h.finish(), want).map_err(rejected)?;
            }
            physical
        };
        let dt = t.elapsed().as_secs_f64();
        self.stats.read_seconds += dt - (self.stats.decode_seconds - decode0);
        self.stats.bytes_read += physical;
        self.stats.logical_bytes_read += logical;
        Ok(dt)
    }

    /// The framed half of [`ChunkIo::read`]: frame after frame to the end
    /// of the file, each taken off it as header then payload and decoded
    /// on its own, so one frame is all that is staged. The frames must
    /// tile the chunk. Returns the bytes read.
    fn read_frames(
        &mut self,
        f: &mut File,
        out: &mut [Complex<R>],
        digest: &mut Option<Fnv1a>,
        unpermute: Option<&BitPermutation>,
    ) -> std::io::Result<u64> {
        let Self {
            scratch,
            enc,
            block,
            stats,
            ..
        } = self;
        let mut physical = 0u64;
        let mut head = [0u8; FRAME_HEADER_LEN];
        scratch.start_chunk();
        loop {
            match read_up_to(f, &mut head)? {
                0 => break,
                FRAME_HEADER_LEN => {}
                _ => return Err(corrupt("truncated frame header")),
            }
            let h = FrameHeader::parse::<R>(&head, out.len())?;
            let payload = grown(enc, h.payload_len);
            f.read_exact(payload).map_err(|e| match e.kind() {
                std::io::ErrorKind::UnexpectedEof => corrupt("truncated frame payload"),
                _ => e,
            })?;
            physical += (FRAME_HEADER_LEN + h.payload_len) as u64;
            if let Some(d) = digest {
                d.write(&head);
                d.write(payload);
            }
            let mut decode = |dst: &mut [Complex<R>]| -> std::io::Result<()> {
                let t = Instant::now();
                decode_frame(&h, payload, scratch, dst)?;
                stats.decode_seconds += t.elapsed().as_secs_f64();
                Ok(())
            };
            match unpermute {
                None => decode(&mut out[h.amp_off..h.amp_off + h.amps])?,
                Some(p) => {
                    let block = grown(block, h.amps);
                    decode(block)?;
                    // On the reading thread, beside the compute pool.
                    par_scatter(block, out, p, h.amp_off, 1);
                }
            }
        }
        scratch.check_tiling(out.len())?;
        Ok(physical)
    }

    /// Hand the stored form of `amps` to `put`, which writes it: the raw
    /// scalars in one call, or under a codec consecutive frames of at
    /// most [`FRAME_AMPS`] amplitudes, each carrying its amplitude offset
    /// (`off` for the first) and handed over as soon as it is encoded, so
    /// the codec's buffers hold one frame, not a chunk. Returns the
    /// seconds it took, encode plus IO.
    fn write(
        &mut self,
        off: usize,
        amps: &[Complex<R>],
        mut put: impl FnMut(&[u8]) -> std::io::Result<()>,
    ) -> std::io::Result<f64> {
        let (mut codec_dt, mut io_dt, mut physical) = (0.0, 0.0, 0u64);
        let mut timed_put = |bytes: &[u8]| -> std::io::Result<()> {
            let t = Instant::now();
            put(bytes)?;
            io_dt += t.elapsed().as_secs_f64();
            physical += bytes.len() as u64;
            Ok(())
        };
        if self.codec.is_none() {
            timed_put(amps_as_bytes(amps))?;
        } else {
            for (k, frame) in amps.chunks(FRAME_AMPS).enumerate() {
                let t = Instant::now();
                self.enc.clear();
                let at = off + k * FRAME_AMPS;
                encode_frame(self.codec, at, frame, &mut self.scratch, &mut self.enc);
                codec_dt += t.elapsed().as_secs_f64();
                timed_put(&self.enc)?;
            }
        }
        self.stats.write_seconds += io_dt;
        self.stats.encode_seconds += codec_dt;
        self.stats.bytes_written += physical;
        self.stats.logical_bytes_written += std::mem::size_of_val(amps) as u64;
        Ok(io_dt + codec_dt)
    }
}

/// A named chunk that is not what its manifest promised, as the IO error
/// a pass returns: kind `InvalidData`, which the engine reports as
/// `SimError::Checkpoint` ("durable state rejected") on every engine.
fn rejected(e: CheckpointError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e)
}

/// Bytes on disk that are not a chunk file: `InvalidData`, like every
/// malformed frame the codec finds.
fn corrupt(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Read into `buf` until it is full or the file ends; the bytes read.
fn read_up_to(f: &mut File, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match f.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
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
    /// The digests the manifest the store was opened at promises for the
    /// current generation ([`ChunkStore::open_named`]): what every read of
    /// it checks. `None` once this store has written the generation.
    named: Option<Vec<u64>>,
    io: ChunkIo<R>,
}

impl<R: Real> ChunkStore<R> {
    fn bare(dir: &Path, local_qubits: u32, global_qubits: u32, codec: Codec) -> Self {
        Self {
            dir: dir.to_path_buf(),
            local_qubits,
            global_qubits,
            generation: 0,
            named: None,
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

    /// The file of chunk `c` in the current generation.
    fn chunk_path(&self, c: usize) -> PathBuf {
        part_path(&self.dir, c, self.generation)
    }

    /// Make the generation the last [`ChunkStore::writer`] view wrote
    /// current, once that view has written every chunk of it.
    pub(crate) fn advance(&mut self) {
        self.generation += 1;
        self.named = None;
    }

    /// Read chunk `c` directly into a caller-owned buffer — checked
    /// against its manifest digest when the store was opened at a named
    /// generation ([`ChunkStore::open_named`]). Direct store IO is
    /// synchronous by definition: the caller waited for all of it
    /// (pass-level IO instead attributes wait through the reader/writer
    /// views).
    pub fn read_chunk_into(&mut self, c: usize, out: &mut [Complex<R>]) -> std::io::Result<()> {
        assert!(c < self.n_chunks(), "chunk {c} out of range");
        assert_eq!(out.len(), self.chunk_len(), "chunk size mismatch");
        let mut f = self.open_chunk(c)?;
        let want = self.named.as_ref().map(|d| d[c]);
        self.io.stats.io_wait_seconds += self.io.read(c, &mut f, out, want, None, None)?;
        Ok(())
    }

    /// Open chunk `c` of the current generation for reading. A named
    /// chunk that cannot be opened — a missing file — is rejected.
    fn open_chunk(&self, c: usize) -> std::io::Result<File> {
        let path = self.chunk_path(c);
        File::open(&path).map_err(|e| match self.named {
            Some(_) => rejected(at_path(&path, e).into()),
            None => at_path(&path, e),
        })
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
        // generation of this chunk (encoded sizes vary); every later
        // frame appends.
        let mut file: Option<File> = None;
        let put = |bytes: &[u8]| match &mut file {
            Some(f) => f.write_all(bytes),
            None => file.insert(File::create(&path)?).write_all(bytes),
        };
        self.io.stats.io_wait_seconds += self.io.write(0, amps, put)?;
        self.named = None;
        Ok(())
    }

    /// Make the current generation durable for the commit that names it
    /// with the digests its writer took ([`ChunkWriter::finish`]):
    /// `sync_all` each chunk file. Nothing is read back.
    pub(crate) fn sync(&self) -> std::io::Result<()> {
        for c in 0..self.n_chunks() {
            let path = self.chunk_path(c);
            OpenOptions::new()
                .write(true)
                .open(&path)
                .and_then(|f| f.sync_all())
                .map_err(|e| at_path(&path, e))?;
        }
        Ok(())
    }

    /// Open the store at the generation a manifest names, reading
    /// nothing: each later read of that generation — the first pass's, or
    /// a finished run's reduction — checks the chunk it reads against
    /// `digests`, one per chunk, with the one artifact verifier
    /// ([`check_part_digest`], folded as it reads). A missing, short,
    /// long, mismatched or undecodable chunk is
    /// an `InvalidData` error naming the partition. The other parity is
    /// never looked at: it holds an abandoned or older generation, which
    /// the next pass overwrites.
    pub fn open_named(
        dir: &Path,
        local_qubits: u32,
        global_qubits: u32,
        generation: usize,
        digests: &[u64],
        codec: Codec,
    ) -> Self {
        let mut store = Self::bare(dir, local_qubits, global_qubits, codec);
        assert_eq!(digests.len(), store.n_chunks(), "digest count mismatch");
        store.generation = generation;
        store.named = Some(digests.to_vec());
        store
    }

    /// Delete the chunk files of both generations (cleanup helper for
    /// tests/examples).
    pub fn remove_files(&self) -> std::io::Result<()> {
        for generation in 0..2 {
            for c in 0..self.n_chunks() {
                let p = part_path(&self.dir, c, generation);
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
    /// generation. A view of a named generation checks each chunk it
    /// reads, as [`ChunkStore::read_chunk_into`] does.
    ///
    /// With `unpermute` — the `p⁻¹` of the swap that wrote this
    /// generation, over the chunk's `l` bits — every read puts the
    /// amplitude at file offset `y` at `p⁻¹(y)` of its buffer: the
    /// swap's gather-unpermute, done as the bytes arrive.
    pub fn reader(&self, unpermute: Option<&BitPermutation>) -> std::io::Result<ChunkReader<R>> {
        if let Some(p) = unpermute {
            assert_eq!(
                p.n_bits(),
                self.local_qubits as usize,
                "permutation of another chunk size"
            );
        }
        let files = (0..self.n_chunks())
            .map(|c| self.open_chunk(c))
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(ChunkReader {
            files,
            named: self.named.clone(),
            unpermute: unpermute.cloned(),
            chunk_len: self.chunk_len(),
            io: ChunkIo::new(self.io.codec),
        })
    }

    /// A write view of the next generation (`generation + 1`, the other
    /// parity), one lazily opened handle per chunk. Cursor state is
    /// private to the view, so a writeback thread never races the
    /// reader's seeks. With `digest` (a pass that commits) the view
    /// digests what it writes ([`ChunkWriter::finish`]).
    pub fn writer(&self, digest: bool) -> ChunkWriter<R> {
        let next = self.generation + 1;
        ChunkWriter {
            paths: (0..self.n_chunks())
                .map(|c| part_path(&self.dir, c, next))
                .collect(),
            files: (0..self.n_chunks()).map(|_| None).collect(),
            digests: digest.then(|| vec![(Fnv1a::new(), 0); self.n_chunks()]),
            chunk_len: self.chunk_len(),
            io: ChunkIo::new(self.io.codec),
        }
    }
}

/// Cached-handle read view of a [`ChunkStore`] (see
/// [`ChunkStore::reader`]). Reads stage at most one block and are
/// allocation-free once warm.
pub struct ChunkReader<R: Real = f64> {
    files: Vec<File>,
    /// The manifest digests, when the view reads a named generation.
    named: Option<Vec<u64>>,
    /// Where each read puts file offset `y`: `p⁻¹(y)`, or `y` when `None`.
    unpermute: Option<BitPermutation>,
    chunk_len: usize,
    io: ChunkIo<R>,
}

impl<R: Real> ChunkReader<R> {
    /// Read chunk `c` into `out` through the cached handle, unpermuted
    /// when the view was opened with a permutation; `track` gets the
    /// `unpermute` spans.
    pub fn read_into(
        &mut self,
        c: usize,
        out: &mut [Complex<R>],
        track: Option<&TrackHandle>,
    ) -> std::io::Result<()> {
        assert_eq!(out.len(), self.chunk_len, "chunk size mismatch");
        let f = &mut self.files[c];
        f.seek(SeekFrom::Start(0))?;
        let want = self.named.as_ref().map(|d| d[c]);
        self.io
            .read(c, f, out, want, self.unpermute.as_ref(), track)?;
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
    /// When the pass commits: per chunk, the running digest of every byte
    /// handed to its file, and the amplitude offset its next write must
    /// start at.
    digests: Option<Vec<(Fnv1a, usize)>>,
    chunk_len: usize,
    io: ChunkIo<R>,
}

impl<R: Real> ChunkWriter<R> {
    /// Write `amps` at amplitude offset `off` of chunk `c` — a whole
    /// chunk is `off = 0`. The first write to a chunk opens its file and
    /// discards whatever an older generation (or a torn write) left
    /// there: a raw file is sized to one chunk, and every range is then
    /// written in place; a framed file is truncated, and every write
    /// appends its offset-carrying frames through the retained handle.
    ///
    /// A digesting view takes each chunk front to back — a write anywhere
    /// but where the last one ended is an error — so its running digest
    /// is the digest of the whole file: a raw file is its ranges in
    /// order, a framed file its frames in append order.
    pub fn write_range(
        &mut self,
        c: usize,
        off: usize,
        amps: &[Complex<R>],
    ) -> std::io::Result<()> {
        assert!(off + amps.len() <= self.chunk_len);
        let mut digest = self.digests.as_mut().map(|d| &mut d[c]);
        if let Some(&mut (_, next)) = digest.as_deref_mut() {
            if off != next {
                return Err(std::io::Error::other(format!(
                    "chunk {c}: a digesting writer got amplitude {off}, not the next one, {next}"
                )));
            }
        }
        let raw = self.io.codec.is_none();
        let amp_bytes = std::mem::size_of::<Complex<R>>() as u64;
        let (slot, path) = (&mut self.files[c], &self.paths[c]);
        let chunk_bytes = self.chunk_len as u64 * amp_bytes;
        self.io.write(off, amps, |bytes| {
            (|| {
                let f = match slot.take() {
                    Some(f) => f,
                    None => {
                        let f = OpenOptions::new()
                            .write(true)
                            .create(true)
                            .truncate(!raw)
                            .open(path)?;
                        if raw {
                            f.set_len(chunk_bytes)?;
                        }
                        f
                    }
                };
                let f = slot.insert(f);
                if raw {
                    f.seek(SeekFrom::Start(off as u64 * amp_bytes))?;
                }
                f.write_all(bytes)
            })()
            .map_err(|e| at_path(path, e))?;
            if let Some((h, _)) = digest.as_deref_mut() {
                h.write(bytes);
            }
            Ok(())
        })?;
        if let Some((_, next)) = digest {
            *next += amps.len();
        }
        Ok(())
    }

    /// The digests of the generation this view wrote, one per chunk, when
    /// it digests (`None` otherwise). Every chunk must have been written
    /// to its end: a chunk left short is an error, since its file is not
    /// the bytes its digest covers.
    pub fn finish(&self) -> std::io::Result<Option<Vec<u64>>> {
        let Some(digests) = &self.digests else {
            return Ok(None);
        };
        let len = self.chunk_len;
        let finish = |(c, &(h, next)): (usize, &(Fnv1a, usize))| match next == len {
            true => Ok(h.finish()),
            false => Err(std::io::Error::other(format!(
                "chunk {c} left short: {next} of {len} amplitudes written"
            ))),
        };
        digests
            .iter()
            .enumerate()
            .map(finish)
            .collect::<std::io::Result<_>>()
            .map(Some)
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
    use qsim_core::dist::slots_to_top_permutation;
    use qsim_kernels::parallel::par_gather;
    use qsim_util::c64;
    use qsim_util::rng::Xoshiro256;

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

    /// Write every chunk of the next generation through one digesting
    /// writer view (chunk `c` holds `fill(c)`), then make it current;
    /// returns the digests it took.
    fn write_generation<R: Real>(
        store: &mut ChunkStore<R>,
        fill: impl Fn(usize) -> Vec<Complex<R>>,
    ) -> std::io::Result<Vec<u64>> {
        let mut writer = store.writer(true);
        for c in 0..store.n_chunks() {
            writer.write_range(c, 0, &fill(c))?;
        }
        store.absorb(&writer.stats());
        let digests = writer.finish()?.expect("a digesting writer");
        store.advance();
        store.sync()?;
        Ok(digests)
    }

    #[test]
    fn reader_writer_views_round_trip() -> std::io::Result<()> {
        let dir = ScratchDir::new("store_views");
        let mut store = ChunkStore::create_filled(dir.path(), 3, 2, c64::one())?;
        let pattern = |c: usize| (0..8).map(|i| c64::new(i as f64, c as f64)).collect();
        write_generation(&mut store, pattern)?;
        assert_eq!(
            store.stats().bytes_written,
            2 * 4 * 8 * 16,
            "create + 1 generation"
        );
        let mut reader = store.reader(None)?;
        let mut buf = vec![c64::zero(); 8];
        reader.read_into(2, &mut buf, None)?;
        assert_eq!(buf, pattern(2));
        // Re-reads through the same cached handle work (seek resets).
        reader.read_into(2, &mut buf, None)?;
        assert_eq!(buf, pattern(2));
        store.absorb(&reader.stats());
        assert_eq!(store.stats().bytes_read, 2 * 8 * 16);
        Ok(())
    }

    #[test]
    fn ranges_assemble_the_next_generation_behind_the_current_one() -> std::io::Result<()> {
        for codec in [Codec::None, Codec::ShuffleRle] {
            let dir = ScratchDir::new("store_ranges");
            let mut store = ChunkStore::create_filled_with(dir.path(), 3, 1, c64::one(), codec)?;
            // Chunk 0 from two half-chunk pieces, out of order; chunk 1
            // whole.
            let hi = vec![c64::new(2.0, 0.0); 4];
            let lo = vec![c64::new(3.0, 0.0); 4];
            let whole = [lo.clone(), hi.clone()].concat();
            let mut writer = store.writer(false);
            writer.write_range(0, 4, &hi)?;
            writer.write_range(0, 0, &lo)?;
            writer.write_range(1, 0, &whole)?;
            assert_eq!(writer.finish()?, None, "only a digesting writer digests");
            assert_eq!(store.to_vec()?, vec![c64::one(); 16], "{codec:?}");
            store.advance();
            let want = [whole.clone(), whole].concat();
            assert_eq!(store.to_vec()?, want, "{codec:?}");
        }
        Ok(())
    }

    /// A digesting writer takes each chunk front to back, whole or in
    /// pieces, and its digests are its files' whole-file digests. Out of
    /// order or short, it refuses.
    #[test]
    fn a_digesting_writer_takes_the_digests_of_its_files() -> std::io::Result<()> {
        for codec in [Codec::None, Codec::ShuffleRle] {
            let dir = ScratchDir::new("store_digests");
            let store = ChunkStore::create_filled_with(dir.path(), 3, 1, c64::one(), codec)?;
            let piece = |k: usize| vec![c64::new(k as f64, 0.5); 4];
            let mut writer = store.writer(true);
            writer.write_range(0, 0, &piece(0))?;
            writer.write_range(0, 4, &piece(1))?;
            writer.write_range(1, 0, &[piece(2), piece(3)].concat())?;
            let digests = writer.finish()?.expect("a digesting writer");
            for (c, d) in digests.into_iter().enumerate() {
                let file = std::fs::read(part_path(dir.path(), c, 1))?;
                let whole = qsim_core::checkpoint::fnv1a64(&file);
                assert_eq!(d, whole, "{codec:?} chunk {c}");
            }
            let mut writer = store.writer(true);
            writer.write_range(0, 0, &piece(0))?;
            let rewind = writer.write_range(0, 0, &piece(1));
            assert!(rewind.is_err(), "{codec:?}: rewind");
            let skip = writer.write_range(1, 4, &piece(1));
            assert!(skip.is_err(), "{codec:?}: skip");
            assert!(writer.finish().is_err(), "{codec:?}: short");
        }
        Ok(())
    }

    /// A codec writer emits a chunk as frames of at most `FRAME_AMPS`
    /// amplitudes, front to back, and digests them as the whole file. A
    /// chunk stored as one whole-chunk frame, as earlier writers left it,
    /// still reads back bit-exactly, checked against its digest.
    #[test]
    fn a_codec_writer_frames_each_chunk_and_old_files_stay_readable() -> std::io::Result<()> {
        let (l, len) = (14, 1usize << 14);
        let dir = ScratchDir::new("store_frames");
        let mut store = ChunkStore::<f64>::create_empty_with(dir.path(), l, 0, Codec::ShuffleRle)?;
        let chunk: Vec<c64> = (0..len)
            .map(|i| c64::new((i % 7) as f64 * 0.125, -((i / 5) as f64)))
            .collect();
        let digests = write_generation(&mut store, |_| chunk.clone())?;
        let file = std::fs::read(part_path(dir.path(), 0, 1))?;
        assert_eq!(digests, [qsim_core::checkpoint::fnv1a64(&file)]);
        let field =
            |at: usize| u32::from_le_bytes([file[at], file[at + 1], file[at + 2], file[at + 3]]);
        let (mut pos, mut spans) = (0, Vec::new());
        while pos < file.len() {
            assert_eq!(file[pos..pos + 2], *b"QZ");
            spans.push((field(pos + 4) as usize, field(pos + 8) as usize));
            pos += 16 + field(pos + 12) as usize;
        }
        let want: Vec<_> = (0..4).map(|k| (k * FRAME_AMPS, FRAME_AMPS)).collect();
        assert_eq!(spans, want, "4 frames of FRAME_AMPS, in order");

        let mut whole = Vec::new();
        encode_frame(
            Codec::ShuffleRle,
            0,
            &chunk,
            &mut CodecScratch::default(),
            &mut whole,
        );
        std::fs::write(part_path(dir.path(), 0, 0), &whole)?;
        let digest = qsim_core::checkpoint::fnv1a64(&whole);
        let mut old =
            ChunkStore::<f64>::open_named(dir.path(), l, 0, 0, &[digest], Codec::ShuffleRle);
        let mut back = vec![c64::zero(); len];
        old.read_chunk_into(0, &mut back)?;
        assert!(amps_as_bytes(&back) == amps_as_bytes(&chunk), "bit-exact");
        Ok(())
    }

    #[test]
    fn a_writer_overwrites_whatever_the_other_parity_held() -> std::io::Result<()> {
        // Longer, shorter and same-length leftovers of an older or torn
        // generation, and a missing file: the new generation reads back
        // exactly what was written.
        for codec in [Codec::None, Codec::ShuffleRle] {
            let dir = ScratchDir::new("store_leftovers");
            let mut store = ChunkStore::create_filled_with(dir.path(), 6, 2, c64::one(), codec)?;
            let other = |c: usize| part_path(dir.path(), c, 1);
            std::fs::write(other(0), vec![0xa5u8; 64 * 16 + 999])?;
            std::fs::write(other(1), b"short")?;
            std::fs::write(other(2), vec![0x5au8; 64 * 16])?;
            let fill = |c: usize| vec![c64::new(c as f64, -0.5); 64];
            write_generation(&mut store, fill)?;
            let want: Vec<c64> = (0..4).flat_map(fill).collect();
            assert_eq!(store.to_vec()?, want, "{codec:?}");
        }
        Ok(())
    }

    /// A read through a swap's `p⁻¹` lands every amplitude where a read
    /// in file layout followed by the gather `final[x] = buf[p(x)]` puts
    /// it, bit for bit: random slot sets at three chunk sizes, raw and
    /// framed files, both precisions, named and unnamed generations.
    #[test]
    fn a_permuted_read_is_the_read_then_the_gather() -> std::io::Result<()> {
        fn check<R: Real>(l: u32, codec: Codec, named: bool, seed: u64) -> std::io::Result<()> {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let len = 1usize << l;
            // Runs of one value (shuffle-RLE frames) and random bits
            // (stored-raw frames), so both frame kinds are unpermuted.
            let mut chunk = |c: usize| -> Vec<Complex<R>> {
                (0..len)
                    .map(|i| match (i / 512 + c) % 2 {
                        0 => Complex::new(R::from_usize(c + 1), R::ZERO),
                        _ => Complex::new(
                            R::from_bits_u64(rng.next_u64()),
                            R::from_bits_u64(rng.next_u64()),
                        ),
                    })
                    .collect()
            };
            let chunks = [chunk(0), chunk(1)];
            let mut slots: Vec<u32> = (0..l).collect();
            rng.shuffle(&mut slots);
            slots.truncate(1 + rng.next_below(3) as usize);
            let p = slots_to_top_permutation(&slots, l);

            let dir = ScratchDir::new("store_unpermute");
            let mut store = ChunkStore::<R>::create_empty_with(dir.path(), l, 1, codec)?;
            let digests = write_generation(&mut store, |c| chunks[c].clone())?;
            if named {
                store = ChunkStore::open_named(dir.path(), l, 1, 1, &digests, codec);
            }
            let at = format!("l={l} {codec} {} named={named} slots {slots:?}", R::NAME);
            let mut plain = vec![Complex::<R>::zero(); len];
            let mut want = vec![Complex::<R>::zero(); len];
            let mut got = vec![Complex::<R>::zero(); len];
            let mut permuted = store.reader(Some(&p.inverse()))?;
            for (c, chunk) in chunks.iter().enumerate() {
                store.read_chunk_into(c, &mut plain)?;
                assert!(amps_as_bytes(&plain) == amps_as_bytes(chunk), "{at}");
                par_gather(&plain, &mut want, &p, 0, 1);
                permuted.read_into(c, &mut got, None)?;
                assert!(
                    amps_as_bytes(&got) == amps_as_bytes(&want),
                    "{at} chunk {c}"
                );
            }
            Ok(())
        }
        let mut seed = 0;
        for l in [8, 13, 14] {
            for codec in [Codec::None, Codec::ShuffleRle] {
                for named in [false, true] {
                    seed += 1;
                    check::<f64>(l, codec, named, seed)?;
                    check::<f32>(l, codec, named, seed)?;
                }
            }
        }
        Ok(())
    }

    /// Streamed frame by frame, a framed file must still tile its chunk:
    /// overlapping frames, a hole and a short cover are refused, in file
    /// layout and through a permutation.
    #[test]
    fn streamed_frames_must_tile_the_chunk() -> std::io::Result<()> {
        let chunk = vec![c64::one(); 16];
        let p_inv = slots_to_top_permutation(&[1], 4).inverse();
        let spans: [&[(usize, usize)]; 3] = [&[(0, 8), (4, 12)], &[(0, 4), (8, 8)], &[(0, 8)]];
        for frames in spans {
            let dir = ScratchDir::new("store_tiling");
            let store = ChunkStore::<f64>::create_filled_with(
                dir.path(),
                4,
                0,
                c64::one(),
                Codec::ShuffleRle,
            )?;
            let mut bytes = Vec::new();
            for &(off, n) in frames {
                let mut scratch = CodecScratch::default();
                encode_frame(
                    Codec::ShuffleRle,
                    off,
                    &chunk[off..off + n],
                    &mut scratch,
                    &mut bytes,
                );
            }
            std::fs::write(part_path(dir.path(), 0, 0), &bytes)?;
            for unpermute in [None, Some(&p_inv)] {
                let mut out = vec![c64::zero(); 16];
                let e = store
                    .reader(unpermute)?
                    .read_into(0, &mut out, None)
                    .expect_err("frames that do not tile");
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{frames:?}");
            }
        }
        Ok(())
    }

    /// Opening a named generation reads nothing; each read of it checks
    /// the chunk it reads, through the store and through a reader view,
    /// in file layout or through a permutation.
    #[test]
    fn reads_of_a_named_generation_reject_a_damaged_chunk() -> std::io::Result<()> {
        type Damage = fn(&Path) -> std::io::Result<()>;
        let damages: [(&str, Damage); 4] = [
            ("short", |p| std::fs::write(p, b"short")),
            ("long", |p| {
                OpenOptions::new()
                    .append(true)
                    .open(p)?
                    .write_all(&[0x5a; 4099])
            }),
            ("flipped", |p| {
                let mut bytes = std::fs::read(p)?;
                bytes[9] ^= 1;
                std::fs::write(p, bytes)
            }),
            ("missing", |p| std::fs::remove_file(p)),
        ];
        for codec in [Codec::None, Codec::ShuffleRle] {
            for (what, damage) in damages {
                let dir = ScratchDir::new("store_torn");
                let mut store =
                    ChunkStore::create_filled_with(dir.path(), 3, 2, c64::one(), codec)?;
                let pattern = |c: usize| (0..8).map(|i| c64::new(i as f64, c as f64)).collect();
                let digests = write_generation(&mut store, pattern)?;
                damage(&part_path(dir.path(), 2, 1))?;
                let mut named = ChunkStore::<f64>::open_named(dir.path(), 3, 2, 1, &digests, codec);
                assert_eq!(named.stats().bytes_read, 0, "opening reads nothing");
                let mut buf = vec![c64::zero(); 8];
                named.read_chunk_into(1, &mut buf)?;
                let mut through = |p: Option<&BitPermutation>| {
                    named
                        .reader(p)
                        .and_then(|mut r| r.read_into(2, &mut buf, None))
                };
                let p_inv = slots_to_top_permutation(&[0, 1], 3).inverse();
                let reads = [through(None), through(Some(&p_inv))];
                for r in reads
                    .into_iter()
                    .chain([named.read_chunk_into(2, &mut buf)])
                {
                    let e = r.expect_err(what);
                    assert_eq!(
                        e.kind(),
                        std::io::ErrorKind::InvalidData,
                        "{codec:?} {what}"
                    );
                    let m = e.to_string();
                    assert!(
                        m.contains("partition 2") || m.contains("part_000002"),
                        "{m}"
                    );
                }
            }
        }
        Ok(())
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
