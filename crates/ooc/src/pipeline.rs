//! The chunk pipeline: the one way a pass streams the state.
//!
//! Every full-state pass of the out-of-core engine — one stage run, with
//! both halves of its neighbouring swaps folded in — streams all 2^g
//! chunks through memory. [`run_pass`] drives that stream as a
//! three-thread pipeline: a *prefetch* thread fills chunk `c+1..c+depth`
//! ahead (read from the store's current generation, or synthesised for
//! the start state), the caller's compute closure runs on the main
//! thread, and a *writeback* thread retires chunk `c−1` into the next
//! generation — so disk time hides behind compute. `depth` chunk buffers
//! circulate; at depth 1 there is one, so read → compute → write of
//! consecutive chunks serialise through the same three threads — the
//! synchronous case is a depth, not a mode.
//!
//! Buffers travel a closed loop of bounded [`Pipe`]s (hand-rolled
//! Mutex+Condvar ring; the queue storage is preallocated, so steady
//! state moves `AlignedVec`s without touching the heap):
//!
//! ```text
//!   chunk_free ─→ prefetch ─→ full ─→ compute ─→ wb ─→ writeback ─┐
//!        ↑                                                        │
//!        └────────────────────────────────────────────────────────┘
//! ```
//!
//! Wire buffers (the all-to-all's piece-sized staging) make the same
//! loop through `wire_free`. Total buffers in flight are fixed at pass
//! start (seeded from the engine's [`BufferPool`]s and drained back on
//! completion), which bounds memory *and* guarantees progress: every
//! pipe's capacity is at least the number of buffers that can ever be
//! queued on it, so the only blocking edges are buffer starvation —
//! broken by the writeback thread, which never blocks on anything but
//! its own inbox.
//!
//! Errors on the IO threads land in a shared slot; the compute loop
//! notices the early channel close and aborts, and the first error is
//! returned after both threads join.

use crate::chunkstore::{uniform_amp, BufferPool, ChunkReader, ChunkStore, ChunkWriter, IoStats};
use parking_lot::{Condvar, Mutex};
use qsim_telemetry::{Telemetry, TrackHandle};
use qsim_util::align::AlignedVec;
use qsim_util::complex::Complex;
use qsim_util::Real;
use std::collections::VecDeque;
use std::time::Instant;

type Buf<R> = AlignedVec<Complex<R>>;

/// A bounded MPMC channel with close semantics and blocked-time
/// accounting. Storage is preallocated to `cap`; `push`/`pop` return the
/// seconds they spent blocked so callers can attribute pipeline stalls.
pub(crate) struct Pipe<T> {
    inner: Mutex<PipeInner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

struct PipeInner<T> {
    q: VecDeque<T>,
    cap: usize,
    closed: bool,
}

impl<T> Pipe<T> {
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0);
        Self {
            inner: Mutex::new(PipeInner {
                q: VecDeque::with_capacity(cap),
                cap,
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Enqueue, blocking while full. Returns `(rejected, blocked_seconds)`:
    /// a closed pipe rejects the item back to the caller (abort path) so
    /// no buffer is ever lost to a shutdown race.
    pub fn push(&self, item: T) -> (Option<T>, f64) {
        let mut g = self.inner.lock();
        let mut blocked = 0.0;
        if g.q.len() >= g.cap && !g.closed {
            let t = Instant::now();
            while g.q.len() >= g.cap && !g.closed {
                self.not_full.wait(&mut g);
            }
            blocked = t.elapsed().as_secs_f64();
        }
        if g.closed {
            return (Some(item), blocked);
        }
        g.q.push_back(item);
        self.not_empty.notify_one();
        (None, blocked)
    }

    /// Dequeue, blocking while empty. Returns `(item, blocked_seconds)`;
    /// `None` once the pipe is closed *and* drained.
    pub fn pop(&self) -> (Option<T>, f64) {
        let mut g = self.inner.lock();
        let mut blocked = 0.0;
        if g.q.is_empty() && !g.closed {
            let t = Instant::now();
            while g.q.is_empty() && !g.closed {
                self.not_empty.wait(&mut g);
            }
            blocked = t.elapsed().as_secs_f64();
        }
        match g.q.pop_front() {
            Some(item) => {
                self.not_full.notify_one();
                (Some(item), blocked)
            }
            None => (None, blocked),
        }
    }

    /// Close: pending pops drain the queue then see `None`; pushes after
    /// close drop their item.
    pub fn close(&self) {
        let mut g = self.inner.lock();
        g.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Recover all queued items (post-join buffer drain).
    fn drain_into(&self, out: &mut Vec<T>) {
        let mut g = self.inner.lock();
        while let Some(item) = g.q.pop_front() {
            out.push(item);
        }
    }
}

/// Where a retired buffer's bytes go in the generation the pass writes.
/// The variant also says which pool the buffer returns to: only
/// [`Dest::Piece`] carries a wire buffer.
#[derive(Clone, Copy)]
pub(crate) enum Dest {
    /// All of chunk `c`.
    Chunk(usize),
    /// Amplitude offset `off` of chunk `c` (one scattered piece).
    Piece { c: usize, off: usize },
    /// Nothing to write: recycle a chunk buffer (scatter sources).
    Nowhere,
}

impl Dest {
    /// Write `buf` out through `writer`, under a span on `track`.
    fn write<R: Real>(
        self,
        writer: &mut ChunkWriter<R>,
        track: &TrackHandle,
        buf: &[Complex<R>],
    ) -> std::io::Result<()> {
        let (name, c, off) = match self {
            Dest::Chunk(c) => ("write", c, 0),
            Dest::Piece { c, off } => ("write piece", c, off),
            Dest::Nowhere => return Ok(()),
        };
        let _s = track.span_timed(name, c as u64, "chunk_io_ns");
        writer.write_range(c, off, buf)
    }
}

/// Where a pass's chunks come from.
#[derive(Clone, Copy)]
pub(crate) enum PassSource {
    /// The store's current generation: what the previous pass wrote.
    Live,
    /// No chunk file exists yet: the start state is a formula (the
    /// uniform superposition, or |0…0⟩), so the first pass synthesises
    /// each chunk instead of reading one somebody had to write.
    Start { uniform: bool },
}

/// The opened form of a [`PassSource`]: fills chunk buffers on the
/// prefetch thread.
enum Feed<R: Real> {
    Live(Box<ChunkReader<R>>),
    /// Every amplitude is `fill`, except that chunk 0 starts with `head`.
    Start {
        fill: Complex<R>,
        head: Complex<R>,
    },
}

impl<R: Real> Feed<R> {
    fn open(store: &ChunkStore<R>, source: PassSource) -> std::io::Result<Self> {
        Ok(match source {
            PassSource::Live => Feed::Live(Box::new(store.reader()?)),
            PassSource::Start { uniform: true } => {
                let amp = uniform_amp(store.n_qubits());
                Feed::Start {
                    fill: amp,
                    head: amp,
                }
            }
            PassSource::Start { uniform: false } => Feed::Start {
                fill: Complex::zero(),
                head: Complex::one(),
            },
        })
    }

    /// Fill `buf` with chunk `c`, under a `read` or `synthesise` span.
    fn fill(
        &mut self,
        c: usize,
        buf: &mut [Complex<R>],
        telemetry: &Telemetry,
        track: &TrackHandle,
    ) -> std::io::Result<()> {
        match self {
            Feed::Live(reader) => {
                let d0 = reader.stats().decode_seconds;
                let read = {
                    let _s = track.span_timed("read", c as u64, "chunk_io_ns");
                    reader.read_into(c, buf)
                };
                if !reader.codec().is_none() {
                    let dt = reader.stats().decode_seconds - d0;
                    telemetry.record_duration_ns("codec_decode_ns", (dt * 1e9) as u64);
                }
                read
            }
            Feed::Start { fill, head } => {
                let _s = track.span_id("synthesise", c as u64);
                buf.fill(*fill);
                if c == 0 {
                    buf[0] = *head;
                }
                Ok(())
            }
        }
    }

    fn stats(&self) -> IoStats {
        match self {
            Feed::Live(reader) => reader.stats(),
            Feed::Start { .. } => IoStats::default(),
        }
    }
}

/// Pass-shape knobs, derived from the engine config.
pub(crate) struct PassConfig {
    pub source: PassSource,
    /// Chunk buffers in flight (prefetch depth, ≥ 1).
    pub depth: usize,
    /// Wire buffers in flight (0 for passes that stage nothing).
    pub wires: usize,
    /// Span/metrics sink: the pipeline threads record per-chunk
    /// read/write spans on their own tracks (`ooc.prefetch`,
    /// `ooc.writeback`) and feed the `chunk_io_ns` histogram. Disabled
    /// handles make all of that a no-op.
    pub telemetry: Telemetry,
}

/// The compute closure's handle on the pass: where finished buffers go
/// and where staging buffers come from. Writes are enqueues; the
/// writeback thread recycles buffers into the free pipes.
pub(crate) struct PipeSink<'a, R: Real> {
    wb: &'a Pipe<(Dest, Buf<R>)>,
    wire_free: &'a Pipe<Buf<R>>,
    io_wait: f64,
}

impl<R: Real> PipeSink<'_, R> {
    /// Write `buf` to `dest`, then return it to its pool.
    pub fn retire(&mut self, dest: Dest, buf: Buf<R>) {
        // Recycle-only requests go through the writeback thread too, so
        // ordering with in-flight writes is preserved. The wb pipe only
        // closes after the compute loop finishes and its capacity covers
        // every buffer in existence, so the push is never rejected.
        let (_, blocked) = self.wb.push((dest, buf));
        self.io_wait += blocked;
    }

    /// Acquire a wire buffer (piece-sized staging).
    pub fn take_wire(&mut self) -> std::io::Result<Buf<R>> {
        let (buf, blocked) = self.wire_free.pop();
        self.io_wait += blocked;
        buf.ok_or_else(|| std::io::Error::other("pipeline aborted: wire pool closed"))
    }
}

fn set_err(slot: &Mutex<Option<std::io::Error>>, e: std::io::Error) {
    let mut g = slot.lock();
    if g.is_none() {
        *g = Some(e);
    }
}

/// Convert an IO thread's panic payload into a typed error the pass can
/// return, instead of re-panicking on the compute thread. IO threads are
/// expected to report failures through the error slot; a panic here
/// means a bug (e.g. a poisoned chunk index), and the caller deserves
/// the message, not an abort.
fn thread_panic_err(which: &str, payload: Box<dyn std::any::Any + Send>) -> std::io::Error {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    std::io::Error::other(format!("{which} thread panicked: {msg}"))
}

/// Stream every chunk of `cfg.source` through `compute` once. The closure
/// receives `(chunk_index, chunk_buffer, sink)` in ascending chunk order
/// and must hand the buffer back through the sink (as a write or a
/// recycle); its writes must cover every chunk of the next generation,
/// which becomes the store's current one when the pass succeeds. IO
/// counters, wait/compute split and the traversal count are absorbed
/// into the store's stats.
pub(crate) fn run_pass<R: Real, F>(
    store: &mut ChunkStore<R>,
    chunk_pool: &mut BufferPool<R>,
    wire_pool: &mut BufferPool<R>,
    cfg: &PassConfig,
    mut compute: F,
) -> std::io::Result<()>
where
    F: FnMut(usize, Buf<R>, &mut PipeSink<'_, R>) -> std::io::Result<()>,
{
    let n = store.n_chunks();
    let depth = cfg.depth;
    assert!(depth >= 1, "a pass needs a chunk buffer to circulate");
    let feed = Feed::open(store, cfg.source)?;
    let writer = store.writer();

    // Capacities are sized so no pipe can ever reject a buffer that
    // exists: `depth + 1` chunk buffers circulate (+1 for a compute-held
    // scratch, see the unpermute pass), `cfg.wires` wire buffers.
    let chunk_free = Pipe::<Buf<R>>::new(depth + 1);
    let full = Pipe::<(usize, Buf<R>)>::new(depth + 1);
    let wb = Pipe::<(Dest, Buf<R>)>::new(depth + 1 + cfg.wires.max(1));
    let wire_free = Pipe::<Buf<R>>::new(cfg.wires.max(1));
    for _ in 0..depth {
        chunk_free.push(chunk_pool.get());
    }
    for _ in 0..cfg.wires {
        wire_free.push(wire_pool.get());
    }
    let err: Mutex<Option<std::io::Error>> = Mutex::new(None);

    let (loop_stats, reader_stats, writer_stats) = std::thread::scope(|s| {
        // Each IO thread returns its stats plus any buffers it could not
        // route onward (rejected by a closed pipe on the abort path), so
        // every buffer makes it back to a pool no matter how the pass
        // ends.
        let prefetch = s.spawn(|| {
            let track = cfg.telemetry.track("ooc.prefetch");
            let mut feed = feed;
            let mut stranded: Vec<Buf<R>> = Vec::new();
            for c in 0..n {
                let (buf, _) = chunk_free.pop();
                let Some(mut buf) = buf else { break };
                if let Err(e) = feed.fill(c, &mut buf, &cfg.telemetry, &track) {
                    set_err(&err, e);
                    stranded.push(buf);
                    break;
                }
                if let (Some((_, buf)), _) = full.push((c, buf)) {
                    stranded.push(buf);
                    break;
                }
            }
            full.close();
            (feed.stats(), stranded)
        });

        let writeback = s.spawn(|| {
            let track = cfg.telemetry.track("ooc.writeback");
            let mut writer = writer;
            let codec_on = !writer.codec().is_none();
            let mut stranded: Vec<Buf<R>> = Vec::new();
            while let (Some((dest, buf)), _) = wb.pop() {
                let e0 = writer.stats().encode_seconds;
                if let Err(e) = dest.write(&mut writer, &track, &buf) {
                    set_err(&err, e);
                }
                let home = match dest {
                    Dest::Piece { .. } => &wire_free,
                    _ => &chunk_free,
                };
                if let (Some(buf), _) = home.push(buf) {
                    stranded.push(buf);
                }
                let dt = writer.stats().encode_seconds - e0;
                if codec_on && dt > 0.0 {
                    cfg.telemetry
                        .record_duration_ns("codec_encode_ns", (dt * 1e9) as u64);
                }
            }
            (writer.stats(), stranded)
        });

        let mut sink = PipeSink {
            wb: &wb,
            wire_free: &wire_free,
            io_wait: 0.0,
        };
        let mut compute_seconds = 0.0;
        for _ in 0..n {
            let (item, blocked) = full.pop();
            sink.io_wait += blocked;
            let Some((c, buf)) = item else { break };
            let wait0 = sink.io_wait;
            let t = Instant::now();
            let r = compute(c, buf, &mut sink);
            compute_seconds += t.elapsed().as_secs_f64() - (sink.io_wait - wait0);
            if let Err(e) = r {
                set_err(&err, e);
                break;
            }
        }
        // Orderly shutdown. Writeback drains its whole queue before
        // seeing the close and must be able to recycle every buffer, so
        // the free pipes stay open until it has joined. Closing `full`
        // here bounces an abandoned prefetch's in-flight push back to it
        // (on an early abort the main loop stops popping, so prefetch
        // could otherwise park on a pipe nobody drains).
        wb.close();
        full.close();
        let (writer_stats, wb_stranded) = writeback.join().unwrap_or_else(|p| {
            set_err(&err, thread_panic_err("writeback", p));
            (IoStats::default(), Vec::new())
        });
        chunk_free.close();
        wire_free.close();
        let (reader_stats, pf_stranded) = prefetch.join().unwrap_or_else(|p| {
            set_err(&err, thread_panic_err("prefetch", p));
            (IoStats::default(), Vec::new())
        });
        for b in pf_stranded {
            chunk_pool.put(b);
        }
        for b in wb_stranded {
            // Writeback strands buffers only after the free pipes close,
            // i.e. never under this ordering — but route them home
            // anyway (wire buffers are distinguishable by length).
            if b.len() == chunk_pool.buf_len() {
                chunk_pool.put(b);
            } else {
                wire_pool.put(b);
            }
        }
        let loop_stats = IoStats::compute_loop(sink.io_wait, compute_seconds);
        (loop_stats, reader_stats, writer_stats)
    });

    // Return every surviving buffer to its pool: the free-pipe seeds and,
    // after an abort, chunks stranded in `full`.
    let mut bufs = Vec::new();
    chunk_free.drain_into(&mut bufs);
    for b in bufs.drain(..) {
        chunk_pool.put(b);
    }
    wire_free.drain_into(&mut bufs);
    for b in bufs.drain(..) {
        wire_pool.put(b);
    }
    loop {
        let (item, _) = full.pop();
        match item {
            Some((_, b)) => chunk_pool.put(b),
            None => break,
        }
    }

    store.absorb(&reader_stats);
    store.absorb(&writer_stats);
    store.absorb(&loop_stats);
    store.count_traversal();
    match err.into_inner() {
        Some(e) => Err(e),
        None => {
            store.advance();
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunkstore::ChunkStore;
    use crate::scratch::ScratchDir;
    use qsim_compress::Codec;
    use qsim_util::c64;

    #[test]
    fn pipe_is_fifo_and_bounded() {
        let p = Pipe::<u32>::new(2);
        assert_eq!(p.push(1), (None, 0.0));
        assert_eq!(p.push(2), (None, 0.0));
        assert_eq!(p.pop().0, Some(1));
        assert_eq!(p.pop().0, Some(2));
        p.close();
        assert_eq!(p.pop().0, None);
    }

    #[test]
    fn pipe_blocks_until_consumer_frees_capacity() {
        let p = std::sync::Arc::new(Pipe::<u32>::new(1));
        p.push(7);
        let q = p.clone();
        let h = std::thread::spawn(move || q.push(8)); // blocks
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(p.pop().0, Some(7));
        h.join().unwrap();
        assert_eq!(p.pop().0, Some(8));
    }

    #[test]
    fn pipe_drains_after_close() {
        let p = Pipe::<u32>::new(4);
        p.push(1);
        p.push(2);
        p.close();
        assert_eq!(p.pop().0, Some(1)); // queued items survive close
        assert_eq!(p.pop().0, Some(2));
        assert_eq!(p.pop().0, None);
        assert_eq!(p.push(3), (Some(3), 0.0)); // rejected back to caller
        assert_eq!(p.pop().0, None);
    }

    /// Every depth doubles every amplitude, and a pass takes exactly
    /// `depth` chunk buffers from the pool — one at depth 1, where read,
    /// compute and write of consecutive chunks serialise.
    #[test]
    fn every_depth_streams_the_same_pass() {
        for depth in [1usize, 2] {
            let dir = ScratchDir::new("pass_depth");
            let mut store = ChunkStore::create_filled(dir.path(), 4, 2, c64::one()).unwrap();
            let mut chunk_pool = BufferPool::new(store.chunk_len());
            let mut wire_pool = BufferPool::new(store.chunk_len() >> 2);
            let cfg = PassConfig {
                source: PassSource::Live,
                depth,
                wires: 0,
                telemetry: Telemetry::disabled(),
            };
            run_pass(
                &mut store,
                &mut chunk_pool,
                &mut wire_pool,
                &cfg,
                |c, mut buf, sink| {
                    for a in buf.iter_mut() {
                        *a *= c64::new(2.0, 0.0);
                    }
                    sink.retire(Dest::Chunk(c), buf);
                    Ok(())
                },
            )
            .unwrap();
            let v = store.to_vec().unwrap();
            assert!(v.iter().all(|&a| a == c64::new(2.0, 0.0)));
            let stats = store.stats();
            assert_eq!(stats.traversals, 1);
            assert!((0.0..=1.0).contains(&stats.overlap_fraction()));
            assert_eq!(chunk_pool.allocs(), depth as u64, "depth {depth}");
            // All buffers came home: taking them again misses nothing.
            let held: Vec<_> = (0..depth).map(|_| chunk_pool.get()).collect();
            assert_eq!(chunk_pool.allocs(), depth as u64);
            drop(held);
        }
    }

    /// A `Start` source reads nothing and needs no file: the pass
    /// synthesises the bytes `create_uniform` / `create_zero_state` would
    /// have written, and the chunk files come into being on write.
    #[test]
    fn start_source_synthesises_what_create_would_write() {
        for (uniform, depth) in [(true, 1usize), (true, 2), (false, 1), (false, 2)] {
            let want_dir = ScratchDir::new("pass_start_want");
            let want = if uniform {
                ChunkStore::<f64>::create_uniform(want_dir.path(), 4, 2)
            } else {
                ChunkStore::<f64>::create_zero_state(want_dir.path(), 4, 2)
            }
            .unwrap()
            .to_vec()
            .unwrap();

            let dir = ScratchDir::new("pass_start");
            let mut store =
                ChunkStore::<f64>::create_empty_with(dir.path(), 4, 2, Codec::None).unwrap();
            let mut chunk_pool = BufferPool::new(store.chunk_len());
            let mut wire_pool = BufferPool::new(1);
            let cfg = PassConfig {
                source: PassSource::Start { uniform },
                depth,
                wires: 0,
                telemetry: Telemetry::disabled(),
            };
            run_pass(
                &mut store,
                &mut chunk_pool,
                &mut wire_pool,
                &cfg,
                |c, buf, sink| {
                    sink.retire(Dest::Chunk(c), buf);
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(store.stats().logical_bytes_read, 0);
            assert_eq!(store.stats().traversals, 1);
            assert_eq!(
                store.to_vec().unwrap(),
                want,
                "uniform={uniform} depth={depth}"
            );
        }
    }

    #[test]
    fn scattered_pieces_become_the_next_generation() {
        // One wire buffer under one chunk buffer is the tightest loop the
        // scatter can run in; two of each is the overlapped one.
        for (depth, wires) in [(1usize, 1usize), (2, 2)] {
            let dir = ScratchDir::new("pass_pieces");
            let mut store = ChunkStore::create_filled(dir.path(), 3, 1, c64::zero()).unwrap();
            let mut chunk_pool = BufferPool::new(store.chunk_len());
            let mut wire_pool = BufferPool::new(store.chunk_len() / 2);
            let piece = store.chunk_len() / 2;
            let cfg = PassConfig {
                source: PassSource::Live,
                depth,
                wires,
                telemetry: Telemetry::disabled(),
            };
            // Transpose-like: piece `src` of chunk `dst` = src id.
            run_pass(
                &mut store,
                &mut chunk_pool,
                &mut wire_pool,
                &cfg,
                |src, buf, sink| {
                    for dst in 0..2usize {
                        let mut wire = sink.take_wire()?;
                        for w in wire.iter_mut() {
                            *w = c64::new(src as f64 + 1.0, dst as f64);
                        }
                        let off = src * piece;
                        sink.retire(Dest::Piece { c: dst, off }, wire);
                    }
                    sink.retire(Dest::Nowhere, buf);
                    Ok(())
                },
            )
            .unwrap();
            let v = store.to_vec().unwrap();
            for dst in 0..2usize {
                for src in 0..2usize {
                    let off = dst * store.chunk_len() + src * piece;
                    assert!(v[off..off + piece]
                        .iter()
                        .all(|&a| a == c64::new(src as f64 + 1.0, dst as f64)));
                }
            }
        }
    }

    #[test]
    fn pass_surfaces_read_errors() {
        for depth in [1usize, 2] {
            let dir = ScratchDir::new("pass_err");
            let mut store = ChunkStore::create_filled(dir.path(), 3, 2, c64::one()).unwrap();
            // Truncate one chunk so the prefetch read fails mid-pass.
            let bad = dir.path().join("chunk_000002.g0.amps");
            std::fs::write(&bad, b"short").unwrap();
            let mut chunk_pool = BufferPool::new(store.chunk_len());
            let mut wire_pool = BufferPool::new(1);
            let cfg = PassConfig {
                source: PassSource::Live,
                depth,
                wires: 0,
                telemetry: Telemetry::disabled(),
            };
            let r = run_pass(
                &mut store,
                &mut chunk_pool,
                &mut wire_pool,
                &cfg,
                |c, buf, sink| {
                    sink.retire(Dest::Chunk(c), buf);
                    Ok(())
                },
            );
            assert!(r.is_err(), "truncated chunk must fail the pass");
        }
    }
}
