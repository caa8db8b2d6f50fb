//! Rank fabric: threads, ordered point-to-point messaging, barriers, and
//! communication accounting.
//!
//! Channel semantics mirror MPI's per-pair ordering: messages from rank A
//! to rank B are matched in send order (each side keeps sequence
//! counters), so collectives built on top are deterministic without
//! explicit tags. Payloads are pooled [`WireBuf`]s (8-byte-aligned byte
//! buffers): a sender packs directly into a recycled buffer via
//! [`RankCtx::send_with`], the receiver unpacks straight out of it via
//! [`RankCtx::recv_with`], and the buffer is returned to the *sender's* pool on consumption — so a steady-state
//! communication pattern (e.g. the global-swap all-to-alls, which repeat
//! the same message sizes every swap) performs zero heap allocations
//! after warm-up. Pool misses are counted in [`FabricStats::wire_allocs`].

use crate::error::SimError;
use crate::fault::{FaultAction, FaultPlan};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// An 8-byte-aligned, recyclable message payload.
///
/// Backed by `Vec<u64>` so any `Copy` element type with alignment ≤ 8
/// (bytes, f64, complex amplitudes) can be viewed in place without copies
/// on either side of the wire.
pub struct WireBuf {
    words: Vec<u64>,
    bytes: usize,
}

impl WireBuf {
    fn with_byte_len(bytes: usize) -> Self {
        Self {
            words: vec![0u64; bytes.div_ceil(8)],
            bytes,
        }
    }

    /// Usable capacity in bytes (allocation-free up to this size).
    #[inline]
    fn capacity_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Set the logical length, growing the backing store if needed.
    /// Returns true when a (re)allocation was required.
    fn set_byte_len(&mut self, bytes: usize) -> bool {
        let grew = bytes > self.capacity_bytes();
        if grew {
            self.words.resize(bytes.div_ceil(8), 0);
        }
        self.bytes = bytes;
        grew
    }

    /// View the payload as a typed slice. `T` must be `Copy` with
    /// alignment ≤ 8 and must divide the payload size exactly.
    #[inline]
    pub fn as_slice<T: Copy>(&self) -> &[T] {
        let sz = check_layout::<T>(self.bytes);
        // SAFETY: the u64 backing guarantees alignment >= 8 >= align_of::<T>(),
        // the buffer is fully initialized (zeroed or written), and T is Copy.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr() as *const T, self.bytes / sz) }
    }

    /// Mutable typed view (for packing directly into the wire).
    #[inline]
    pub fn as_mut_slice<T: Copy>(&mut self) -> &mut [T] {
        let sz = check_layout::<T>(self.bytes);
        // SAFETY: as for `as_slice`; the &mut receiver guarantees uniqueness.
        unsafe {
            std::slice::from_raw_parts_mut(self.words.as_mut_ptr() as *mut T, self.bytes / sz)
        }
    }
}

#[inline]
fn check_layout<T: Copy>(bytes: usize) -> usize {
    let sz = std::mem::size_of::<T>();
    assert!(
        sz > 0 && std::mem::align_of::<T>() <= 8,
        "wire element must be sized with alignment <= 8"
    );
    assert!(bytes.is_multiple_of(sz), "payload size mismatch");
    sz
}

/// Per-rank communication counters (bytes actually put on the "wire";
/// self-copies in collectives are not counted, matching MPI accounting).
#[derive(Debug, Default)]
pub struct CommCounters {
    pub bytes_sent: AtomicU64,
    /// Nanoseconds spent inside communication calls (send/recv/barrier),
    /// including time spent packing/unpacking payloads — the swap data
    /// path's total.
    pub comm_nanos: AtomicU64,
    /// Nanoseconds spent *blocked* (condvar waits for a missing message,
    /// barrier waits). `comm_nanos − blocked_nanos` is comm-call time that
    /// did useful work and therefore overlapped with the data path.
    pub blocked_nanos: AtomicU64,
    /// Wire-buffer pool misses (a fresh allocation or a grow was needed).
    pub wire_allocs: AtomicU64,
}

/// Aggregated statistics returned by [`run_cluster`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FabricStats {
    pub n_ranks: usize,
    pub total_bytes_sent: u64,
    /// Max over ranks of time spent in communication, in seconds — the
    /// number behind Table 2's "Comm." column.
    pub max_comm_seconds: f64,
    /// Mean over ranks of communication seconds.
    pub mean_comm_seconds: f64,
    /// Max over ranks of time spent *blocked* waiting (not packing or
    /// unpacking), in seconds.
    pub max_blocked_seconds: f64,
    /// Mean over ranks of blocked seconds.
    pub mean_blocked_seconds: f64,
    /// Total wire-buffer allocations across ranks; a steady-state
    /// communication pattern stops allocating after warm-up.
    pub wire_allocs: u64,
}

impl FabricStats {
    /// Fraction of communication time that was overlapped with payload
    /// work rather than spent blocked: `1 − blocked/total` (mean over
    /// ranks). 0 when no communication happened.
    pub fn overlap_fraction(&self) -> f64 {
        if self.mean_comm_seconds <= 0.0 {
            0.0
        } else {
            (1.0 - self.mean_blocked_seconds / self.mean_comm_seconds).clamp(0.0, 1.0)
        }
    }

    /// Flatten these counters into the unified metrics registry under
    /// `prefix` (e.g. `dist.fabric`). The struct remains the typed view;
    /// the registry feeds the exported metrics snapshot.
    pub fn publish_into(&self, metrics: &qsim_telemetry::MetricsRegistry, prefix: &str) {
        metrics.counter_add(&format!("{prefix}.n_ranks"), self.n_ranks as u64);
        metrics.counter_add(&format!("{prefix}.bytes_sent"), self.total_bytes_sent);
        metrics.counter_add(&format!("{prefix}.wire_allocs"), self.wire_allocs);
        metrics.gauge_set(&format!("{prefix}.max_comm_seconds"), self.max_comm_seconds);
        metrics.gauge_set(
            &format!("{prefix}.mean_comm_seconds"),
            self.mean_comm_seconds,
        );
        metrics.gauge_set(
            &format!("{prefix}.max_blocked_seconds"),
            self.max_blocked_seconds,
        );
        metrics.gauge_set(
            &format!("{prefix}.mean_blocked_seconds"),
            self.mean_blocked_seconds,
        );
        metrics.gauge_set(
            &format!("{prefix}.overlap_fraction"),
            self.overlap_fraction(),
        );
    }
}

type MsgKey = (usize, u64); // (source rank, sequence number)

struct Mailbox {
    slots: Mutex<HashMap<MsgKey, WireBuf>>,
    cv: Condvar,
}

impl Mailbox {
    fn new() -> Self {
        Self {
            slots: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
        }
    }
}

/// Generation-counting barrier state (see [`Fabric::barrier_wait`]).
#[derive(Default)]
struct BarrierState {
    arrived: usize,
    generation: u64,
}

/// Sentinel for "no rank has poisoned the fabric".
const UNPOISONED: usize = usize::MAX;

/// Observer invoked exactly once, with the root-cause rank, when the
/// fabric is first poisoned. This is the flight-recorder tap: it runs
/// on the dying rank's thread *before* the poison notifications wake
/// the other ranks, so a crash dump taken inside the hook captures the
/// fabric at the instant of death. Keep it quick — every peer is
/// blocked until it returns.
pub type PoisonHook = std::sync::Arc<dyn Fn(usize) + Send + Sync>;

/// Shared fabric state.
pub struct Fabric {
    mailboxes: Vec<Mailbox>,
    /// The barrier deliberately uses std's futex-backed primitives, not
    /// parking_lot: parking_lot heap-allocates a per-thread parking node
    /// on a thread's first park, which would break the swap engine's
    /// zero-allocation steady state whenever a rank's first blocking wait
    /// happens to be a barrier.
    barrier: std::sync::Mutex<BarrierState>,
    barrier_cv: std::sync::Condvar,
    counters: Vec<CommCounters>,
    /// Recycled wire buffers, indexed by the rank that *sends* with them.
    /// Receivers return consumed buffers to the original sender's pool, so
    /// a repeating communication pattern finds right-sized buffers waiting.
    pools: Vec<Mutex<Vec<WireBuf>>>,
    /// Rank id of the first rank that failed, or [`UNPOISONED`]. Once
    /// set, every blocking wait (recv, barrier) aborts instead of
    /// waiting for a peer that will never arrive.
    poisoned_by: AtomicUsize,
    /// Scripted failures for fault-injection testing.
    faults: Option<FaultPlan>,
    /// First-poison observer (see [`PoisonHook`]).
    poison_hook: Option<PoisonHook>,
}

impl Fabric {
    fn new(n_ranks: usize, faults: Option<FaultPlan>, poison_hook: Option<PoisonHook>) -> Self {
        Self {
            mailboxes: (0..n_ranks).map(|_| Mailbox::new()).collect(),
            barrier: std::sync::Mutex::new(BarrierState::default()),
            barrier_cv: std::sync::Condvar::new(),
            counters: (0..n_ranks).map(|_| CommCounters::default()).collect(),
            pools: (0..n_ranks).map(|_| Mutex::new(Vec::new())).collect(),
            poisoned_by: AtomicUsize::new(UNPOISONED),
            faults,
            poison_hook,
        }
    }

    fn n_ranks(&self) -> usize {
        self.mailboxes.len()
    }

    /// First rank to have poisoned the fabric, if any.
    fn poisoner(&self) -> Option<usize> {
        match self.poisoned_by.load(Ordering::SeqCst) {
            UNPOISONED => None,
            r => Some(r),
        }
    }

    /// Mark the fabric dead on behalf of `rank` (first writer wins) and
    /// wake every blocked wait so peers abort instead of hanging. The
    /// flag is set *before* the notifications, and waiters re-check it
    /// under the same locks the notifications take, so no wakeup is
    /// lost.
    fn poison(&self, rank: usize) {
        let won = self
            .poisoned_by
            .compare_exchange(UNPOISONED, rank, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        // Only the root-cause poisoner fires the hook, and it fires
        // before the wakeups: the crash record sees the fabric exactly
        // as the first failure left it.
        if won {
            if let Some(hook) = &self.poison_hook {
                hook(rank);
            }
        }
        for mb in &self.mailboxes {
            let _guard = mb.slots.lock();
            mb.cv.notify_all();
        }
        let _guard = self.barrier.lock().unwrap_or_else(|e| e.into_inner());
        self.barrier_cv.notify_all();
    }

    /// Generation barrier that aborts when the fabric is poisoned
    /// (`std::sync::Barrier` cannot be interrupted, which is exactly the
    /// hang this replaces). A waiter whose generation has advanced was
    /// released: it returns `Ok` even if a peer failed right after
    /// passing the barrier.
    fn barrier_wait(&self) -> Result<(), usize> {
        let mut s = self.barrier.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(p) = self.poisoner() {
            return Err(p);
        }
        s.arrived += 1;
        if s.arrived == self.n_ranks() {
            s.arrived = 0;
            s.generation += 1;
            self.barrier_cv.notify_all();
            return Ok(());
        }
        let generation = s.generation;
        while s.generation == generation {
            if let Some(p) = self.poisoner() {
                return Err(p);
            }
            s = self.barrier_cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        Ok(())
    }

    /// Take a buffer of `bytes` from `owner`'s pool (best fit), allocating
    /// or growing (and counting the miss) only when the pool cannot serve.
    fn take_wire(&self, owner: usize, bytes: usize) -> WireBuf {
        let mut pool = self.pools[owner].lock();
        let mut best: Option<usize> = None;
        for (i, b) in pool.iter().enumerate() {
            if b.capacity_bytes() >= bytes
                && best.is_none_or(|j: usize| pool[j].capacity_bytes() > b.capacity_bytes())
            {
                best = Some(i);
            }
        }
        let mut buf = match best.or(if pool.is_empty() { None } else { Some(0) }) {
            Some(i) => pool.swap_remove(i),
            None => WireBuf {
                words: Vec::new(),
                bytes: 0,
            },
        };
        drop(pool);
        if buf.set_byte_len(bytes) {
            self.counters[owner]
                .wire_allocs
                .fetch_add(1, Ordering::Relaxed);
        }
        buf
    }

    fn return_wire(&self, owner: usize, buf: WireBuf) {
        self.pools[owner].lock().push(buf);
    }
}

/// Per-rank handle passed to the rank body.
pub struct RankCtx<'a> {
    rank: usize,
    n_ranks: usize,
    fabric: &'a Fabric,
    /// Next sequence number for messages TO each peer.
    send_seq: Vec<u64>,
    /// Next expected sequence number FROM each peer.
    recv_seq: Vec<u64>,
}

impl<'a> RankCtx<'a> {
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// Synchronize all ranks. Panics (with a poison marker the driver
    /// classifies as [`SimError::FabricPoisoned`]) when a peer has
    /// already failed — the barrier would otherwise wait forever.
    pub fn barrier(&self) {
        let t0 = Instant::now();
        let res = self.fabric.barrier_wait();
        let dt = t0.elapsed().as_nanos() as u64;
        let c = &self.fabric.counters[self.rank];
        c.comm_nanos.fetch_add(dt, Ordering::Relaxed);
        c.blocked_nanos.fetch_add(dt, Ordering::Relaxed);
        if let Err(p) = res {
            panic!("{POISON_MARKER} by rank {p}; barrier aborted");
        }
    }

    /// Execute the scripted fault (if any) for this rank at `swap_index`:
    /// a kill poisons the fabric (unblocking every peer) and returns the
    /// typed error the driver will surface.
    pub fn fault_point(&mut self, swap_index: usize) -> Result<(), SimError> {
        let Some(plan) = &self.fabric.faults else {
            return Ok(());
        };
        match plan.action(self.rank, swap_index) {
            FaultAction::None => Ok(()),
            FaultAction::Kill => {
                self.fabric.poison(self.rank);
                Err(SimError::InjectedFault {
                    rank: self.rank,
                    swap_index,
                })
            }
        }
    }

    /// Send `len` elements to `dst`, letting `fill` pack them directly
    /// into the (pooled) wire buffer — the zero-copy send path: exactly
    /// one write of the payload, no allocation in steady state.
    pub fn send_with<T: Copy>(&mut self, dst: usize, len: usize, fill: impl FnOnce(&mut [T])) {
        assert!(dst < self.n_ranks, "bad destination {dst}");
        assert_ne!(dst, self.rank, "self-sends are plain copies, not messages");
        let t0 = Instant::now();
        let bytes = len * std::mem::size_of::<T>();
        let mut buf = self.fabric.take_wire(self.rank, bytes);
        fill(buf.as_mut_slice::<T>());
        let seq = self.send_seq[dst];
        self.send_seq[dst] += 1;
        {
            let mb = &self.fabric.mailboxes[dst];
            let mut slots = mb.slots.lock();
            slots.insert((self.rank, seq), buf);
            mb.cv.notify_all();
        }
        self.fabric.counters[self.rank]
            .bytes_sent
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.account_time(t0);
    }

    /// Receive the next in-order wire buffer from `src` (blocking); the
    /// buffer is NOT yet recycled — pass it back via `Fabric::return_wire`
    /// after use. Internal building block for the public recv paths.
    fn recv_wire(&mut self, src: usize) -> WireBuf {
        assert!(src < self.n_ranks, "bad source {src}");
        assert_ne!(src, self.rank, "self-receives are plain copies");
        let seq = self.recv_seq[src];
        self.recv_seq[src] += 1;
        let mb = &self.fabric.mailboxes[self.rank];
        let mut blocked = 0u64;
        let mut slots = mb.slots.lock();
        loop {
            if let Some(buf) = slots.remove(&(src, seq)) {
                drop(slots);
                if blocked > 0 {
                    self.fabric.counters[self.rank]
                        .blocked_nanos
                        .fetch_add(blocked, Ordering::Relaxed);
                }
                return buf;
            }
            // A poisoned fabric means the message may never arrive:
            // abort instead of waiting forever on a dead peer.
            if let Some(p) = self.fabric.poisoner() {
                panic!("{POISON_MARKER} by rank {p}; recv from {src} aborted");
            }
            let tb = Instant::now();
            mb.cv.wait(&mut slots);
            blocked += tb.elapsed().as_nanos() as u64;
        }
    }

    /// Receive from `src` and unpack directly out of the wire buffer —
    /// the zero-copy receive path. The buffer returns to `src`'s pool.
    pub fn recv_with<T: Copy, R>(&mut self, src: usize, consume: impl FnOnce(&[T]) -> R) -> R {
        let t0 = Instant::now();
        let buf = self.recv_wire(src);
        let out = consume(buf.as_slice::<T>());
        self.fabric.return_wire(src, buf);
        self.account_time(t0);
        out
    }

    /// Symmetric pairwise exchange: send to and receive from `partner`.
    /// Sends first (mailboxes buffer), so no deadlock.
    pub fn exchange<T: Copy>(&mut self, partner: usize, data: &[T]) -> Vec<T> {
        self.send_with::<T>(partner, data.len(), |wire| wire.copy_from_slice(data));
        self.recv_with::<T, _>(partner, |wire| wire.to_vec())
    }

    /// Stock this rank's wire pool with `count` buffers of `bytes` each,
    /// so a known upcoming communication pattern never allocates — used by
    /// the allocation-freedom test and available to latency-sensitive
    /// callers.
    pub fn prewarm_wire(&mut self, bytes: usize, count: usize) {
        for _ in 0..count {
            let buf = WireBuf::with_byte_len(bytes);
            self.fabric.return_wire(self.rank, buf);
        }
    }

    pub(crate) fn account_time(&self, t0: Instant) {
        self.fabric.counters[self.rank]
            .comm_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// This rank's byte counter (for tests/diagnostics).
    pub fn bytes_sent(&self) -> u64 {
        self.fabric.counters[self.rank]
            .bytes_sent
            .load(Ordering::Relaxed)
    }

    /// Seconds this rank has spent in communication so far.
    pub fn comm_seconds(&self) -> f64 {
        self.fabric.counters[self.rank]
            .comm_nanos
            .load(Ordering::Relaxed) as f64
            / 1e9
    }

    /// Seconds this rank has spent blocked (waiting, not packing) so far.
    pub fn blocked_seconds(&self) -> f64 {
        self.fabric.counters[self.rank]
            .blocked_nanos
            .load(Ordering::Relaxed) as f64
            / 1e9
    }

    /// Wire-buffer allocations charged to this rank so far.
    pub fn wire_allocs(&self) -> u64 {
        self.fabric.counters[self.rank]
            .wire_allocs
            .load(Ordering::Relaxed)
    }
}

/// Marker prefix of the panic a blocked wait raises when the fabric is
/// poisoned; the driver classifies such panics as
/// [`SimError::FabricPoisoned`] (collateral) rather than a root cause.
const POISON_MARKER: &str = "fabric poisoned";

/// Best-effort string form of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Spawn `n_ranks` rank threads running a fallible `body` under an
/// optional [`FaultPlan`] and collect their results plus fabric-wide
/// statistics — the one fallible entry point.
///
/// Failure semantics: the first rank to fail — by returning `Err`, by
/// panicking, or by a scripted kill — poisons the fabric, which wakes
/// every peer blocked in a recv or barrier; those peers abort and are
/// recorded as [`SimError::FabricPoisoned`]. After *all* threads have
/// joined (no detached ranks, no hangs), the root cause is selected:
/// direct errors beat panics, panics beat collateral poisoning; ties go
/// to the lowest rank.
///
/// The [`PoisonHook`] observes the first poisoning: it fires at most
/// once per cluster run, on the thread of the root-cause rank, before
/// any peer is woken — a flight recorder installed here sees the dying
/// rank's final spans and counters.
pub fn try_run_cluster_hooked<T, F>(
    n_ranks: usize,
    faults: Option<FaultPlan>,
    poison_hook: Option<PoisonHook>,
    body: F,
) -> Result<(Vec<T>, FabricStats), SimError>
where
    T: Send,
    F: Fn(&mut RankCtx) -> Result<T, SimError> + Sync,
{
    assert!(
        n_ranks >= 1 && n_ranks.is_power_of_two(),
        "rank count must be 2^g"
    );
    let fabric = Fabric::new(n_ranks, faults, poison_hook);
    let mut results: Vec<Option<Result<T, SimError>>> = (0..n_ranks).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (r, slot) in results.iter_mut().enumerate() {
            let fabric = &fabric;
            let body = &body;
            scope.spawn(move || {
                let mut ctx = RankCtx {
                    rank: r,
                    n_ranks,
                    fabric,
                    send_seq: vec![0; n_ranks],
                    recv_seq: vec![0; n_ranks],
                };
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut ctx)));
                *slot = Some(match outcome {
                    Ok(Ok(v)) => Ok(v),
                    Ok(Err(e)) => {
                        fabric.poison(r);
                        Err(e)
                    }
                    Err(payload) => {
                        fabric.poison(r);
                        let message = panic_message(payload.as_ref());
                        if message.starts_with(POISON_MARKER) {
                            Err(SimError::FabricPoisoned { rank: r })
                        } else {
                            Err(SimError::RankPanicked { rank: r, message })
                        }
                    }
                });
            });
        }
        // The scope joins every rank thread; poisoning guarantees none
        // of them is still blocked on a dead peer.
    });
    let stats = collect_stats(&fabric, n_ranks);
    let mut values = Vec::with_capacity(n_ranks);
    let mut first_error: Option<SimError> = None;
    for res in results {
        match res.expect("rank slot unfilled") {
            Ok(v) => values.push(v),
            Err(e) => {
                let better = first_error
                    .as_ref()
                    .is_none_or(|f| e.severity() < f.severity());
                if better {
                    first_error = Some(e);
                }
            }
        }
    }
    match first_error {
        Some(e) => Err(e),
        None => Ok((values, stats)),
    }
}

/// Spawn `n_ranks` rank threads running `body` and collect their results
/// plus fabric-wide statistics. Infallible wrapper over
/// [`try_run_cluster_hooked`]: any rank failure panics here (on the
/// driver thread, after all ranks have been joined) with the root cause.
pub fn run_cluster<T, F>(n_ranks: usize, body: F) -> (Vec<T>, FabricStats)
where
    T: Send,
    F: Fn(&mut RankCtx) -> T + Sync,
{
    try_run_cluster_hooked(n_ranks, None, None, |ctx| Ok(body(ctx)))
        .unwrap_or_else(|e| panic!("rank thread panicked: {e}"))
}

fn collect_stats(fabric: &Fabric, n_ranks: usize) -> FabricStats {
    let per_rank = |counter: fn(&CommCounters) -> &AtomicU64| {
        let loads = fabric
            .counters
            .iter()
            .map(move |c| counter(c).load(Ordering::Relaxed));
        (loads.clone().sum::<u64>(), loads.max().unwrap_or(0))
    };
    let (total_bytes_sent, _) = per_rank(|c| &c.bytes_sent);
    let (comm_nanos, max_comm_nanos) = per_rank(|c| &c.comm_nanos);
    let (blocked_nanos, max_blocked_nanos) = per_rank(|c| &c.blocked_nanos);
    FabricStats {
        n_ranks,
        total_bytes_sent,
        max_comm_seconds: max_comm_nanos as f64 / 1e9,
        mean_comm_seconds: comm_nanos as f64 / 1e9 / n_ranks as f64,
        max_blocked_seconds: max_blocked_nanos as f64 / 1e9,
        mean_blocked_seconds: blocked_nanos as f64 / 1e9 / n_ranks as f64,
        wire_allocs: per_rank(|c| &c.wire_allocs).0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_util::c64;

    /// One fallible cluster run without a poison hook.
    fn try_run<T: Send>(
        n_ranks: usize,
        faults: Option<FaultPlan>,
        body: impl Fn(&mut RankCtx) -> Result<T, SimError> + Sync,
    ) -> Result<(Vec<T>, FabricStats), SimError> {
        try_run_cluster_hooked(n_ranks, faults, None, body)
    }

    fn send_one(ctx: &mut RankCtx, dst: usize, v: u64) {
        ctx.send_with::<u64>(dst, 1, |wire| wire[0] = v);
    }

    fn recv_one(ctx: &mut RankCtx, src: usize) -> u64 {
        ctx.recv_with::<u64, _>(src, |wire| wire[0])
    }

    #[test]
    fn ring_pass_delivers_in_order() {
        let (results, stats) = run_cluster(4, |ctx| {
            let next = (ctx.rank() + 1) % 4;
            let prev = (ctx.rank() + 3) % 4;
            // Two messages: ordering must hold.
            send_one(ctx, next, ctx.rank() as u64);
            send_one(ctx, next, ctx.rank() as u64 + 100);
            (recv_one(ctx, prev), recv_one(ctx, prev))
        });
        for (r, &(a, b)) in results.iter().enumerate() {
            let prev = (r + 3) % 4;
            assert_eq!(a, prev as u64);
            assert_eq!(b, prev as u64 + 100);
        }
        // 8 messages x 8 bytes.
        assert_eq!(stats.total_bytes_sent, 64);
    }

    #[test]
    fn exchange_is_symmetric() {
        let (results, stats) = run_cluster(2, |ctx| {
            let partner = 1 - ctx.rank();
            let data = vec![c64::new(ctx.rank() as f64, 0.0); 8];
            ctx.exchange(partner, &data)
        });
        assert!(results[0].iter().all(|&a| a == c64::new(1.0, 0.0)));
        assert!(results[1].iter().all(|&a| a == c64::new(0.0, 0.0)));
        // 2 ranks x 8 amps x 16 bytes.
        assert_eq!(stats.total_bytes_sent, 256);
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let phase1 = AtomicUsize::new(0);
        let (results, _) = run_cluster(8, |ctx| {
            phase1.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            // After the barrier every rank must observe all 8 increments.
            phase1.load(Ordering::SeqCst)
        });
        assert!(results.iter().all(|&v| v == 8));
    }

    #[test]
    fn comm_time_is_accounted() {
        let (_, stats) = run_cluster(2, |ctx| {
            if ctx.rank() == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
                ctx.send_with::<u8>(1, 1024, |wire| wire.fill(1));
            } else {
                // Rank 1 blocks waiting ~20ms.
                ctx.recv_with::<u8, _>(0, |wire| assert_eq!(wire.len(), 1024));
            }
            ctx.barrier();
        });
        assert!(
            stats.max_comm_seconds > 0.01,
            "blocked recv must be accounted: {}",
            stats.max_comm_seconds
        );
        assert!(
            stats.max_blocked_seconds > 0.01,
            "the wait must show up as blocked time: {}",
            stats.max_blocked_seconds
        );
        assert_eq!(stats.total_bytes_sent, 1024);
    }

    #[test]
    fn send_with_recv_with_round_trip() {
        let (results, stats) = run_cluster(2, |ctx| {
            let partner = 1 - ctx.rank();
            let base = (ctx.rank() * 100) as u64;
            ctx.send_with::<u64>(partner, 16, |wire| {
                for (i, w) in wire.iter_mut().enumerate() {
                    *w = base + i as u64;
                }
            });
            ctx.recv_with::<u64, _>(partner, |wire| <[u64; 16]>::try_from(wire).unwrap())
        });
        for (r, out) in results.iter().enumerate() {
            let base = ((1 - r) * 100) as u64;
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, base + i as u64);
            }
        }
        assert_eq!(stats.total_bytes_sent, 2 * 16 * 8);
    }

    #[test]
    fn wire_buffers_are_recycled() {
        // A repeating message pattern must stop allocating once warm: the
        // receiver returns each consumed buffer to the sender's pool.
        let (allocs, stats) = run_cluster(2, |ctx| {
            let partner = 1 - ctx.rank();
            for round in 0..20u64 {
                ctx.send_with::<u64>(partner, 64, |wire| wire.fill(round));
                ctx.recv_with::<u64, ()>(partner, |wire| {
                    assert!(wire.iter().all(|&v| v == round));
                });
                ctx.barrier(); // buffer is back in the pool before next round
            }
            ctx.wire_allocs()
        });
        for &a in &allocs {
            assert!(a <= 2, "steady-state sends must reuse buffers: {a} allocs");
        }
        assert_eq!(stats.wire_allocs, allocs.iter().sum::<u64>());
    }

    #[test]
    fn prewarm_eliminates_allocations() {
        let (allocs, _) = run_cluster(2, |ctx| {
            let partner = 1 - ctx.rank();
            ctx.prewarm_wire(64 * 8, 4);
            for round in 0..8u64 {
                ctx.send_with::<u64>(partner, 64, |wire| wire.fill(round));
                ctx.recv_with::<u64, _>(partner, |wire| {
                    assert_eq!(wire.len(), 64);
                    assert!(wire.iter().all(|&v| v == round));
                });
            }
            ctx.wire_allocs()
        });
        assert_eq!(allocs, vec![0, 0], "prewarmed pools must never allocate");
    }

    #[test]
    fn empty_message_round_trips() {
        let (results, stats) = run_cluster(2, |ctx| {
            let partner = 1 - ctx.rank();
            ctx.exchange::<u64>(partner, &[])
        });
        assert!(results.iter().all(|v| v.is_empty()));
        assert_eq!(stats.total_bytes_sent, 0);
    }

    #[test]
    fn overlap_fraction_is_sane() {
        let (_, stats) = run_cluster(2, |ctx| {
            let partner = 1 - ctx.rank();
            ctx.exchange(partner, &[0u8; 4096]);
        });
        let f = stats.overlap_fraction();
        assert!(
            (0.0..=1.0).contains(&f),
            "overlap fraction {f} out of range"
        );
    }

    #[test]
    #[should_panic(expected = "rank count must be 2^g")]
    fn rejects_non_power_of_two() {
        let _ = run_cluster(3, |_| ());
    }

    #[test]
    fn injected_kill_yields_typed_error_and_unblocks_peers() {
        // Rank 2 dies at "swap" 1; every other rank is blocked in a recv
        // it will never satisfy. Without poisoning this hangs forever;
        // with it, the driver returns the injected fault as root cause.
        let plan = FaultPlan::new().kill(2, 1);
        let res = try_run(4, Some(plan), |ctx| {
            for swap in 0..2usize {
                ctx.fault_point(swap)?;
                if ctx.rank() == 2 {
                    for dst in [0, 1, 3] {
                        send_one(ctx, dst, swap as u64);
                    }
                } else {
                    // At swap 1 this message never comes.
                    recv_one(ctx, 2);
                }
            }
            Ok(())
        });
        match res {
            Err(SimError::InjectedFault { rank, swap_index }) => {
                assert_eq!((rank, swap_index), (2, 1));
            }
            other => panic!("expected InjectedFault, got {other:?}"),
        }
    }

    #[test]
    fn panicking_rank_surfaces_as_root_cause_not_collateral() {
        let res = try_run(4, None, |ctx| {
            if ctx.rank() == 3 {
                panic!("deliberate failure in rank body");
            }
            ctx.barrier(); // peers block here until poisoned
            Ok(())
        });
        match res {
            Err(SimError::RankPanicked { rank, message }) => {
                assert_eq!(rank, 3);
                assert!(message.contains("deliberate failure"));
            }
            other => panic!("expected RankPanicked, got {other:?}"),
        }
    }

    #[test]
    fn kill_at_barrier_unblocks_barrier_waiters() {
        let plan = FaultPlan::new().kill(1, 0);
        let res = try_run(8, Some(plan), |ctx| {
            if ctx.rank() == 1 {
                ctx.fault_point(0)?;
            }
            ctx.barrier();
            Ok(())
        });
        assert!(
            matches!(res, Err(SimError::InjectedFault { rank: 1, .. })),
            "got {res:?}"
        );
    }

    #[test]
    fn a_failure_after_the_barrier_does_not_fail_released_waiters() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Every rank passes the barrier, then fails: the first failure
        // poisons the fabric while released waiters may not yet have
        // woken. Each must still leave the barrier normally.
        let passed = AtomicUsize::new(0);
        let res = try_run::<()>(16, None, |ctx| {
            ctx.barrier();
            passed.fetch_add(1, Ordering::SeqCst);
            Err(SimError::InjectedStop { unit: 1 })
        });
        assert!(
            matches!(res, Err(SimError::InjectedStop { unit: 1 })),
            "got {res:?}"
        );
        assert_eq!(passed.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn error_return_propagates_with_rank_attribution() {
        let res = try_run(2, None, |ctx| {
            if ctx.rank() == 0 {
                return Err(SimError::Checkpoint("slice digest mismatch".into()));
            }
            recv_one(ctx, 0); // would hang without poisoning
            Ok(())
        });
        match res {
            Err(SimError::Checkpoint(m)) => assert!(m.contains("digest")),
            other => panic!("expected Checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn poison_hook_fires_once_with_root_cause_rank() {
        use std::sync::Arc;

        // Rank 2 is killed; every peer then dies of collateral poisoning
        // (which also calls `poison`). The hook must still fire exactly
        // once, and with the root-cause rank.
        let calls = Arc::new(AtomicU64::new(0));
        let seen_rank = Arc::new(AtomicUsize::new(usize::MAX));
        let hook: PoisonHook = {
            let calls = Arc::clone(&calls);
            let seen_rank = Arc::clone(&seen_rank);
            Arc::new(move |rank| {
                calls.fetch_add(1, Ordering::SeqCst);
                seen_rank.store(rank, Ordering::SeqCst);
            })
        };
        let plan = FaultPlan::new().kill(2, 0);
        let res = try_run_cluster_hooked::<(), _>(4, Some(plan), Some(hook), |ctx| {
            ctx.fault_point(0)?;
            ctx.barrier(); // peers block here until poisoned
            Ok(())
        });
        assert!(
            matches!(res, Err(SimError::InjectedFault { rank: 2, .. })),
            "got {res:?}"
        );
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "hook must fire exactly once"
        );
        assert_eq!(seen_rank.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn poison_hook_silent_on_clean_run() {
        use std::sync::Arc;
        let calls = Arc::new(AtomicU64::new(0));
        let hook: PoisonHook = {
            let calls = Arc::clone(&calls);
            Arc::new(move |_| {
                calls.fetch_add(1, Ordering::SeqCst);
            })
        };
        let (vals, _) = try_run_cluster_hooked(2, None, Some(hook), |ctx| {
            ctx.barrier();
            Ok(ctx.rank())
        })
        .unwrap();
        assert_eq!(vals, vec![0, 1]);
        assert_eq!(calls.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn single_rank_cluster_works() {
        let (results, stats) = run_cluster(1, |ctx| {
            ctx.barrier();
            ctx.rank()
        });
        assert_eq!(results, vec![0]);
        assert_eq!(stats.total_bytes_sent, 0);
    }
}
