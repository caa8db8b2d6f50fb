//! Cache-line / vector-register aligned amplitude storage.
//!
//! State vectors are the only large allocation in the simulator (2^n
//! amplitudes), and the SIMD kernels want 64-byte alignment so that packed
//! loads of `(re, im)` pairs never split a cache line. `Vec<T>` only
//! guarantees the alignment of `T`, so [`AlignedVec`] allocates with an
//! explicit 64-byte-aligned layout.
//!
//! The paper initializes the state NUMA-aware via OpenMP first touch
//! (§3.3): the threads that will sweep a page are the ones that fault it
//! in. [`AlignedVec::from_fn_with`] is that constructor — uninitialised
//! memory, every element written exactly once, in page-multiple chunks
//! handed to a caller-supplied executor (the rayon pool the kernels run
//! on). Zeroing first and filling afterwards would take every page fault
//! on the allocating thread and write the state twice.

use core::ops::{Deref, DerefMut};
use core::sync::atomic::{AtomicBool, Ordering};
use std::alloc::{alloc, alloc_zeroed, dealloc, handle_alloc_error, Layout};

/// Alignment in bytes: one cache line, also sufficient for AVX-512.
pub const ALIGN: usize = 64;

/// A fixed-capacity, 64-byte-aligned vector.
///
/// Unlike `Vec`, the length is fixed at construction: state vectors never
/// grow. Dereferences to a slice for all element access.
pub struct AlignedVec<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: AlignedVec owns its allocation exclusively; T: Send/Sync bounds
// are propagated exactly like Vec<T>.
unsafe impl<T: Send> Send for AlignedVec<T> {}
unsafe impl<T: Sync> Sync for AlignedVec<T> {}

/// The base pointer of an allocation being filled, shared with the
/// executor's threads.
struct SendPtr<T>(*mut T);
// SAFETY: the only use is `from_fn_with`'s fill closure, which writes
// disjoint element ranges from each thread (one claimed chunk each) and
// moves `T` values across threads only by `init`'s return.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// By method, so that a closure captures the wrapper and not the raw
    /// pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

impl<T: Copy + Default> AlignedVec<T> {
    /// Allocate `len` zero-initialized elements (all-zero bit pattern).
    ///
    /// `T` must be valid for the all-zeros bit pattern; this is true for all
    /// amplitude types in this workspace (`Complex<f32/f64>`, scalars).
    pub fn new_zeroed(len: usize) -> Self {
        Self::allocate(len, alloc_zeroed)
    }

    /// `len` elements from `alloc_fn` (`alloc`: uninitialised, for the
    /// constructors that go on to write every element; `alloc_zeroed`).
    fn allocate(len: usize, alloc_fn: unsafe fn(Layout) -> *mut u8) -> Self {
        assert!(len > 0, "AlignedVec must be non-empty");
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size (len > 0, size_of::<T>() > 0
        // asserted in layout()).
        let ptr = unsafe { alloc_fn(layout) } as *mut T;
        if ptr.is_null() {
            handle_alloc_error(layout);
        }
        Self { ptr, len }
    }

    /// Allocate `len` elements and write element `i` as `init(i)`, each
    /// exactly once, without zeroing first. The elements are cut into
    /// [`AlignedVec::<T>::FILL_CHUNK`]-element chunks (whole pages) and
    /// `par_for(chunks, &fill)` must call `fill(c)` once for every
    /// `c < chunks`, on whatever threads it likes: the thread that fills a
    /// chunk takes its page faults, so the caller and the pool's parked
    /// workers, which later sweep the vector, make the first touch (§3.3).
    ///
    /// # Panics
    /// If `par_for` fills a chunk twice or leaves one unfilled.
    pub fn from_fn_with<F, I>(len: usize, par_for: F, init: I) -> Self
    where
        T: Send,
        F: FnOnce(usize, &(dyn Fn(usize) + Sync)),
        I: Fn(usize) -> T + Sync,
    {
        // Owns the allocation from here on (freed if `init` unwinds).
        // Nothing reads an element before the check below has seen every
        // chunk filled; `T: Copy` has no drop glue to run on the rest.
        let v = Self::allocate(len, alloc);
        let filled: Vec<AtomicBool> = (0..len.div_ceil(Self::FILL_CHUNK))
            .map(|_| AtomicBool::new(false))
            .collect();
        let base = SendPtr(v.ptr);
        let fill = |c: usize| {
            // A chunk claimed twice would be two writers to one range.
            assert!(
                !filled[c].swap(true, Ordering::Relaxed),
                "chunk {c} filled twice"
            );
            let start = c * Self::FILL_CHUNK;
            for i in start..(start + Self::FILL_CHUNK).min(len) {
                // SAFETY: i < len, inside the allocation; the claim above
                // makes this call the only writer of chunk c.
                unsafe { base.get().add(i).write(init(i)) };
            }
        };
        par_for(filled.len(), &fill);
        // Relaxed suffices: `par_for` returning orders its workers' writes
        // before this read (a pool joins, a sequential loop is this thread).
        assert!(
            filled.iter().all(|f| f.load(Ordering::Relaxed)),
            "executor left a chunk unfilled"
        );
        v
    }

    /// [`AlignedVec::from_fn_with`] on the calling thread.
    pub fn from_fn(len: usize, init: impl Fn(usize) -> T + Sync) -> Self
    where
        T: Send,
    {
        Self::from_fn_with(len, |chunks, fill| (0..chunks).for_each(fill), init)
    }

    /// Elements per chunk of [`AlignedVec::from_fn_with`]: 64 KiB, sixteen
    /// pages — small enough that a pool balances a state of a few MiB,
    /// large enough that a chunk's faults dwarf its dispatch.
    pub const FILL_CHUNK: usize = {
        let size = core::mem::size_of::<T>();
        assert!(size > 0, "zero-sized T unsupported");
        if size >= 1 << 16 {
            1
        } else {
            (1 << 16) / size
        }
    };

    /// Build from an existing slice (copies).
    pub fn from_slice(src: &[T]) -> Self {
        let v = Self::allocate(src.len(), alloc);
        // SAFETY: both ranges are `src.len()` elements, and a fresh
        // allocation cannot overlap `src`.
        unsafe { core::ptr::copy_nonoverlapping(src.as_ptr(), v.ptr, src.len()) };
        v
    }

    fn layout(len: usize) -> Layout {
        let size = core::mem::size_of::<T>();
        assert!(size > 0, "zero-sized T unsupported");
        Layout::from_size_align(size.checked_mul(len).expect("allocation overflow"), ALIGN)
            .expect("invalid layout")
    }
}

impl<T> AlignedVec<T> {
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: ptr is valid for len elements for the lifetime of self.
        unsafe { core::slice::from_raw_parts(self.ptr, self.len) }
    }

    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: exclusive access through &mut self.
        unsafe { core::slice::from_raw_parts_mut(self.ptr, self.len) }
    }

    #[inline(always)]
    pub fn as_ptr(&self) -> *const T {
        self.ptr
    }

    #[inline(always)]
    pub fn as_mut_ptr(&mut self) -> *mut T {
        self.ptr
    }
}

impl<T> Drop for AlignedVec<T> {
    fn drop(&mut self) {
        let size = core::mem::size_of::<T>() * self.len;
        if size > 0 {
            let layout = Layout::from_size_align(size, ALIGN).unwrap();
            // SAFETY: allocated with the identical layout in new_zeroed.
            unsafe { dealloc(self.ptr as *mut u8, layout) };
        }
    }
}

impl<T> Deref for AlignedVec<T> {
    type Target = [T];
    #[inline(always)]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> DerefMut for AlignedVec<T> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default> Clone for AlignedVec<T> {
    fn clone(&self) -> Self {
        Self::from_slice(self.as_slice())
    }
}

impl<T: core::fmt::Debug> core::fmt::Debug for AlignedVec<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_list().entries(self.as_slice().iter()).finish()
    }
}

/// The first `n` elements of a reused scratch buffer, grown to exactly
/// `n` the first time it needs that many. What a buffer held before is
/// left in place: callers overwrite what they read.
pub fn grown<T: Copy + Default>(buf: &mut Vec<T>, n: usize) -> &mut [T] {
    if buf.len() < n {
        buf.reserve_exact(n - buf.len());
        buf.resize(n, T::default());
    }
    &mut buf[..n]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    #[test]
    fn allocation_is_aligned_and_zeroed() {
        let v: AlignedVec<c64> = AlignedVec::new_zeroed(1 << 10);
        assert_eq!(v.as_ptr() as usize % ALIGN, 0);
        assert!(v.iter().all(|&a| a == c64::zero()));
        assert_eq!(v.len(), 1024);
        assert!(!v.is_empty());
    }

    #[test]
    fn mutation_through_deref() {
        let mut v: AlignedVec<f64> = AlignedVec::new_zeroed(8);
        v[3] = 2.5;
        assert_eq!(v.as_slice(), &[0.0, 0.0, 0.0, 2.5, 0.0, 0.0, 0.0, 0.0]);
        v.iter_mut().for_each(|x| *x += 1.0);
        assert_eq!(v[3], 3.5);
        assert_eq!(v[0], 1.0);
    }

    #[test]
    fn from_slice_and_clone() {
        let v = AlignedVec::from_slice(&[1u64, 2, 3]);
        let w = v.clone();
        assert_eq!(v.as_slice(), w.as_slice());
        assert_ne!(v.as_ptr(), w.as_ptr());
    }

    #[test]
    fn from_fn_writes_every_element_across_chunk_seams() {
        // Lengths on, one short of and one past a chunk boundary, under a
        // sequential executor, one that runs the chunks backwards, and
        // scoped threads taking alternate chunks.
        const CHUNK: usize = AlignedVec::<u64>::FILL_CHUNK;
        assert_eq!(CHUNK * 8, 1 << 16);
        for len in [
            1,
            7,
            CHUNK - 1,
            CHUNK,
            CHUNK + 1,
            3 * CHUNK - 1,
            3 * CHUNK,
            3 * CHUNK + 1,
        ] {
            let want: Vec<u64> = (0..len as u64).map(|i| i * i + 1).collect();
            let init = |i: usize| (i * i + 1) as u64;
            let forward = AlignedVec::from_fn(len, init);
            let backward =
                AlignedVec::from_fn_with(len, |n, fill| (0..n).rev().for_each(fill), init);
            let threaded = AlignedVec::from_fn_with(
                len,
                |n, fill| {
                    std::thread::scope(|s| {
                        for t in 0..2 {
                            s.spawn(move || (t..n).step_by(2).for_each(fill));
                        }
                    })
                },
                init,
            );
            for v in [&forward, &backward, &threaded] {
                assert_eq!(v.as_slice(), &want[..], "len {len}");
                assert_eq!(v.as_ptr() as usize % ALIGN, 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "left a chunk unfilled")]
    fn executor_that_skips_a_chunk_is_caught() {
        let len = 2 * AlignedVec::<u64>::FILL_CHUNK;
        let _ = AlignedVec::from_fn_with(len, |_, fill| fill(0), |i| i as u64);
    }

    #[test]
    #[should_panic(expected = "filled twice")]
    fn executor_that_repeats_a_chunk_is_caught() {
        let _ = AlignedVec::from_fn_with(8, |_, fill| (fill(0), fill(0)).0, |i| i as u64);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_length_rejected() {
        let _ = AlignedVec::<f64>::new_zeroed(0);
    }
}
