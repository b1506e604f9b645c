//! A counting global allocator: live bytes, peak live bytes and
//! allocation calls, for `peak_heap_mib` and the `*.allocs_per_*`
//! metrics.
//!
//! Each thread keeps its own pending delta and publishes it to the
//! shared counters once it passes [`FLUSH_BYTES`] or [`FLUSH_CALLS`], so
//! the server, shard and client threads do not contend on one cache
//! line per allocation. The peak is therefore exact to within
//! `FLUSH_BYTES` per live thread; a thread's own call count is exact at
//! any time through [`calls`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

/// The allocator installed as `#[global_allocator]` in `main.rs`.
pub struct Counting;

// All three are statistics read after the threads that feed them have
// been joined (or on the feeding thread itself): they publish no other
// data, so `Relaxed` is enough.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

const FLUSH_BYTES: i64 = 16 * 1024;
const FLUSH_CALLS: u64 = 4096;

thread_local! {
    /// This thread's unpublished `(bytes, calls)`.
    static PENDING: Cell<(i64, u64)> = const { Cell::new((0, 0)) };
}

fn publish(bytes: i64, calls: u64) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if bytes > 0 {
        PEAK.fetch_max(live, Relaxed);
    }
    CALLS.fetch_add(calls, Relaxed);
}

fn note(bytes: i64, calls: u64) {
    let queued = PENDING.try_with(|p| {
        let (b, c) = p.get();
        let (b, c) = (b + bytes, c + calls);
        if b.abs() >= FLUSH_BYTES || c >= FLUSH_CALLS {
            p.set((0, 0));
            publish(b, c);
        } else {
            p.set((b, c));
        }
    });
    if queued.is_err() {
        publish(bytes, calls);
    }
}

fn take_pending() -> (i64, u64) {
    PENDING.try_with(|p| p.replace((0, 0))).unwrap_or((0, 0))
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the
// bookkeeping around the calls only touches atomics and a const
// thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as i64, 1);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size() as i64, 1);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as i64), 0);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as i64 - layout.size() as i64, 1);
        }
        p
    }
}

/// Publishes this thread's pending delta and restarts the peak at the
/// current live heap, which it returns: the baseline a later
/// [`peak_since`] is measured against.
pub fn reset_peak() -> i64 {
    let (b, c) = take_pending();
    publish(b, c);
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Peak live heap since [`reset_peak`] returned `base`, in bytes.
pub fn peak_since(base: i64) -> i64 {
    let (b, c) = take_pending();
    publish(b, c);
    PEAK.load(Relaxed) - base
}

/// Allocation calls so far: every thread's published calls plus this
/// thread's pending ones, so a difference taken on one thread around
/// single-threaded work is exact.
pub fn calls() -> u64 {
    let pending = PENDING.try_with(|p| p.get().1).unwrap_or(0);
    CALLS.load(Relaxed) + pending
}
