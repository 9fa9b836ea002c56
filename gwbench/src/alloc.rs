//! A counting global allocator: live heap bytes for every thread, and
//! allocator calls for every thread not marked as part of the load
//! generator.
//!
//! Counters are striped over cache-line-padded slots, one per thread
//! (modulo [`SLOTS`]), so the gateway and shard threads do not bounce
//! one shared cache line on every allocation. Totals sum the slots.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, Ordering};

const SLOTS: usize = 16;
/// Set in a thread's tag when it belongs to the load generator.
const EXCLUDED: u32 = 1 << 31;

#[repr(align(64))]
struct Slot {
    live: AtomicI64,
    calls: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Slot = Slot { live: AtomicI64::new(0), calls: AtomicU64::new(0) };
static SLOT_TABLE: [Slot; SLOTS] = [EMPTY; SLOTS];
static NEXT_SLOT: AtomicU32 = AtomicU32::new(0);

thread_local! {
    /// 0 until first use; then `slot + 1`, plus [`EXCLUDED`] for
    /// generator threads. Const-initialised and destructor-free, so
    /// reading it never allocates.
    static TAG: Cell<u32> = const { Cell::new(0) };
}

fn tag() -> u32 {
    TAG.try_with(|tag| {
        let mut value = tag.get();
        if value == 0 {
            value = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS as u32 + 1;
            tag.set(value);
        }
        value
    })
    // Thread-local storage already torn down (thread exit): count on
    // slot 0 as a program thread.
    .unwrap_or(1)
}

fn note(bytes: i64, call: bool) {
    let tag = tag();
    let slot = &SLOT_TABLE[((tag & !EXCLUDED) - 1) as usize];
    slot.live.fetch_add(bytes, Ordering::Relaxed);
    if call && tag & EXCLUDED == 0 {
        slot.calls.fetch_add(1, Ordering::Relaxed);
    }
}

/// Marks the calling thread as a load-generator thread: its allocator
/// calls are no longer counted (its live bytes still are).
pub fn exclude_current_thread() {
    let tag = tag();
    let _ = TAG.try_with(|cell| cell.set(tag | EXCLUDED));
}

/// Bytes currently allocated, all threads.
pub fn live_bytes() -> i64 {
    SLOT_TABLE.iter().map(|s| s.live.load(Ordering::Relaxed)).sum()
}

/// Allocator calls (alloc, realloc, zeroed alloc) made so far by
/// threads not marked with [`exclude_current_thread`].
pub fn program_calls() -> u64 {
    SLOT_TABLE.iter().map(|s| s.calls.load(Ordering::Relaxed)).sum()
}

/// The system allocator with counting on top.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments unchanged, so `System`'s guarantees carry over; the
// bookkeeping only touches atomics and a const thread-local, neither
// of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note(layout.size() as i64, true);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note(layout.size() as i64, true);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as i64), false);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            note(new_size as i64 - layout.size() as i64, true);
        }
        new
    }
}
