//! Heap traffic of the multi-load re-quote path.
//!
//! A bid revision on a warm [`MultiLoadEngine`] splices each load's cached
//! chain, and a payment query reads the allocation and payment kernel
//! through buffers the engine and the caller keep. Once those buffers have
//! grown to the market's size, a re-quote — `submit_bid`, then
//! `payments_into` on every load — must not allocate. A counting global
//! allocator wrapped around the system one measures it per thread, so
//! tests running in parallel do not disturb each other's counts.

// A global allocator is an `unsafe impl`; this one only counts and
// forwards every call to `System` unchanged.
#![allow(unsafe_code)]

use dls_dlt::{LoadSpec, ALL_MODELS};
use dls_mechanism::{MultiLoadEngine, Payment};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` with the caller's arguments;
// the counter is a const-initialized thread-local `Cell`, which neither
// allocates nor panics when accessed with `try_with`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get().wrapping_add(1)));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get().wrapping_add(1)));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get().wrapping_add(1)));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the number of allocations it made
/// on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// One re-quote: a bid revision, then every load's payment vector.
fn requote(
    engine: &mut MultiLoadEngine,
    (i, bid): (usize, f64),
    observed: &[f64],
    out: &mut [Vec<Payment>],
) {
    engine.submit_bid(i, bid).unwrap();
    for (l, payments) in out.iter_mut().enumerate() {
        engine.payments_into(l, observed, payments).unwrap();
    }
}

#[test]
fn warm_requotes_allocate_nothing() {
    let loads = [
        LoadSpec::new(1.0, 0.0625),
        LoadSpec::new(2.5, 0.125),
        LoadSpec::new(0.5, 0.25),
    ];
    let bids: Vec<f64> = (0..16).map(|i| 1.0 + (i % 5) as f64 * 0.25).collect();
    // Every third processor runs slower than it bid.
    let observed: Vec<f64> = bids
        .iter()
        .enumerate()
        .map(|(i, &b)| if i % 3 == 1 { b + 0.5 } else { b })
        .collect();
    for model in ALL_MODELS {
        let mut engine = MultiLoadEngine::new(model, &bids, &loads).unwrap();
        let mut out: Vec<Vec<Payment>> = vec![Vec::new(); loads.len()];
        // Warm-up: every buffer grows to the market's size once.
        requote(&mut engine, (5, 1.5), &observed, &mut out);
        // Head, middle and tail slots (the NCP-NFE originator included).
        for update in [(0, 2.0), (7, 1.125), (15, 3.0), (14, 0.75), (0, 1.0)] {
            let ((), n) = allocations(|| requote(&mut engine, update, &observed, &mut out));
            assert_eq!(n, 0, "{model}: re-quote {update:?} allocated");
        }
    }
}
