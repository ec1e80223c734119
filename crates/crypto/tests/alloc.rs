//! Heap traffic of the RSA fast paths.
//!
//! The 384-, 512- and 1024-bit keys and their CRT halves run on the
//! fixed-width Montgomery kernel, whose operands live on the stack: signing
//! must allocate exactly once (the returned signature bytes) and
//! verification not at all. A counting global allocator wrapped around the
//! system one measures it per thread, so tests running in parallel do not
//! disturb each other's counts.

// A global allocator is an `unsafe impl`; this one only counts and
// forwards every call to `System` unchanged.
#![allow(unsafe_code)]

use dls_crypto::rsa;
use dls_crypto::sha256;
use rand::rngs::StdRng;
use rand::SeedableRng;
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

#[test]
fn sign_allocates_only_the_signature_and_verify_nothing() {
    for bits in [384usize, 512, 1024] {
        let mut rng = StdRng::seed_from_u64(bits as u64);
        let (pk, sk) = rsa::generate(bits, &mut rng).unwrap();
        for msg in [&b"bid: P3 offers w=2.25"[..], b"", &[0xff; 200]] {
            let digest = sha256::digest(msg);
            let (sig, signing) = allocations(|| sk.sign_digest(&digest));
            assert_eq!(signing, 1, "{bits}-bit sign_digest");
            assert_eq!(sig, sk.sign_digest_naive(&digest));
            let (ok, verifying) = allocations(|| pk.verify_digest(&digest, &sig));
            assert!(ok);
            assert_eq!(verifying, 0, "{bits}-bit verify_digest");
            let mut bad = sig.clone();
            bad.0[0] ^= 1;
            let (ok, verifying) = allocations(|| pk.verify_digest(&digest, &bad));
            assert!(!ok);
            assert_eq!(verifying, 0, "{bits}-bit verify_digest, rejected");
        }
    }
}
