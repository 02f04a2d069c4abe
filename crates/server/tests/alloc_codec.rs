//! Allocation guard for the request codec on the batched hot path: a
//! 1024-key INSERT_BATCH or ESTIMATE_BATCH is decoded by borrowing every
//! key from the frame body, and encoded straight from the caller's keys.
//! Neither direction may allocate per key — at most one allocation per
//! frame (the decoded slice list, or the borrowed key list).
//!
//! This file is its own integration-test binary because it installs a
//! counting `#[global_allocator]`; it holds a single `#[test]` so no other
//! test's allocations can race the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use sbf_server::{Request, RequestRef};

/// Wraps the system allocator, counting every allocation (and
/// reallocation — a growing output buffer must show up too).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System` (which upholds the `GlobalAlloc`
// contract); the only addition is a relaxed counter bump with no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Returns the fewest allocations observed across a few runs of `f`.
///
/// The counter is process-global, and the libtest harness's main thread
/// can allocate while it waits on the test thread, so a single
/// measurement can be polluted by scheduling. The closure's own
/// allocation count is deterministic, so the minimum over a few attempts
/// is exactly that count.
fn allocs_during(mut f: impl FnMut()) -> u64 {
    (0..5)
        .map(|_| {
            let before = ALLOCS.load(Ordering::Relaxed);
            f();
            ALLOCS.load(Ordering::Relaxed) - before
        })
        .min()
        .unwrap_or(0)
}

#[test]
fn batch_frames_decode_and_encode_without_per_key_allocation() {
    // 16-byte keys, as the benchmark's ingest workload sends them.
    let keys: Vec<Vec<u8>> = (0..1024u64)
        .map(|i| {
            let mut k = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_le_bytes().to_vec();
            k.extend_from_slice(&i.to_le_bytes());
            k
        })
        .collect();

    for owned in [
        Request::InsertBatch { keys: keys.clone() },
        Request::EstimateBatch { keys: keys.clone() },
    ] {
        let frame = owned.encode().expect("encode");
        let (opcode, body) = (frame[4], &frame[5..]);

        // Decode: the key slice list is the only allocation.
        let n = allocs_during(|| {
            black_box(RequestRef::decode(opcode, black_box(body)).expect("decode"));
        });
        assert!(
            n <= 1,
            "decoding a 1024-key {} allocated {n} times",
            owned.op_name()
        );

        // Encode from a `&[Vec<u8>]`: borrowing the keys (`as_ref`) is
        // the only allocation when the frame lands in a reused buffer.
        let mut wire = Vec::with_capacity(frame.len());
        let n = allocs_during(|| {
            wire.clear();
            owned.as_ref().encode_into(&mut wire).expect("encode");
        });
        assert!(
            n <= 1,
            "encoding a 1024-key {} allocated {n} times",
            owned.op_name()
        );
        assert_eq!(wire, frame, "borrowed and owned encodings differ");

        // A fresh frame buffer is sized up front: one allocation, no
        // regrowth.
        let req = owned.as_ref();
        let n = allocs_during(|| {
            black_box(req.encode().expect("encode"));
        });
        assert!(
            n <= 1,
            "encoding a 1024-key {} into a new buffer allocated {n} times",
            owned.op_name()
        );
    }
}
