//! Memory hints for the SBF hot path: software prefetch and huge pages.
//!
//! At production filter sizes (`m` counters ≫ L2) every insert or estimate
//! is `k` scattered counter accesses, and the hot path is bound by cache
//! misses, not hashing. The batch engines in `spectral-bloom` hide that
//! latency by software pipelining: while item `i` is applied, item `i+D`'s
//! counter indices are hashed and their cache lines requested here, so the
//! lines are (usually) resident by the time the pipeline reaches them.
//!
//! This module is the single place in the workspace that touches an
//! architecture intrinsic. `_mm_prefetch` is a pure scheduling hint: it
//! cannot fault, cannot trap, and has no observable effect other than cache
//! state, for *any* pointer value — which is why the wrappers below are
//! sound to expose as safe functions. On architectures without a stable
//! prefetch intrinsic the functions compile to nothing and the pipeline
//! degrades gracefully to hash-ahead batching.
//!
//! [`advise_huge_pages`] is the page-level version of the same idea: it
//! asks the kernel to back a large counter array with 2 MiB transparent
//! huge pages, so the array's scattered accesses stay within TLB reach.
//! Like a prefetch it is advice only: it changes no value, and the kernel
//! may ignore it.

// The crate is `deny(unsafe_code)`; the intrinsic and system calls are
// confined to this module so every other line of the hash crate stays
// statically unsafe-free.
#![allow(unsafe_code)]

/// Hints the CPU to pull the cache line containing `p` into all cache
/// levels with read intent.
///
/// A no-op on architectures without a stable prefetch intrinsic. Safe for
/// any pointer value, including dangling or unaligned ones: prefetch
/// instructions are architecturally defined not to fault.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 is a hint instruction; it performs no memory
    // access that can fault and has no architectural side effects beyond
    // cache state, regardless of the address (Intel SDM vol. 2B).
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        // Portable fallback: rely on the hardware prefetcher.
        let _ = p;
    }
}

/// Hints the CPU to pull the cache line containing `p` into cache in
/// **exclusive** state, anticipating a store.
///
/// A plain-read hint leaves the line shared, so a following store still
/// pays the read-for-ownership upgrade; `PREFETCHW`-class hints request
/// ownership up front, which is what the batched *insert* pipeline wants
/// (its accesses are counter increments, i.e. stores). Same soundness
/// argument as [`prefetch_read`]: a pure hint, valid for any address.
#[inline(always)]
pub fn prefetch_write<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHW/PREFETCHET0 is a hint instruction; it performs no
    // memory access that can fault and has no architectural side effects
    // beyond cache state, regardless of the address (Intel SDM vol. 2B).
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_ET0};
        _mm_prefetch::<_MM_HINT_ET0>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = p;
    }
}

/// Prefetches element `i` of `slice` (bounds-checked; out-of-range indices
/// are ignored, keeping the hint harmless on any input).
#[inline(always)]
pub fn prefetch_slice<T>(slice: &[T], i: usize) {
    if i < slice.len() {
        prefetch_read(slice.as_ptr().wrapping_add(i));
    }
}

/// Write-intent form of [`prefetch_slice`].
#[inline(always)]
pub fn prefetch_slice_write<T>(slice: &[T], i: usize) {
    if i < slice.len() {
        prefetch_write(slice.as_ptr().wrapping_add(i));
    }
}

/// Size of an x86-64 / aarch64 (4 KiB base page) transparent huge page.
const HUGE_PAGE_BYTES: usize = 2 << 20;

#[cfg(target_os = "linux")]
extern "C" {
    fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
}

/// `MADV_HUGEPAGE` from `<asm-generic/mman-common.h>`.
#[cfg(target_os = "linux")]
const MADV_HUGEPAGE: i32 = 14;

/// Asks the kernel to back `slice` with transparent huge pages.
///
/// Call it right after allocating a large array and before touching it:
/// pages the array has not faulted yet then fault in 2 MiB at a time. The
/// advice covers only the part of the slice that is aligned to whole huge
/// pages, so it never reaches memory outside the slice. It is a no-op off
/// Linux and for slices under 2 MiB. The result of `madvise` is ignored,
/// as a prefetch's would be: a host with THP set to `never` simply keeps
/// 4 KiB pages.
pub fn advise_huge_pages<T>(slice: &[T]) {
    let start = slice.as_ptr() as usize;
    let end = start + std::mem::size_of_val(slice);
    let lo = start.next_multiple_of(HUGE_PAGE_BYTES);
    let hi = end & !(HUGE_PAGE_BYTES - 1);
    if lo >= hi {
        return;
    }
    #[cfg(target_os = "linux")]
    // SAFETY: `lo..hi` lies inside memory the slice borrows, and `lo` is
    // page aligned. MADV_HUGEPAGE only sets a flag on the mapping: it never
    // changes, frees or unmaps the memory, so every value in the slice (and
    // outside it) is unchanged whether the call succeeds or fails.
    unsafe {
        madvise(lo as *mut std::ffi::c_void, hi - lo, MADV_HUGEPAGE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advising_huge_pages_changes_no_value() {
        advise_huge_pages::<u64>(&[]);
        let small: Vec<u64> = (0..1000).collect();
        advise_huge_pages(&small);
        assert!(small.iter().copied().eq(0..1000));
        let big: Vec<u64> = (0..(16 << 20) / 8).collect();
        advise_huge_pages(&big[3..big.len() - 5]);
        advise_huge_pages(&big);
        assert!(big.iter().copied().eq(0..(16 << 20) / 8));
    }

    #[test]
    fn prefetch_is_harmless_everywhere() {
        // In-bounds, out-of-bounds, empty, and raw-pointer forms must all
        // be no-ops as far as program semantics go.
        let data = vec![1u64, 2, 3];
        prefetch_slice(&data, 0);
        prefetch_slice(&data, 2);
        prefetch_slice(&data, 999);
        prefetch_slice::<u64>(&[], 0);
        prefetch_read(std::ptr::null::<u64>());
        prefetch_read(data.as_ptr());
        assert_eq!(data, [1, 2, 3]);
    }
}
