//! Hash-function families for Bloom filters and Spectral Bloom Filters.
//!
//! The SBF paper (Cohen & Matias, SIGMOD 2003) uses `k` hash functions
//! `h_1 .. h_k` mapping keys from a universe `U` into counter positions
//! `{0 .. m-1}`. This crate provides:
//!
//! * [`Key`] — a trait turning application keys (integers, strings, byte
//!   slices) into a canonical 64-bit value,
//! * [`HashFamily`] — the abstraction the filter crates program against,
//! * [`MultiplyFamily`] — the paper's "modulo/multiply" family
//!   `H(v) = ⌈m·(αv mod 1)⌉` realized in 64-bit fixed point,
//! * [`MixFamily`] — a SplitMix64-based family with much better diffusion
//!   (the recommended default),
//! * [`DoubleHashFamily`] — Kirsch–Mitzenmacher double hashing, deriving all
//!   `k` indices from two base hashes,
//! * [`TabulationFamily`] — simple tabulation (3-independent with
//!   Chernoff-grade concentration), the provable-guarantees option,
//! * [`BlockedFamily`] — the external-memory scheme of Manber & Wu
//!   (§2.2 "External memory SBF"): a first-level hash picks a block, the
//!   `k` functions hash within that block, confining each lookup to one
//!   block of storage.
//!
//! All families are deterministic given their seed, so filters built with
//! equal parameters can be united or multiplied counter-wise as the paper
//! requires for distributed processing.

// Library code must surface failures as `Result`/documented panics, never
// ad-hoc `unwrap`/`expect` (ISSUE 4 lint wall); tests keep idiomatic unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// `deny` rather than `forbid`: the `prefetch` and `dispatch` modules
// narrowly re-allow unsafe for the architecture intrinsics and system call
// they wrap (a faultless cache hint; the `madvise` huge-page hint;
// runtime-feature-gated SIMD kernels with documented safety arguments);
// everything else in the crate remains statically unsafe-free, and
// downstream crates (`spectral-bloom` among them) keep their own
// `#![forbid(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod blocked;
pub mod dispatch;
pub mod family;
pub mod key;
pub mod mix;
pub mod prefetch;
pub mod quality;
pub(crate) mod sync;
pub mod tabulation;

pub use blocked::BlockedFamily;
pub use dispatch::{set_simd_level, simd_level, SimdLevel, LANES};
pub use family::{DoubleHashFamily, HashFamily, MixFamily, MultiplyFamily};
pub use key::Key;
pub use mix::{fmix64, splitmix64, SplitMix64};
pub use prefetch::{
    advise_huge_pages, prefetch_read, prefetch_slice, prefetch_slice_write, prefetch_write,
};
pub use quality::{collision_rate, stride_correlation, uniformity, UniformityReport};
pub use tabulation::TabulationFamily;

/// Maximum number of hash functions supported without heap allocation.
///
/// The paper's experiments use `k ≤ 10`; 16 leaves generous headroom while
/// letting callers keep index buffers on the stack.
pub const MAX_K: usize = 16;

/// A fixed-capacity buffer of counter indices produced by a [`HashFamily`].
///
/// Using a stack buffer keeps per-operation allocations at zero, which
/// matters because every insert/lookup of the SBF computes `k` indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexBuf {
    buf: [usize; MAX_K],
    len: usize,
}

impl IndexBuf {
    /// An empty buffer.
    #[inline]
    pub const fn new() -> Self {
        IndexBuf {
            buf: [0; MAX_K],
            len: 0,
        }
    }

    /// Pushes an index. Panics if the buffer is full (`k > MAX_K`).
    #[inline]
    pub fn push(&mut self, idx: usize) {
        assert!(self.len < MAX_K, "more than MAX_K hash functions requested");
        self.buf[self.len] = idx;
        self.len += 1;
    }

    /// Number of indices stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no indices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The indices as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[usize] {
        &self.buf[..self.len]
    }

    /// Overwrites the buffer in place: sets the length to `k` and hands
    /// the writer `f` the `k` slots to fill.
    ///
    /// This is the allocation- and copy-free way to refill a long-lived
    /// buffer (the batch pipelines keep a ring of these and refill one
    /// slot per item): building a fresh `IndexBuf` on the stack and
    /// assigning it would copy the full `MAX_K`-sized struct — two cache
    /// lines — per item, where this touches only the `k` slots actually
    /// used.
    #[inline]
    pub fn fill(&mut self, k: usize, f: impl FnOnce(&mut [usize])) {
        assert!(k <= MAX_K, "more than MAX_K hash functions requested");
        self.len = k;
        f(&mut self.buf[..k]);
    }

    /// Sorts the indices and removes duplicates in place.
    ///
    /// Two hash functions of a family can collide on the same counter
    /// (`h_i(x) = h_j(x)`, `i ≠ j`). The paper's §3.1 model increments each
    /// *distinct* counter of a key once per occurrence, so the filter cores
    /// canonicalise every per-key index set through this method before
    /// touching counters — otherwise a single insert would bump the shared
    /// counter twice and inflate `min`-based estimates. Insertion sort: `k`
    /// is at most [`MAX_K`], where it beats the general-purpose sorts.
    #[inline]
    pub fn sort_dedup(&mut self) {
        for i in 1..self.len {
            let v = self.buf[i];
            let mut j = i;
            while j > 0 && self.buf[j - 1] > v {
                self.buf[j] = self.buf[j - 1];
                j -= 1;
            }
            self.buf[j] = v;
        }
        let mut w = 0;
        for r in 0..self.len {
            if w == 0 || self.buf[r] != self.buf[w - 1] {
                self.buf[w] = self.buf[r];
                w += 1;
            }
        }
        self.len = w;
    }
}

impl Default for IndexBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for IndexBuf {
    type Target = [usize];

    #[inline]
    fn deref(&self) -> &[usize] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a IndexBuf {
    type Item = usize;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, usize>>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_buf_push_and_read() {
        let mut b = IndexBuf::new();
        assert!(b.is_empty());
        b.push(3);
        b.push(7);
        assert_eq!(b.len(), 2);
        assert_eq!(b.as_slice(), &[3, 7]);
        assert_eq!((&b).into_iter().collect::<Vec<_>>(), vec![3, 7]);
    }

    #[test]
    fn sort_dedup_orders_and_uniquifies() {
        let mut b = IndexBuf::new();
        for i in [9usize, 3, 9, 1, 3, 7, 1] {
            b.push(i);
        }
        b.sort_dedup();
        assert_eq!(b.as_slice(), &[1, 3, 7, 9]);
        // Idempotent, and harmless on the boundary cases.
        b.sort_dedup();
        assert_eq!(b.as_slice(), &[1, 3, 7, 9]);
        let mut empty = IndexBuf::new();
        empty.sort_dedup();
        assert!(empty.is_empty());
        let mut one = IndexBuf::new();
        one.push(5);
        one.sort_dedup();
        assert_eq!(one.as_slice(), &[5]);
    }

    #[test]
    #[should_panic(expected = "MAX_K")]
    fn index_buf_overflow_panics() {
        let mut b = IndexBuf::new();
        for i in 0..=MAX_K {
            b.push(i);
        }
    }
}
