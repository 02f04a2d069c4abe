//! Synchronization facade: the single point where this crate's concurrent
//! code binds to either `std::sync` or the in-workspace model checker.
//!
//! Every atomic, mutex and rwlock the crate uses ([`crate::sharded`],
//! [`crate::metrics`]) is imported from here, never from `std::sync`
//! directly (enforced by the repo's `static_guards` test). Normal builds
//! re-export `std` types with zero overhead; under
//! `RUSTFLAGS='--cfg sbf_modelcheck'` the same paths resolve to
//! `sbf-modelcheck`'s model types, so the exhaustive interleaving tests in
//! `tests/modelcheck_suite.rs` exercise the exact production code.

#[cfg(not(sbf_modelcheck))]
pub use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Atomic integer types, mirroring `std::sync::atomic`.
#[cfg(not(sbf_modelcheck))]
pub mod atomic {
    pub use std::sync::atomic::{AtomicU64, Ordering};
}

#[cfg(sbf_modelcheck)]
pub use sbf_modelcheck::sync::{Arc, Mutex, OnceLock, RwLock};

/// Model atomic integer types (checker build).
#[cfg(sbf_modelcheck)]
pub mod atomic {
    pub use sbf_modelcheck::sync::atomic::{AtomicU64, Ordering};
}

/// Unwraps a lock guard, propagating poisoning as a panic.
///
/// Poisoning means another thread panicked mid-mutation: a shard may hold a
/// half-applied batch, and serving that data would silently break the
/// one-sided `f̂ ≥ f` contract — so readers and writers die loudly instead
/// (the crate-wide `expect_used` lint funnels every lock acquisition
/// through here, where that choice is documented once).
#[allow(clippy::expect_used)]
pub(crate) fn lock_unpoisoned<T>(r: std::sync::LockResult<T>) -> T {
    r.expect("lock poisoned: a thread panicked mid-mutation")
}
