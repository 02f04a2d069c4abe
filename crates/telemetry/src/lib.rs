//! Lock-free runtime metrics for the Spectral Bloom Filter workspace.
//!
//! The workspace's production north star is a long-running service, and a
//! service needs observable internals: insert/remove/estimate rates,
//! counter-saturation events, per-shard occupancy, wire bytes. This crate provides the primitives:
//!
//! * [`Counter`] — a monotonically increasing relaxed `AtomicU64`.
//! * [`Gauge`] — an instantaneous `f64` value (stored as `AtomicU64` bits).
//! * [`Histogram`] — fixed log2 buckets over `u64` observations.
//! * [`Registry`] — named get-or-register storage, snapshots, and a
//!   Prometheus-style text exposition writer ([`Snapshot::to_prometheus`]).
//!
//! Everything is `std`-only: the workspace builds offline.
//!
//! # Zero cost when disabled
//!
//! Instrumented hot paths guard every metric touch with [`enabled`], a
//! single relaxed [`AtomicBool`] load that the branch predictor learns in
//! one iteration. Telemetry is **off by default**; a process that never
//! calls [`set_enabled`]`(true)` pays one predictable never-taken branch
//! per instrumented operation and allocates nothing.
//!
//! ```
//! use sbf_telemetry::Registry;
//!
//! let registry = Registry::new();
//! let inserts = registry.counter("sbf_core_inserts_total");
//! inserts.add(42);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter_value("sbf_core_inserts_total"), Some(42));
//! assert!(snap.to_prometheus().contains("sbf_core_inserts_total 42"));
//! ```

// Library code must surface failures as `Result`/documented panics, never
// ad-hoc `unwrap`/`expect` (ISSUE 4 lint wall); tests keep idiomatic unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expose;
mod metric;
mod registry;
mod sync;

pub use expose::{parse_exposition, ParseError};
pub use metric::{Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{Metric, Registry, Sample, SampleValue, Snapshot};

use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// Whether telemetry collection is globally enabled.
///
/// A single relaxed atomic load — the check instrumented hot paths make
/// before touching any metric. Telemetry starts disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enables or disables telemetry collection.
///
/// Enabling is what the CLI's `sbf stats` / `--metrics` do before running a
/// command; libraries never flip this themselves.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide registry instrumented crates publish into.
///
/// Lazily created on first use; cheap to call repeatedly (one `OnceLock`
/// load after initialization).
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_toggleable() {
        // Note: the flag is process-global; restore it so parallel tests in
        // this crate (which use local registries) are unaffected.
        let was = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(was);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = global() as *const Registry;
        let b = global() as *const Registry;
        assert_eq!(a, b);
    }
}
