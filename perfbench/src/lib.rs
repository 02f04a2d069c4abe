//! End-to-end `sbfd` benchmark with a traced per-layer waterfall.
//!
//! `run.sh` builds the shipped `sbf` binary and this crate, then runs one
//! workload (see [`workload`]). An untraced run measures what a user of
//! `sbf serve` sees; a traced run times each layer's public entry points
//! in-process on the same keys and geometry. `LAYERS.md` maps each
//! per-layer metric to the end-to-end metric and workload it should move.

pub mod daemon;
pub mod e2e;
pub mod layers;
pub mod report;
pub mod trace;
pub mod traffic;
pub mod workload;
