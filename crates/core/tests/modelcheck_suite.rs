//! Exhaustive interleaving tests for the crate's concurrency protocols,
//! run under the in-workspace model checker.
//!
//! This suite only compiles with `RUSTFLAGS='--cfg sbf_modelcheck'` (the
//! CI `modelcheck` job): the crate's `sync` facade then binds every
//! atomic, mutex and rwlock to `sbf-modelcheck`'s model types, so the
//! code explored here is the exact production code, not a transliterated
//! model of it.
//!
//! Each test pins one protocol from DESIGN.md's memory-ordering audit:
//!
//! 1. the `ShardedSketch` snapshot version-stamp hand-off never serves a
//!    stale cached snapshot as fresh, and `publish_metrics` never pairs a
//!    stamp with older data (save-during-ingest);
//! 2. shard union under concurrent insert keeps the one-sided bound
//!    f̂ ≥ f for keys fully inserted beforehand;
//! 3. the telemetry enable gate is coherent and counter increments are
//!    never lost.
//!
//! Closures must be deterministic (the replay trail is positional), so
//! the test bodies avoid anything schedule-dependent outside the model
//! types. Test parameters are tiny on purpose: exploration is
//! exponential in the number of atomic events.

#![cfg(sbf_modelcheck)]

use std::sync::Arc;

use sbf_modelcheck::{thread, Checker};
use spectral_bloom::{MsSbf, ShardedSketch, SketchReader};

/// The snapshot version-stamp protocol, save-during-ingest shape: a
/// snapshot the cache serves as *fresh* must contain every mutation that
/// is already visible through the shard locks. The seeded form of this
/// bug (stamp bumped after the shard lock was dropped) let the
/// snapshotter observe the new data via `estimate`, then match the old
/// stamp and serve a stale cached union as current.
#[test]
fn stamp_protocol_never_serves_stale_snapshot_as_fresh() {
    let report = Checker::new().max_preemptions(2).check(|| {
        let sketch = Arc::new(ShardedSketch::with_shards(1, |_| MsSbf::new(8, 1, 7)));
        // Prime the cache at stamp 0 so a stale hit is possible at all.
        let primed = sketch.snapshot_cached();
        assert_eq!(primed.estimate(&1u64), 0);
        let w = Arc::clone(&sketch);
        let writer = thread::spawn(move || w.insert(&1u64));
        // If the insert is already visible through the shard lock, the
        // bumped stamp must be too — so the cached (empty) union may not
        // be served again.
        let direct = sketch.estimate(&1u64);
        let snap = sketch.snapshot_cached();
        assert!(
            snap.estimate(&1u64) >= direct,
            "stale snapshot served as fresh: snapshot={} direct={}",
            snap.estimate(&1u64),
            direct
        );
        writer.join().unwrap();
        // After the join edge everything is visible: a fresh snapshot
        // must contain the insert.
        assert_eq!(sketch.snapshot_cached().estimate(&1u64), 1);
    });
    assert!(report.complete, "state space must be exhausted");
}

/// The save path (`publish_metrics`) during ingest: the published
/// `sbf_shard_ops` stamp may never be newer than the occupancy/total it is
/// paired with. Each insert bumps the stamp by exactly 1 inside the shard
/// lock and adds 1 to `total_count`, so coherence here means `ops ≤ total`
/// in every interleaving. The pre-fix read order (data first, then the
/// stamp at `Relaxed`) fails this: the writer's bump lands between the two
/// reads and the saved pair attributes an op to data that does not contain
/// it.
#[test]
fn publish_metrics_during_ingest_never_overstates_ops() {
    let report = Checker::new().max_preemptions(2).check(|| {
        sbf_telemetry::set_enabled(true);
        let sketch = Arc::new(ShardedSketch::with_shards(1, |_| MsSbf::new(8, 1, 7)));
        let w = Arc::clone(&sketch);
        let writer = thread::spawn(move || w.insert(&1u64));
        sketch.publish_metrics();
        let reg = sbf_telemetry::global();
        let ops = reg.gauge("sbf_shard_ops{shard=\"0\"}").get();
        let total = reg.gauge("sbf_shard_total_count{shard=\"0\"}").get();
        assert!(
            ops <= total,
            "saved stamp ({ops}) is newer than the data it was published with (total {total})"
        );
        writer.join().unwrap();
        sbf_telemetry::set_enabled(false);
    });
    assert!(report.complete, "state space must be exhausted");
}

/// Shard union under concurrent insert keeps f̂ ≥ f one-sided for keys
/// fully inserted before the union began.
#[test]
fn union_under_concurrent_insert_stays_one_sided() {
    let report = Checker::new().max_preemptions(2).check(|| {
        let sketch = Arc::new(ShardedSketch::with_shards(2, |_| MsSbf::new(8, 1, 7)));
        sketch.insert_by(&1u64, 2);
        let w = Arc::clone(&sketch);
        let writer = thread::spawn(move || w.insert(&2u64));
        // The union may or may not include the in-flight key 2, but the
        // fully-inserted key 1 must never be undercounted.
        let snap = sketch.snapshot();
        assert!(
            snap.estimate(&1u64) >= 2,
            "union undercounted a fully-inserted key: {}",
            snap.estimate(&1u64)
        );
        writer.join().unwrap();
        assert!(sketch.estimate(&2u64) >= 1);
    });
    assert!(report.complete, "state space must be exhausted");
}

/// The telemetry enable gate: a reader sees a coherent `bool` in every
/// interleaving, the join edge forces visibility of the final state, and
/// concurrent counter increments are never lost. The closure leaves the
/// gate disabled so later explorations start from the quiet state.
#[test]
fn telemetry_gate_is_coherent_and_counters_lose_nothing() {
    let report = Checker::new().max_preemptions(2).check(|| {
        let counter = Arc::new(sbf_telemetry::Counter::new());
        let c1 = Arc::clone(&counter);
        let t1 = thread::spawn(move || {
            sbf_telemetry::set_enabled(true);
            c1.inc();
        });
        // Concurrent read: any coherent answer is fine; the load must not
        // tear, deadlock, or panic.
        let _mid = sbf_telemetry::enabled();
        counter.add(2);
        t1.join().unwrap();
        assert!(
            sbf_telemetry::enabled(),
            "join edge must force gate visibility"
        );
        assert_eq!(counter.get(), 3, "counter increment lost");
        sbf_telemetry::set_enabled(false);
    });
    assert!(report.complete, "state space must be exhausted");
}
