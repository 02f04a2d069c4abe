//! Concurrency suite: the invariants the ingest path must keep under real
//! thread interleavings (`std::thread::scope`, no mocked schedulers).
//!
//! The paper's one-sided contract is `f̂_x ≥ f_x`. Concurrently that reads:
//! once an insert has returned, every later estimate of that key must be at
//! least as large as the key's completed-insert count.

use spectral_bloom::{MiSbf, MsSbf, RemoveError, RmSbf, ShardedSketch, SketchReader};

/// Sharded MS never undercounts: with 8 producers hammering overlapping
/// keys, every completed insert is visible in the final estimate, both
/// routed to the owning shard and in the §5 union.
#[test]
fn sharded_ms_never_undercounts() {
    let sbf = ShardedSketch::with_shards(4, |_| MsSbf::new(1 << 15, 5, 21));
    const THREADS: u64 = 8;
    const KEYS: u64 = 500;
    const REPS: u64 = 4;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let sbf = &sbf;
            scope.spawn(move || {
                // Overlapping key ranges: every key is hit by two threads.
                let base = (t / 2) * KEYS;
                for i in 0..KEYS {
                    for _ in 0..REPS {
                        sbf.insert(&(base + i));
                    }
                }
            });
        }
    });
    assert_eq!(sbf.total_count(), THREADS * KEYS * REPS);
    let merged = sbf.snapshot();
    for key in 0..(THREADS / 2) * KEYS {
        assert!(
            sbf.estimate(&key) >= 2 * REPS,
            "undercount for {key}: {} < {}",
            sbf.estimate(&key),
            2 * REPS
        );
        assert!(merged.estimate(&key) >= sbf.estimate(&key));
    }
}

/// The sharded aggregate equals the sum of its parts after a mixed
/// insert/remove workload: no count is lost to or duplicated by routing.
#[test]
fn sharded_total_is_sum_of_shard_totals() {
    let sketch = ShardedSketch::with_shards(8, |_| RmSbf::new(1 << 14, 5, 33));
    const THREADS: u64 = 4;
    const KEYS: u64 = 400;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let sketch = &sketch;
            scope.spawn(move || {
                for i in 0..KEYS {
                    let key = t * 10_000 + i;
                    sketch.insert_by(&key, 3);
                    sketch.remove(&key).expect("just inserted 3");
                }
            });
        }
    });
    let expected = THREADS * KEYS * 2; // 3 in, 1 out per key
    assert_eq!(sketch.total_count(), expected);
    assert_eq!(sketch.shard_totals().iter().sum::<u64>(), expected);
    // Each key's mass lives in exactly one shard; the union by counter
    // addition can only add other shards' collision mass on top, so the
    // merged filter stays one-sided (and is never below the owning shard).
    let merged = sketch.snapshot();
    for t in 0..THREADS {
        for i in 0..KEYS {
            let key = t * 10_000 + i;
            assert!(merged.estimate(&key) >= 2, "undercount for {key}");
        }
    }
    assert_eq!(merged.total_count(), expected);
}

/// A refused removal must not mutate — even while other threads are
/// concurrently writing to the same shard.
#[test]
fn failed_removes_under_contention_leave_counters_unchanged() {
    let sketch = ShardedSketch::with_shards(4, |_| MsSbf::new(1 << 14, 5, 55));
    const RESIDENT: u64 = 200;
    for key in 0..RESIDENT {
        sketch.insert_by(&key, 5);
    }
    std::thread::scope(|scope| {
        // Attackers: over-remove resident keys (must fail: only 5 present)
        // and remove absent keys (must fail: counters are 0 w.h.p.).
        for t in 0..2u64 {
            let sketch = &sketch;
            scope.spawn(move || {
                for key in 0..RESIDENT {
                    let err = sketch.remove_by(&key, 1000).expect_err("only 5 inserted");
                    assert!(matches!(err, RemoveError::Underflow { .. }));
                    // Absent-key removals may accidentally succeed only if
                    // collisions raised every counter — not at this load.
                    let absent = 1_000_000 + t * RESIDENT + key;
                    assert!(
                        sketch.remove(&absent).is_err(),
                        "phantom removal of {absent}"
                    );
                }
            });
        }
        // Meanwhile writers keep inserting disjoint keys into the same shards.
        for t in 0..2u64 {
            let sketch = &sketch;
            scope.spawn(move || {
                for i in 0..RESIDENT {
                    sketch.insert(&(2_000_000 + t * RESIDENT + i));
                }
            });
        }
    });
    // Failed removes contributed nothing; the residents are intact.
    assert_eq!(sketch.total_count(), RESIDENT * 5 + 2 * RESIDENT);
    for key in 0..RESIDENT {
        assert!(sketch.estimate(&key) >= 5, "resident {key} was damaged");
    }
}

/// `ShardedSketch` over MI shards: batch ingest from several threads keeps
/// the one-sided bound and the exact global total.
#[test]
fn sharded_mi_batches_stay_one_sided() {
    let shared = ShardedSketch::with_shards(4, |_| MiSbf::new(1 << 14, 5, 9));
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 2000;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let h = &shared;
            scope.spawn(move || {
                let keys: Vec<u64> = (0..PER_THREAD).map(|i| i % 100).collect();
                h.insert_batch(&keys);
            });
        }
    });
    assert_eq!(shared.total_count(), THREADS * PER_THREAD);
    for key in 0u64..100 {
        assert!(
            shared.estimate(&key) >= THREADS * PER_THREAD / 100,
            "undercount for {key}"
        );
    }
}

/// Snapshots taken while producers are mid-stream are internally consistent
/// prefixes: one-sided for whatever subset of inserts they observed, and
/// never larger than the final filter.
#[test]
fn snapshot_during_ingest_is_a_consistent_prefix() {
    let sbf = ShardedSketch::with_shards(4, |_| MsSbf::new(1 << 14, 5, 13));
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sbf_ref = &sbf;
        let done_ref = &done;
        scope.spawn(move || {
            for i in 0..50_000u64 {
                sbf_ref.insert(&(i % 500));
            }
            done_ref.store(true, std::sync::atomic::Ordering::Release);
        });
        scope.spawn(move || {
            while !done_ref.load(std::sync::atomic::Ordering::Acquire) {
                let snap = sbf_ref.snapshot();
                // A snapshot never exceeds what was ever inserted…
                assert!(snap.total_count() <= 50_000);
                // …and its estimates respect its own total.
                assert!(snap.estimate(&0u64) <= snap.total_count().max(1));
            }
        });
    });
    assert_eq!(sbf.total_count(), 50_000);
}

/// Readers run beside a writer on one shard lock: every read sees at least
/// the count inserted before the threads started, and the final estimate
/// sees every completed insert.
#[test]
fn readers_run_alongside_writers() {
    let sketch = ShardedSketch::from_shards(vec![MsSbf::new(4096, 5, 2)]);
    sketch.insert_by(&7u64, 3);
    std::thread::scope(|scope| {
        let w = &sketch;
        scope.spawn(move || {
            for _ in 0..500 {
                w.insert(&7u64);
            }
        });
        let r = &sketch;
        scope.spawn(move || {
            for _ in 0..500 {
                assert!(r.estimate(&7u64) >= 3);
            }
        });
    });
    assert!(sketch.estimate(&7u64) >= 503);
}

/// Threaded batches through an `Arc`-shared handle, then a §5 snapshot:
/// the union keeps every key's full count.
#[test]
fn threaded_batches_then_snapshot() {
    let shared = std::sync::Arc::new(ShardedSketch::with_shards(4, |_| MiSbf::new(8192, 5, 6)));
    let keys: Vec<u64> = (0..2000).map(|i| i % 250).collect();
    let handles: Vec<_> = keys
        .chunks(500)
        .map(|chunk| {
            let h = std::sync::Arc::clone(&shared);
            let chunk = chunk.to_vec();
            std::thread::spawn(move || h.insert_batch(&chunk))
        })
        .collect();
    for handle in handles {
        handle.join().expect("ingest thread");
    }
    assert_eq!(shared.total_count(), 2000);
    let merged = shared.snapshot();
    for key in 0u64..250 {
        assert!(merged.estimate(&key) >= 8, "undercount for {key}");
    }
}
