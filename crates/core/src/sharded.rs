//! Hash-partitioned concurrent sketches: per-shard locks instead of one
//! global lock.
//!
//! Minimal Increase and Recurring Minimum inserts are read-modify-write
//! over several counters (MI reads the minimum before raising, RM decides
//! between primary and secondary), so they need mutual exclusion. What
//! *can* be removed is the global lock: [`ShardedSketch`] hash-partitions
//! keys across `S` independent sub-filters, each behind its own `RwLock`,
//! so producers working on different shards never contend. It is the
//! crate's only concurrent sketch and serves every algorithm, Minimum
//! Selection included.
//!
//! Because every occurrence of a key routes to the same shard, each shard
//! is an exact sketch of its own sub-multiset, and §5's distributed union
//! ("SBFs can be united simply by addition of their counter vectors")
//! rebuilds a single filter of the whole stream: [`ShardedSketch::snapshot`]
//! adds the shard counter vectors. Queries don't need the union — they
//! route to the owning shard, touching one lock in read mode.

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::lock_unpoisoned;
use crate::sync::{Arc, Mutex, RwLock};

use sbf_hash::{fmix64, HashFamily, Key};

use crate::metrics;
use crate::mi::MiSbf;
use crate::ms::{BlockedMsSbf, MsSbf};
use crate::num;
use crate::params::{FromParams, SbfParams};
use crate::rm::RmSbf;
use crate::sketch::{BatchRemoveError, MultisetSketch, SketchReader};
use crate::store::{CounterStore, RemoveError};

/// Reusable buffers for partitioning one batch of keys across shards.
///
/// Holding plain indices (not borrowed keys) keeps the struct lifetime-free
/// so one instance can live inside [`ShardedSketch`] and be reused across
/// batches — the steady-state batch path performs **zero** heap
/// allocations once the buffers have grown to the working batch size.
#[derive(Debug, Default)]
struct PartitionScratch {
    /// `shard_ids[i]` = owning shard of `keys[i]`.
    shard_ids: Vec<u32>,
    /// Per-shard offsets into `order` (`counts[s]..counts[s + 1]`).
    counts: Vec<usize>,
    /// Item indices grouped by shard, input order preserved within a shard.
    order: Vec<u32>,
    /// Per-item results in `order` order (query path).
    vals: Vec<u64>,
}

impl PartitionScratch {
    /// Counting-sort partition: fills `order` with `0..len` grouped by
    /// shard (stable within each shard) and `counts` with the group
    /// boundaries. `shard_of` is evaluated once per item.
    fn partition(&mut self, len: usize, num_shards: usize, mut shard_of: impl FnMut(usize) -> u32) {
        self.shard_ids.clear();
        self.shard_ids.reserve(len);
        self.counts.clear();
        self.counts.resize(num_shards + 1, 0);
        for i in 0..len {
            let s = shard_of(i);
            self.shard_ids.push(s);
            self.counts[num::to_usize(s) + 1] += 1;
        }
        for s in 0..num_shards {
            self.counts[s + 1] += self.counts[s];
        }
        self.order.clear();
        self.order.resize(len, 0);
        // `vals` doubles as the scatter cursor here; the query path
        // overwrites it afterwards anyway.
        self.vals.clear();
        self.vals
            .extend(self.counts[..num_shards].iter().map(|&c| num::to_u64(c)));
        for (i, &s) in self.shard_ids.iter().enumerate() {
            let c = &mut self.vals[num::to_usize(s)];
            self.order[num::to_usize(*c)] = num::idx_u32(i);
            *c += 1;
        }
    }

    /// The item indices owned by shard `s`.
    fn picks(&self, s: usize) -> &[u32] {
        &self.order[self.counts[s]..self.counts[s + 1]]
    }
}

/// Sketches that can absorb a disjoint peer by counter addition (§5).
///
/// `absorb` requires both sketches to share parameters and hash functions,
/// and is exact when the two inputs hold disjoint key sets (the sharding
/// invariant); see each implementation for what addition means when keys
/// overlap.
pub trait ShardMerge {
    /// Adds `other`'s counters into `self`.
    fn absorb(&mut self, other: &Self);
}

impl<F: HashFamily + PartialEq, S: CounterStore> ShardMerge for MsSbf<F, S> {
    fn absorb(&mut self, other: &Self) {
        self.union_assign(other);
    }
}

impl<F: HashFamily + PartialEq, S: CounterStore> ShardMerge for MiSbf<F, S> {
    fn absorb(&mut self, other: &Self) {
        self.union_assign(other);
    }
}

impl<F: HashFamily + PartialEq, S: CounterStore> ShardMerge for RmSbf<F, S> {
    fn absorb(&mut self, other: &Self) {
        self.union_assign(other);
    }
}

/// `S` independent sub-filters with per-shard read/write locks.
///
/// All shards must be built with **identical parameters** (`m`, `k`, seed)
/// so their counter vectors are addable per §5; [`ShardedSketch::with_shards`]
/// enforces this by construction. The router hash is independent of the
/// sketches' own hash family, so shard assignment does not bias which
/// counters a key touches.
///
/// ```
/// use spectral_bloom::{MiSbf, MultisetSketch, ShardedSketch};
///
/// let sketch = ShardedSketch::with_shards(8, |_| MiSbf::new(4096, 5, 7));
/// std::thread::scope(|s| {
///     for t in 0..4u64 {
///         let h = &sketch;
///         s.spawn(move || {
///             let keys: Vec<u64> = (0..1000).map(|i| t * 10_000 + i).collect();
///             h.insert_batch(&keys);
///         });
///     }
/// });
/// assert_eq!(sketch.total_count(), 4000);
/// assert!(sketch.estimate(&10_001u64) >= 1);
/// ```
#[derive(Debug)]
pub struct ShardedSketch<SK> {
    shards: Vec<RwLock<SK>>,
    route_seed: u64,
    /// Per-shard mutation counters, bumped inside the shard's write lock
    /// *after* the data write. [`ShardedSketch::snapshot_cached`] reads all
    /// versions before read-locking any shard, so a stale stamp can only
    /// cause a spurious rebuild, never a stale cache hit.
    versions: Vec<AtomicU64>,
    snapshot_cache: Mutex<Option<SnapshotCache<SK>>>,
    /// Reused partition buffers for the batch paths. `try_lock`ed: if
    /// another thread is mid-batch, the loser falls back to a transient
    /// local scratch rather than serialising batches on this mutex.
    scratch: Mutex<PartitionScratch>,
}

/// A cached §5 union plus the per-shard versions it was built from.
#[derive(Debug)]
struct SnapshotCache<SK> {
    versions: Vec<u64>,
    merged: Arc<SK>,
}

impl<SK> ShardedSketch<SK> {
    /// Builds `n` shards from a constructor called with each shard index.
    ///
    /// The constructor must produce sketches with identical parameters
    /// (same `m`, `k`, hash seed) — pass the index only for bookkeeping,
    /// not to vary the filter shape, or [`ShardedSketch::snapshot`] will
    /// refuse to union the shards.
    pub fn with_shards(n: usize, make: impl FnMut(usize) -> SK) -> Self {
        assert!(n > 0, "sharded sketch needs at least one shard");
        Self::from_shards((0..n).map(make).collect())
    }

    /// Wraps pre-built shards (all with identical parameters).
    pub fn from_shards(shards: Vec<SK>) -> Self {
        assert!(
            !shards.is_empty(),
            "sharded sketch needs at least one shard"
        );
        let versions = (0..shards.len()).map(|_| AtomicU64::new(0)).collect();
        ShardedSketch {
            shards: shards.into_iter().map(RwLock::new).collect(),
            // Fixed and family-independent: routing must not correlate with
            // the counter indices the sketches derive from their own seeds.
            route_seed: 0x5ba2_d911_c3b1_70a4,
            versions,
            snapshot_cache: Mutex::new(None),
            scratch: Mutex::new(PartitionScratch::default()),
        }
    }

    /// Builds `n` shards of `SK` sized by `params` — every shard gets
    /// identical `(m, k, seed)`, the invariant [`ShardedSketch::snapshot`]
    /// relies on. Note the per-*shard* size is `params.dimensions()`, so
    /// total space is `n ×` that; size `params` for the per-shard
    /// sub-multiset.
    pub fn from_params(n: usize, params: &SbfParams, seed: u64) -> Self
    where
        SK: FromParams,
    {
        assert!(n > 0, "sharded sketch needs at least one shard");
        Self::with_shards(n, |_| SK::from_params(params, seed))
    }

    /// Number of shards `S`.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Which shard owns `key`.
    #[inline]
    pub fn shard_of<K: Key + ?Sized>(&self, key: &K) -> usize {
        let h = fmix64(key.canonical() ^ self.route_seed);
        // Widening multiply maps uniformly onto {0..S-1} without modulo bias.
        num::mul_shift_range(h, self.shards.len())
    }

    /// Runs `f` with shared read access to shard `i` (bulk queries against
    /// one shard without per-call lock traffic).
    pub fn with_shard_read<R>(&self, i: usize, f: impl FnOnce(&SK) -> R) -> R {
        let guard = lock_unpoisoned(self.shards[i].read());
        f(&guard)
    }
}

/// Sharded blocked variant: combines the per-shard locking of
/// [`ShardedSketch`] with the 1-cache-miss-per-item blocked layout of
/// [`BlockedMsSbf`], so both the routing hash *and* the counter probes stay
/// cache-friendly under concurrency.
pub type BlockedShardedSketch = ShardedSketch<BlockedMsSbf>;

impl BlockedShardedSketch {
    /// Builds `num_shards` identical blocked MS shards, each with
    /// `num_blocks` cache-line-sized blocks of `block_size` counters (see
    /// [`BlockedMsSbf::new_blocked`] for the layout invariants).
    pub fn blocked_ms(
        num_shards: usize,
        block_size: usize,
        num_blocks: usize,
        k: usize,
        seed: u64,
    ) -> Self {
        Self::with_shards(num_shards, |_| {
            BlockedMsSbf::new_blocked(block_size, num_blocks, k, seed)
        })
    }
}

impl<SK: MultisetSketch> ShardedSketch<SK> {
    /// Adds `count` occurrences of `key` (locks the owning shard only).
    pub fn insert_by<K: Key + ?Sized>(&self, key: &K, count: u64) {
        metrics::on(|m| m.sharded_ops.inc());
        let shard = self.shard_of(key);
        let mut guard = lock_unpoisoned(self.shards[shard].write());
        guard.insert_by(key, count);
        self.versions[shard].fetch_add(1, Ordering::Release);
        drop(guard);
    }

    /// Adds one occurrence of `key`.
    pub fn insert<K: Key + ?Sized>(&self, key: &K) {
        self.insert_by(key, 1);
    }

    /// Adds a batch of keys, partitioned once so each shard's lock is taken
    /// once per batch instead of once per key, and applied through the
    /// shard's software-pipelined batch path. Grouping also improves
    /// locality: consecutive inserts touch one shard's counters.
    ///
    /// Relative input order is preserved *within* each shard, and keys in
    /// different shards never share counters, so the final state equals
    /// inserting every key in turn. The partition buffers are reused across
    /// batches: the steady state allocates nothing.
    pub fn insert_batch<K: Key>(&self, keys: &[K]) {
        metrics::on(|m| m.sharded_ops.add(num::to_u64(keys.len())));
        if self.shards.len() == 1 {
            let mut shard = lock_unpoisoned(self.shards[0].write());
            shard.insert_batch(keys);
            // The stamp must be bumped while the write lock is still held:
            // bumping after the unlock lets a snapshotter read the new data
            // under the lock yet pair it with the old stamp, caching a
            // stale-as-fresh snapshot (caught by
            // `stamp_protocol_never_serves_stale_snapshot_as_fresh` in
            // tests/modelcheck_suite.rs).
            self.versions[0].fetch_add(1, Ordering::Release);
            drop(shard);
            return;
        }
        self.with_partitioned(keys, |s, picks| {
            let mut shard = lock_unpoisoned(self.shards[s].write());
            shard.insert_batch_picked(keys, picks);
            // Bump inside the lock — see the single-shard path above.
            self.versions[s].fetch_add(1, Ordering::Release);
            drop(shard);
        });
    }

    /// Partitions `keys` across shards (reusing the shared scratch when
    /// uncontended) and runs `per_shard(s, picks)` for every shard with at
    /// least one key.
    fn with_partitioned<K: Key>(&self, keys: &[K], mut per_shard: impl FnMut(usize, &[u32])) {
        let mut local = PartitionScratch::default();
        let mut guard = self.scratch.try_lock().ok();
        let scratch = match guard.as_mut() {
            Some(g) => &mut **g,
            None => &mut local,
        };
        scratch.partition(keys.len(), self.shards.len(), |i| {
            num::idx_u32(self.shard_of(&keys[i]))
        });
        for s in 0..self.shards.len() {
            let picks = scratch.picks(s);
            if !picks.is_empty() {
                per_shard(s, picks);
            }
        }
    }

    /// Estimates every key, writing `out[i]` for `keys[i]` — results are
    /// exactly per-key [`ShardedSketch::estimate`] calls. The batch is
    /// partitioned once, each owning shard is read-locked once and queried
    /// through its pipelined batch path, and the answers are scattered back
    /// into input order. Steady-state allocation-free (shared scratch +
    /// caller-reused `out`).
    pub fn estimate_batch_into<K: Key>(&self, keys: &[K], out: &mut Vec<u64>) {
        self.read_batch_into(
            keys,
            out,
            |shard, out| shard.estimate_batch_into(keys, out),
            |shard, picks, vals| shard.estimate_batch_picked_into(keys, picks, vals),
        );
    }

    /// The shared read-batch driver: with one shard, `whole(shard, out)`
    /// answers the batch in place; otherwise the batch is partitioned
    /// once, `picked(shard, picks, vals)` appends each owning shard's
    /// answers (under one read lock per shard), and they are scattered
    /// back so `out[i]` answers `keys[i]`.
    fn read_batch_into<K: Key>(
        &self,
        keys: &[K],
        out: &mut Vec<u64>,
        whole: impl FnOnce(&SK, &mut Vec<u64>),
        mut picked: impl FnMut(&SK, &[u32], &mut Vec<u64>),
    ) {
        out.clear();
        if self.shards.len() == 1 {
            let shard = lock_unpoisoned(self.shards[0].read());
            whole(&shard, out);
            return;
        }
        let mut local = PartitionScratch::default();
        let mut guard = self.scratch.try_lock().ok();
        let scratch = match guard.as_mut() {
            Some(g) => &mut **g,
            None => &mut local,
        };
        scratch.partition(keys.len(), self.shards.len(), |i| {
            num::idx_u32(self.shard_of(&keys[i]))
        });
        scratch.vals.clear();
        for s in 0..self.shards.len() {
            let picks = &scratch.order[scratch.counts[s]..scratch.counts[s + 1]];
            if picks.is_empty() {
                continue;
            }
            let shard = lock_unpoisoned(self.shards[s].read());
            picked(&shard, picks, &mut scratch.vals);
        }
        out.resize(keys.len(), 0);
        for (pos, &i) in scratch.order.iter().enumerate() {
            out[num::to_usize(i)] = scratch.vals[pos];
        }
    }

    /// Convenience form of [`ShardedSketch::estimate_batch_into`].
    pub fn estimate_batch<K: Key>(&self, keys: &[K]) -> Vec<u64> {
        let mut out = Vec::new();
        self.estimate_batch_into(keys, &mut out);
        out
    }

    /// Removes one occurrence of every key, in input order, stopping at the
    /// first failure (see [`BatchRemoveError`]).
    ///
    /// Unlike [`ShardedSketch::insert_batch`] this does **not** partition:
    /// the stop-at-first-failure contract promises that exactly the input
    /// prefix before the failing item is applied, and regrouping by shard
    /// would apply a different subset. Removals therefore lock per key.
    pub fn remove_batch<K: Key>(&self, keys: &[K]) -> Result<(), BatchRemoveError> {
        for (index, key) in keys.iter().enumerate() {
            self.remove(key)
                .map_err(|error| BatchRemoveError { index, error })?;
        }
        Ok(())
    }

    /// Removes `count` occurrences of `key` from its owning shard.
    pub fn remove_by<K: Key + ?Sized>(&self, key: &K, count: u64) -> Result<(), RemoveError> {
        metrics::on(|m| m.sharded_ops.inc());
        let shard = self.shard_of(key);
        let mut guard = lock_unpoisoned(self.shards[shard].write());
        let result = guard.remove_by(key, count);
        if result.is_ok() {
            // Bump inside the lock, for the same snapshot-staleness reason
            // as `insert_batch`.
            self.versions[shard].fetch_add(1, Ordering::Release);
        }
        drop(guard);
        result
    }

    /// Removes one occurrence of `key`.
    pub fn remove<K: Key + ?Sized>(&self, key: &K) -> Result<(), RemoveError> {
        self.remove_by(key, 1)
    }

    /// Estimates the multiplicity of `key` (read-locks the owning shard).
    pub fn estimate<K: Key + ?Sized>(&self, key: &K) -> u64 {
        let shard = self.shard_of(key);
        lock_unpoisoned(self.shards[shard].read()).estimate(key)
    }

    /// Membership test: `f̂ > 0`.
    pub fn contains<K: Key + ?Sized>(&self, key: &K) -> bool {
        self.estimate(key) > 0
    }

    /// Spectral threshold test against the owning shard.
    pub fn passes_threshold<K: Key + ?Sized>(&self, key: &K, threshold: u64) -> bool {
        let shard = self.shard_of(key);
        lock_unpoisoned(self.shards[shard].read()).passes_threshold(key, threshold)
    }

    /// Total multiplicity across all shards.
    ///
    /// Shards are read-locked one at a time, so the total is a consistent
    /// sum of per-shard pasts, not an instantaneous global cut — fine for
    /// monitoring, and exact once producers quiesce.
    pub fn total_count(&self) -> u64 {
        self.shard_totals().iter().sum()
    }

    /// Per-shard multiplicity totals (for load-balance inspection).
    pub fn shard_totals(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| lock_unpoisoned(s.read()).total_count())
            .collect()
    }

    /// Total storage across shards.
    pub fn storage_bits(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_unpoisoned(s.read()).storage_bits())
            .sum()
    }

    /// Unions all shards into one sketch by counter addition (§5) — the
    /// bridge back to the single-threaded world (serialization, further
    /// union/multiply, compressed re-encoding).
    ///
    /// This rebuilds the union from scratch on **every call** — `O(m ×
    /// num_shards)` clone-and-add work even when nothing changed since the
    /// last call. Callers that snapshot repeatedly between sparse writes
    /// (monitoring loops, repeated merges) should use
    /// [`ShardedSketch::snapshot_cached`], which reuses the previous union
    /// until some shard mutates.
    pub fn snapshot(&self) -> SK
    where
        SK: ShardMerge + Clone,
    {
        metrics::on(|m| m.snapshot_rebuilds.inc());
        self.union_shards()
    }

    /// Like [`ShardedSketch::snapshot`], but cached: the union is rebuilt
    /// only when a shard has mutated since the previous call, otherwise the
    /// cached `Arc` is cloned in O(1).
    ///
    /// Version stamps are bumped after each shard write completes and read
    /// here *before* the shard data, so a racing writer can at worst leave
    /// a fresh union stamped stale (one spurious rebuild later) — a cache
    /// hit never serves data older than its stamp.
    pub fn snapshot_cached(&self) -> Arc<SK>
    where
        SK: ShardMerge + Clone,
    {
        let stamps: Vec<u64> = self
            .versions
            .iter()
            .map(|v| v.load(Ordering::Acquire))
            .collect();
        let mut cache = lock_unpoisoned(self.snapshot_cache.lock());
        if let Some(c) = cache.as_ref() {
            if c.versions == stamps {
                metrics::on(|m| m.snapshot_cache_hits.inc());
                return Arc::clone(&c.merged);
            }
        }
        metrics::on(|m| m.snapshot_rebuilds.inc());
        let merged = Arc::new(self.union_shards());
        *cache = Some(SnapshotCache {
            versions: stamps,
            merged: Arc::clone(&merged),
        });
        merged
    }

    fn union_shards(&self) -> SK
    where
        SK: ShardMerge + Clone,
    {
        let mut merged = lock_unpoisoned(self.shards[0].read()).clone();
        for shard in &self.shards[1..] {
            let guard = lock_unpoisoned(shard.read());
            merged.absorb(&guard);
        }
        merged
    }

    /// Publishes per-shard load gauges into the global telemetry registry:
    /// `sbf_shard_occupancy_ratio{shard="i"}`,
    /// `sbf_shard_total_count{shard="i"}` and `sbf_shard_ops{shard="i"}`
    /// (the shard's version stamp, i.e. mutation batches applied). No-op
    /// while telemetry is disabled.
    pub fn publish_metrics(&self)
    where
        SK: SketchReader,
    {
        if !sbf_telemetry::enabled() {
            return;
        }
        let reg = sbf_telemetry::global();
        for (i, shard) in self.shards.iter().enumerate() {
            // Read the stamp *before* the data, with Acquire: the pair then
            // reports ops no newer than the occupancy/total it is published
            // with. The old order (data first, stamp after, Relaxed) could
            // attribute ops to a snapshot that does not contain them yet.
            let ops = self.versions[i].load(Ordering::Acquire);
            let (occ, total) = {
                let guard = lock_unpoisoned(shard.read());
                (guard.occupancy(), guard.total_count())
            };
            reg.gauge(&format!("sbf_shard_occupancy_ratio{{shard=\"{i}\"}}"))
                .set(occ);
            reg.gauge(&format!("sbf_shard_total_count{{shard=\"{i}\"}}"))
                .set_u64(total);
            reg.gauge(&format!("sbf_shard_ops{{shard=\"{i}\"}}"))
                .set_u64(ops);
        }
    }
}

/// The folded two-tier read: live shards plus a whole-range `base` filter
/// of the same family, answered in one pass.
///
/// A `base` holds mass for *every* key (a §5 union shipped from elsewhere),
/// so it cannot live in one shard; it is read beside the owning shard
/// instead. Each key is hashed once, and the estimate is `min_k(shard) +
/// min_k(base)` over the shared indices — one-sided, because each minimum
/// bounds its own tier's frequency from above. The minimum of the
/// counter-wise sum, `min_k(shard[c] + base[c])`, costs the same but is
/// never tighter (`min(a + b) ≥ min(a) + min(b)`), and looser whenever the
/// two minima fall on different counters. With an all-zero `base` the
/// answers equal [`ShardedSketch::estimate`]'s.
impl<F: HashFamily + PartialEq, S: CounterStore> ShardedSketch<MsSbf<F, S>> {
    /// The two-tier estimate of one key: the owning shard's minimum plus
    /// `base`'s minimum over the key's `k` counters, hashed once
    /// (read-locks the owning shard).
    ///
    /// # Panics
    ///
    /// If `base` was built with different parameters or hash functions
    /// than the shard (checked once per call).
    pub fn estimate_folded<K: Key + ?Sized, S2: CounterStore>(
        &self,
        key: &K,
        base: &MsSbf<F, S2>,
    ) -> u64 {
        let shard = lock_unpoisoned(self.shards[self.shard_of(key)].read());
        assert_foldable(&shard, base);
        let est = shard
            .core()
            .tiered_min_of_idx(base.core(), &shard.core().family().indexes(key));
        drop(shard);
        metrics::on(|m| {
            m.estimates.inc();
            m.estimate_values.observe(est);
        });
        est
    }

    /// [`ShardedSketch::estimate_folded`] for every key, writing `out[i]`
    /// for `keys[i]`: the partition, per-shard read locks and scatter of
    /// [`ShardedSketch::estimate_batch_into`], with each shard's pipelined
    /// batch reading its own counters and `base`'s in one pass.
    ///
    /// # Panics
    ///
    /// If `base` is incompatible with a shard the batch reads (checked once
    /// per shard lock).
    pub fn estimate_batch_folded_into<K: Key, S2: CounterStore>(
        &self,
        keys: &[K],
        base: &MsSbf<F, S2>,
        out: &mut Vec<u64>,
    ) {
        self.read_batch_into(
            keys,
            out,
            |shard, out| {
                assert_foldable(shard, base);
                shard.core().tiered_min_batch_into(base.core(), keys, out);
            },
            |shard, picks, vals| {
                assert_foldable(shard, base);
                shard
                    .core()
                    .tiered_min_batch_picked_into(base.core(), keys, picks, vals);
            },
        );
        metrics::on(|m| {
            m.estimates.add(num::to_u64(keys.len()));
            for &est in out.iter() {
                m.estimate_values.observe(est);
            }
        });
    }
}

/// The fold's precondition: counter vectors only add index-wise across
/// identical parameters and hash functions (§2.2).
fn assert_foldable<F: HashFamily + PartialEq, S: CounterStore, S2: CounterStore>(
    shard: &MsSbf<F, S>,
    base: &MsSbf<F, S2>,
) {
    assert!(
        shard.core().compatible(base.core()),
        "fold requires identical parameters and hash functions"
    );
}

impl<SK: MultisetSketch> SketchReader for ShardedSketch<SK> {
    fn estimate<K: Key + ?Sized>(&self, key: &K) -> u64 {
        // Inherent resolution picks the instrumented routing methods.
        self.estimate(key)
    }

    fn estimate_batch_into<K: Key>(&self, keys: &[K], out: &mut Vec<u64>) {
        // Route to the partition-once, one-read-lock-per-shard version.
        ShardedSketch::estimate_batch_into(self, keys, out);
    }

    fn total_count(&self) -> u64 {
        self.total_count()
    }

    fn storage_bits(&self) -> usize {
        self.storage_bits()
    }

    fn occupancy(&self) -> f64 {
        let n = self.shards.len();
        self.shards
            .iter()
            .map(|s| lock_unpoisoned(s.read()).occupancy())
            .sum::<f64>()
            / num::to_f64(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_stable_and_in_range() {
        let sketch = ShardedSketch::with_shards(8, |_| MsSbf::new(1024, 4, 1));
        for key in 0u64..1000 {
            let s = sketch.shard_of(&key);
            assert!(s < 8);
            assert_eq!(s, sketch.shard_of(&key), "routing must be deterministic");
        }
        // All shards should receive some keys.
        let mut hit = [false; 8];
        for key in 0u64..1000 {
            hit[sketch.shard_of(&key)] = true;
        }
        assert!(hit.iter().all(|&h| h), "1000 keys must touch all 8 shards");
    }

    #[test]
    fn sharded_ms_matches_unsharded_after_snapshot() {
        let sharded = ShardedSketch::with_shards(4, |_| MsSbf::new(2048, 5, 9));
        let mut flat = MsSbf::new(2048, 5, 9);
        for key in 0u64..400 {
            sharded.insert_by(&key, key % 5 + 1);
            flat.insert_by(&key, key % 5 + 1);
        }
        let merged = sharded.snapshot();
        for key in 0u64..400 {
            assert_eq!(merged.estimate(&key), flat.estimate(&key), "key {key}");
        }
        assert_eq!(merged.total_count(), flat.total_count());
    }

    #[test]
    fn estimates_route_to_owning_shard() {
        let sketch = ShardedSketch::with_shards(4, |_| MiSbf::new(4096, 5, 3));
        for key in 0u64..300 {
            sketch.insert_by(&key, key % 7 + 1);
        }
        for key in 0u64..300 {
            assert!(sketch.estimate(&key) > key % 7, "undercount for {key}");
        }
    }

    #[test]
    fn insert_batch_equals_singles() {
        let batched = ShardedSketch::with_shards(4, |_| MsSbf::new(1024, 4, 5));
        let singles = ShardedSketch::with_shards(4, |_| MsSbf::new(1024, 4, 5));
        let keys: Vec<u64> = (0..500).map(|i| i % 100).collect();
        batched.insert_batch(&keys);
        for key in &keys {
            singles.insert(key);
        }
        for key in 0u64..100 {
            assert_eq!(batched.estimate(&key), singles.estimate(&key));
        }
        assert_eq!(batched.total_count(), 500);
    }

    #[test]
    fn removals_stay_within_shard() {
        let sketch = ShardedSketch::with_shards(4, |_| RmSbf::new(3000, 5, 2));
        for key in 0u64..100 {
            sketch.insert_by(&key, 10);
        }
        for key in 0u64..100 {
            sketch.remove_by(&key, 4).unwrap();
        }
        for key in 0u64..100 {
            assert!(sketch.estimate(&key) >= 6, "false negative for {key}");
        }
        assert_eq!(sketch.total_count(), 600);
    }

    #[test]
    fn snapshot_of_rm_shards_keeps_upper_bound() {
        let sketch = ShardedSketch::with_shards(4, |_| RmSbf::new(6000, 5, 8));
        for key in 0u64..200 {
            sketch.insert_by(&key, key % 9 + 1);
        }
        let merged = sketch.snapshot();
        for key in 0u64..200 {
            assert!(merged.estimate(&key) > key % 9, "undercount for {key}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedSketch::<MsSbf>::from_shards(Vec::new());
    }

    #[test]
    fn snapshot_cached_reuses_union_until_a_shard_mutates() {
        let sketch = ShardedSketch::with_shards(4, |_| MsSbf::new(1024, 4, 6));
        for key in 0u64..200 {
            sketch.insert(&key);
        }
        let first = sketch.snapshot_cached();
        let second = sketch.snapshot_cached();
        assert!(
            Arc::ptr_eq(&first, &second),
            "unchanged shards must hit the cache"
        );
        sketch.insert(&9999u64);
        let third = sketch.snapshot_cached();
        assert!(
            !Arc::ptr_eq(&second, &third),
            "a mutation must invalidate the cache"
        );
        // The cached union answers exactly like a fresh one.
        let fresh = sketch.snapshot();
        for key in 0u64..200 {
            assert_eq!(third.estimate(&key), fresh.estimate(&key), "key {key}");
        }
        assert_eq!(third.total_count(), 201);
    }

    #[test]
    fn snapshot_cached_sees_batch_and_remove_mutations() {
        let sketch = ShardedSketch::with_shards(2, |_| MsSbf::new(512, 4, 3));
        let keys: Vec<u64> = (0..50).collect();
        sketch.insert_batch(&keys);
        let a = sketch.snapshot_cached();
        assert_eq!(a.total_count(), 50);
        sketch.remove(&0u64).unwrap();
        let b = sketch.snapshot_cached();
        assert!(!Arc::ptr_eq(&a, &b), "remove must invalidate the cache");
        assert_eq!(b.total_count(), 49);
        // A refused remove leaves the cache valid.
        assert!(sketch.remove_by(&0u64, 1_000_000).is_err());
        let c = sketch.snapshot_cached();
        assert!(Arc::ptr_eq(&b, &c), "failed remove must not invalidate");
    }

    #[test]
    fn from_params_builds_identical_shards() {
        use crate::params::SbfParams;
        let params = SbfParams::for_capacity(1000).with_target_error(0.01);
        let sketch: ShardedSketch<MsSbf> = ShardedSketch::from_params(4, &params, 11);
        assert_eq!(sketch.num_shards(), 4);
        for key in 0u64..100 {
            sketch.insert_by(&key, 2);
        }
        // Identical shard parameters: snapshot unions without panicking and
        // stays one-sided.
        let merged = sketch.snapshot();
        for key in 0u64..100 {
            assert!(merged.estimate(&key) >= 2);
        }
    }

    #[test]
    fn blocked_sharded_matches_single_blocked_sketch() {
        // Union of blocked shards must equal one blocked sketch fed the same
        // stream: per-key routing keeps each shard exact over its own
        // sub-multiset, and identical (block_size, num_blocks, k, seed) make
        // the counter layouts line up for §5 addition.
        let sharded = BlockedShardedSketch::blocked_ms(4, 128, 64, 4, 9);
        let mut single = BlockedMsSbf::new_blocked(128, 64, 4, 9);
        let keys: Vec<u64> = (0..500).map(|i| i * 31 + 7).collect();
        sharded.insert_batch(&keys);
        for key in &keys {
            single.insert(key);
        }
        let merged = sharded.snapshot();
        for key in &keys {
            assert_eq!(merged.estimate(key), single.estimate(key));
            assert!(sharded.estimate(key) >= 1);
        }
    }

    #[test]
    fn folded_batch_equals_folded_singles_across_lane_boundaries() {
        for shards in [1usize, 4] {
            let live = ShardedSketch::with_shards(shards, |_| MsSbf::new(2048, 5, 4));
            let mut base = MsSbf::new(2048, 5, 4);
            let empty = MsSbf::new(2048, 5, 4);
            for key in 0u64..1500 {
                live.insert_by(&key, key % 3 + 1);
                base.insert_by(&(key * 7), key % 5 + 1);
            }
            // Below, at and beyond one lane group, with a remainder, and a
            // full wire-sized batch; half the keys were never inserted.
            for n in [1usize, 3, 4, 5, 1024] {
                let keys: Vec<u64> = (0..n as u64).map(|i| i * 3).collect();
                let mut batch = Vec::new();
                live.estimate_batch_folded_into(&keys, &base, &mut batch);
                for (key, &est) in keys.iter().zip(&batch) {
                    assert_eq!(est, live.estimate_folded(key, &base), "{shards}x n={n}");
                    assert_eq!(est, live.estimate(key) + base.estimate(key), "{shards}x");
                }
                live.estimate_batch_folded_into(&keys, &empty, &mut batch);
                assert_eq!(batch, live.estimate_batch(&keys), "{shards}x n={n}, empty");
            }
        }
    }

    #[test]
    #[should_panic(expected = "identical parameters")]
    fn fold_rejects_an_incompatible_base() {
        let live = ShardedSketch::with_shards(2, |_| MsSbf::new(512, 4, 1));
        let _ = live.estimate_folded(&1u64, &MsSbf::new(512, 4, 2));
    }

    #[test]
    fn reader_trait_is_object_usable_generically() {
        fn probe<S: SketchReader>(s: &S, key: u64) -> u64 {
            s.estimate(&key)
        }
        let sketch = ShardedSketch::with_shards(2, |_| MsSbf::new(512, 4, 1));
        sketch.insert_by(&5u64, 7);
        assert!(probe(&sketch, 5) >= 7);
        assert!(SketchReader::occupancy(&sketch) > 0.0);
    }
}
