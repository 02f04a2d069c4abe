//! Ad-hoc iceberg queries (§5.2).
//!
//! Classic iceberg machinery (\[FSGM+98\], \[EV02\]) requires the threshold
//! before the data is scanned. An SBF holds the full spectrum, so the
//! threshold can arrive *at query time* — lower it and re-ask without
//! rescanning the data. Two modes:
//!
//! * [`ad_hoc_iceberg`] — one pass over the candidate keys against an
//!   already-built sketch; the output is a superset of the true result
//!   (false positives only, per Claim 1), with recall 1.
//! * [`multiscan_iceberg`] — the paper's MULTISCAN-SHARED-flavoured variant:
//!   several scans through progressively smaller *lossy* SBF stages, each
//!   stage only counting items that passed all earlier stages. Needs the
//!   threshold up front (the trade-off §5.2 discusses) but uses a fraction
//!   of the memory.

use sbf_hash::Key;
use std::collections::HashSet;

use crate::ms::MsSbf;
use crate::num;
use crate::sketch::{MultisetSketch, SketchReader};

/// Scans `candidates` against a built sketch and returns the distinct keys
/// whose estimated multiplicity reaches `threshold`.
///
/// Guarantees: every key with true frequency `≥ threshold` is returned
/// (no false negatives, for one-sided sketches); keys below threshold may
/// appear with probability bounded by the iceberg error analysis of §5.2 —
/// strictly *below* the raw Bloom error, since an error must also be large
/// enough to cross the threshold.
///
/// Bounded on [`SketchReader`], so the scan runs equally over the
/// single-threaded sketches and the concurrent [`crate::ShardedSketch`]
/// without snapshotting first.
pub fn ad_hoc_iceberg<SK, K, I>(sketch: &SK, candidates: I, threshold: u64) -> Vec<u64>
where
    SK: SketchReader,
    K: Key,
    I: IntoIterator<Item = K>,
{
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for key in candidates {
        let canon = key.canonical();
        if seen.insert(canon) && sketch.passes_threshold(&key, threshold) {
            out.push(canon);
        }
    }
    out
}

/// Stage sizing for [`multiscan_iceberg`].
#[derive(Debug, Clone)]
pub struct MultiscanConfig {
    /// `(m, k)` of each progressive stage, largest first. Stages are meant
    /// to be *lossy* (m far below the distinct count), as in §5.2's "around
    /// 1% of n" remark.
    pub stages: Vec<(usize, usize)>,
    /// Hash seed.
    pub seed: u64,
}

impl MultiscanConfig {
    /// A default two-stage configuration scaled to `n` distinct keys:
    /// stage sizes 10% and 5% of `n` (lossy by design).
    pub fn lossy_for(n: usize, seed: u64) -> Self {
        MultiscanConfig {
            stages: vec![((n / 10).max(8), 3), ((n / 20).max(8), 3)],
            seed,
        }
    }
}

/// Multi-scan progressive filtering: pass `i + 1` counts only items whose
/// counters in every earlier stage reached `threshold`. Returns candidate
/// keys surviving all stages (a superset of the true heavy hitters).
///
/// The data is scanned `stages.len()` times plus one reporting pass, like
/// the paper's MULTISCAN-SHARED; total memory is the sum of the stage
/// sizes, typically a small fraction of one full SBF.
pub fn multiscan_iceberg(data: &[u64], threshold: u64, config: &MultiscanConfig) -> Vec<u64> {
    assert!(!config.stages.is_empty(), "need at least one stage");
    let mut stages: Vec<MsSbf> = config
        .stages
        .iter()
        .enumerate()
        .map(|(i, &(m, k))| MsSbf::new(m, k, config.seed ^ num::to_u64(i) << 32))
        .collect();

    for (si, _) in config.stages.iter().enumerate() {
        for &x in data {
            let passed_earlier = stages[..si]
                .iter()
                .all(|s| s.passes_threshold(&x, threshold));
            if passed_earlier {
                stages[si].insert(&x);
            }
        }
    }

    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for &x in data {
        if seen.insert(x) && stages.iter().all(|s| s.passes_threshold(&x, threshold)) {
            out.push(x);
        }
    }
    out
}

/// Adaptive multiscan (§5.2's on-the-fly refinement): "we can calculate
/// the average count over the buckets of the current SBF, and if it
/// exceeds the threshold we know that the filtering will be very weak,
/// and therefore we might want to enlarge the next filter".
///
/// Starting from `initial_m`, each subsequent stage doubles when the
/// previous stage's mean counter value reached the threshold (weak
/// filtering ahead) and halves when it fell below a tenth of it (the
/// filter is already selective). Returns the surviving candidates and the
/// `(m, mean_count)` trace of the stages actually built.
pub fn adaptive_multiscan_iceberg(
    data: &[u64],
    threshold: u64,
    initial_m: usize,
    k: usize,
    seed: u64,
    max_stages: usize,
) -> (Vec<u64>, Vec<(usize, f64)>) {
    assert!(max_stages >= 1, "need at least one stage");
    assert!(initial_m >= 8, "initial stage too small");
    let mut stages: Vec<MsSbf> = Vec::new();
    let mut trace = Vec::new();
    let mut next_m = initial_m;
    for si in 0..max_stages {
        let mut stage = MsSbf::new(next_m, k, seed ^ num::to_u64(si) << 32);
        for &x in data {
            let passed = stages.iter().all(|s| s.passes_threshold(&x, threshold));
            if passed {
                stage.insert(&x);
            }
        }
        // Mean counter value = inserted mass × k / m.
        let mean = num::to_f64(stage.total_count()) * num::to_f64(k) / num::to_f64(next_m);
        trace.push((next_m, mean));
        stages.push(stage);
        if mean >= num::to_f64(threshold) {
            next_m = next_m.saturating_mul(2);
        } else if mean < num::to_f64(threshold) / 10.0 {
            next_m = (next_m / 2).max(8);
        }
    }
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for &x in data {
        if seen.insert(x) && stages.iter().all(|s| s.passes_threshold(&x, threshold)) {
            out.push(x);
        }
    }
    (out, trace)
}

/// Streaming iceberg monitor (§5.2's "triggers" scenario): flags each key
/// the moment its estimated multiplicity crosses the threshold, while the
/// stream flows. One-sided like the underlying sketch — everything truly
/// heavy is flagged; a small false-positive fraction may join it.
#[derive(Debug, Clone)]
pub struct StreamingIceberg<SK: MultisetSketch> {
    sketch: SK,
    threshold: u64,
    flagged: HashSet<u64>,
}

impl<SK: MultisetSketch> StreamingIceberg<SK> {
    /// Wraps a sketch with a crossing threshold.
    pub fn new(sketch: SK, threshold: u64) -> Self {
        assert!(threshold >= 1, "threshold must be at least 1");
        StreamingIceberg {
            sketch,
            threshold,
            flagged: HashSet::new(),
        }
    }

    /// Ingests one occurrence; returns `true` exactly when this occurrence
    /// pushed the key's estimate across the threshold for the first time.
    pub fn offer<K: Key + ?Sized>(&mut self, key: &K) -> bool {
        self.sketch.insert(key);
        let canon = key.canonical();
        if self.flagged.contains(&canon) {
            return false;
        }
        if self.sketch.passes_threshold(key, self.threshold) {
            self.flagged.insert(canon);
            return true;
        }
        false
    }

    /// Re-arms with a new threshold (the sketch keeps the full spectrum, so
    /// lowering the threshold requires no rescan — keys already over the
    /// new bar are flagged immediately on their next occurrence).
    pub fn set_threshold(&mut self, threshold: u64) {
        assert!(threshold >= 1);
        self.threshold = threshold;
        self.flagged.retain(|_| false);
    }

    /// Keys flagged so far (canonical form).
    pub fn flagged(&self) -> impl Iterator<Item = u64> + '_ {
        self.flagged.iter().copied()
    }

    /// The wrapped sketch.
    pub fn sketch(&self) -> &SK {
        &self.sketch
    }
}

/// A top-k heavy-hitter tracker over an SBF (the hot-list usage of §1.1.2:
/// "identify popular search queries").
///
/// Keeps a candidate set of `k` keys with the highest sketch estimates.
/// Because the sketch is one-sided and candidates are re-estimated on
/// every touch, every key whose true frequency exceeds the `k`-th largest
/// estimate is guaranteed to be in the candidate set once seen.
#[derive(Debug, Clone)]
pub struct TopKTracker<SK: MultisetSketch> {
    sketch: SK,
    capacity: usize,
    candidates: std::collections::HashMap<u64, u64>,
}

impl<SK: MultisetSketch> TopKTracker<SK> {
    /// Tracks the `capacity` hottest keys through `sketch`.
    pub fn new(sketch: SK, capacity: usize) -> Self {
        assert!(capacity >= 1, "need room for at least one candidate");
        TopKTracker {
            sketch,
            capacity,
            candidates: std::collections::HashMap::new(),
        }
    }

    /// Ingests one occurrence of `key`.
    pub fn offer<K: Key + ?Sized>(&mut self, key: &K) {
        self.sketch.insert(key);
        let canon = key.canonical();
        let est = self.sketch.estimate(key);
        if let Some(e) = self.candidates.get_mut(&canon) {
            *e = est;
            return;
        }
        if self.candidates.len() < self.capacity {
            self.candidates.insert(canon, est);
            return;
        }
        // Evict the weakest candidate if this key now beats it.
        let (&weakest, &weakest_est) = self
            .candidates
            .iter()
            .min_by_key(|&(_, &e)| e)
            .unwrap_or_else(|| unreachable!("capacity >= 1"));
        if est > weakest_est {
            self.candidates.remove(&weakest);
            self.candidates.insert(canon, est);
        }
    }

    /// The current top keys, hottest first, as `(canonical key, estimate)`.
    pub fn top(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.candidates.iter().map(|(&k, &e)| (k, e)).collect();
        v.sort_by_key(|&(key, est)| (std::cmp::Reverse(est), key));
        v
    }

    /// The wrapped sketch.
    pub fn sketch(&self) -> &SK {
        &self.sketch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ms::MsSbf;
    use std::collections::HashMap;

    /// A stream with a few heavy keys above `t` and many light ones.
    fn heavy_tail_stream() -> (Vec<u64>, HashMap<u64, u64>) {
        let mut data = Vec::new();
        for key in 0u64..20 {
            for _ in 0..100 {
                data.push(key); // heavy: f = 100
            }
        }
        for key in 100u64..2000 {
            data.push(key); // light: f = 1
        }
        let mut truth = HashMap::new();
        for &x in &data {
            *truth.entry(x).or_insert(0u64) += 1;
        }
        (data, truth)
    }

    #[test]
    fn ad_hoc_iceberg_has_full_recall() {
        let (data, truth) = heavy_tail_stream();
        let mut sbf = MsSbf::new(16_384, 5, 1);
        for &x in &data {
            sbf.insert(&x);
        }
        let result = ad_hoc_iceberg(&sbf, data.iter().copied(), 50);
        let result_set: HashSet<u64> = result.iter().copied().collect();
        for (&key, &f) in &truth {
            if f >= 50 {
                assert!(result_set.contains(&key), "missed heavy key {key}");
            }
        }
    }

    #[test]
    fn threshold_can_change_without_rebuilding() {
        // The paper's selling point: same sketch, new threshold, no rescan
        // of raw data needed to rebuild a structure.
        let (data, truth) = heavy_tail_stream();
        let mut sbf = MsSbf::new(16_384, 5, 2);
        for &x in &data {
            sbf.insert(&x);
        }
        let at_100 = ad_hoc_iceberg(&sbf, data.iter().copied(), 100);
        let at_2 = ad_hoc_iceberg(&sbf, data.iter().copied(), 2);
        assert!(at_100.len() < at_2.len());
        assert!(at_100.len() >= truth.values().filter(|&&f| f >= 100).count());
    }

    #[test]
    fn false_positive_fraction_is_small() {
        let (data, truth) = heavy_tail_stream();
        let mut sbf = MsSbf::new(16_384, 5, 3);
        for &x in &data {
            sbf.insert(&x);
        }
        let result = ad_hoc_iceberg(&sbf, data.iter().copied(), 50);
        let fp = result.iter().filter(|k| truth[k] < 50).count();
        assert!(
            fp * 20 <= result.len().max(20),
            "{fp} false positives in {}",
            result.len()
        );
    }

    #[test]
    fn multiscan_keeps_recall_with_tiny_stages() {
        let (data, truth) = heavy_tail_stream();
        let config = MultiscanConfig {
            stages: vec![(256, 3), (128, 3)],
            seed: 4,
        };
        let result = multiscan_iceberg(&data, 50, &config);
        let result_set: HashSet<u64> = result.iter().copied().collect();
        for (&key, &f) in &truth {
            if f >= 50 {
                assert!(
                    result_set.contains(&key),
                    "multiscan missed heavy key {key}"
                );
            }
        }
        // Lossy stages admit false positives, but should still filter out
        // the vast majority of the 1900 light keys.
        assert!(
            result.len() < 500,
            "result barely filtered: {}",
            result.len()
        );
    }

    #[test]
    fn streaming_iceberg_flags_on_crossing() {
        let mut mon = StreamingIceberg::new(MsSbf::new(4096, 5, 7), 3);
        assert!(!mon.offer(&"x"));
        assert!(!mon.offer(&"x"));
        assert!(mon.offer(&"x"), "third occurrence crosses T = 3");
        assert!(!mon.offer(&"x"), "flagged only once");
        assert_eq!(mon.flagged().count(), 1);
    }

    #[test]
    fn streaming_iceberg_full_recall_on_heavy_stream() {
        let (data, truth) = heavy_tail_stream();
        let mut mon = StreamingIceberg::new(MsSbf::new(16_384, 5, 8), 50);
        for &x in &data {
            mon.offer(&x);
        }
        let flagged: HashSet<u64> = mon.flagged().collect();
        for (&key, &f) in &truth {
            if f >= 50 {
                assert!(flagged.contains(&key), "missed heavy key {key}");
            }
        }
    }

    #[test]
    fn top_k_finds_the_hot_keys() {
        let mut tracker = TopKTracker::new(crate::MiSbf::new(8192, 5, 9), 5);
        // Keys 0..5 hot (200 each), 100..1100 cold (1 each), interleaved.
        for round in 0..200u64 {
            for hot in 0u64..5 {
                tracker.offer(&hot);
            }
            for cold in 0..5u64 {
                tracker.offer(&(100 + round * 5 + cold));
            }
        }
        let top: Vec<u64> = tracker.top().iter().map(|&(k, _)| k).collect();
        for hot in 0u64..5 {
            assert!(top.contains(&hot), "hot key {hot} missing from {top:?}");
        }
        // Estimates are one-sided and near-exact at this load.
        for &(_, est) in &tracker.top() {
            assert!(est >= 200);
        }
    }

    #[test]
    fn top_k_capacity_is_respected() {
        let mut tracker = TopKTracker::new(MsSbf::new(1024, 4, 10), 3);
        for key in 0u64..50 {
            tracker.offer(&key);
        }
        assert!(tracker.top().len() <= 3);
    }

    #[test]
    fn adaptive_multiscan_keeps_recall_and_adapts() {
        let (data, truth) = heavy_tail_stream();
        let (out, trace) = adaptive_multiscan_iceberg(&data, 50, 64, 3, 7, 3);
        let out_set: HashSet<u64> = out.iter().copied().collect();
        for (&key, &f) in &truth {
            if f >= 50 {
                assert!(out_set.contains(&key), "adaptive multiscan missed {key}");
            }
        }
        assert_eq!(trace.len(), 3);
        // Stage 0 is overloaded (mean count ≥ T) on this stream, so the
        // scheme must have grown a later stage.
        assert!(trace[0].1 >= 50.0, "stage 0 mean {}", trace[0].1);
        assert!(
            trace[1].0 > trace[0].0,
            "stage 1 should be enlarged: {trace:?}"
        );
    }

    #[test]
    fn adaptive_multiscan_shrinks_when_selective() {
        // Very light stream: the first stage filters almost everything, so
        // later stages shrink.
        let data: Vec<u64> = (0..500u64).collect(); // every key once, T=5
        let (out, trace) = adaptive_multiscan_iceberg(&data, 5, 4096, 3, 8, 3);
        assert!(out.len() <= 5, "nothing passes T=5: {out:?}");
        assert!(
            trace[1].0 < trace[0].0,
            "stage sizes should shrink: {trace:?}"
        );
    }

    #[test]
    fn empty_data_yields_empty_result() {
        let sbf = MsSbf::new(64, 3, 5);
        assert!(ad_hoc_iceberg(&sbf, std::iter::empty::<u64>(), 1).is_empty());
        let config = MultiscanConfig::lossy_for(100, 6);
        assert!(multiscan_iceberg(&[], 1, &config).is_empty());
    }
}
