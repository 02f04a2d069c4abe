//! The compressed-counter frontier: storage cost (bytes/counter) against
//! query throughput (Melem/s) for each in-memory counter representation —
//! raw `u64` words, the §4 String-Array Index
//! ([`sbf_sai::StaticCounterArray`]), and the §4.5 Elias-δ compact array
//! ([`sbf_sai::CompactCounterArray`]).
//!
//! One Zipf-filled sharded sketch is unioned into a single counter
//! vector, encoded three ways, then probed with the same key stream
//! through one shared min-of-`k` probe loop. Two figures of merit per
//! representation:
//!
//! * **bytes/counter** — deterministic for a fixed workload (same keys →
//!   same counters → same encoded bits), so the baseline check allows
//!   only a small drift before failing: a jump means the encoder itself
//!   regressed.
//! * **vs-raw throughput ratio** — each round times the raw vector and
//!   the compressed one back to back in alternating order, and the
//!   recorded figure is the median of the per-round paired ratios. Like
//!   the `hotpath` speedups, a ratio of two legs measured on the same
//!   machine in the same instant transfers between machines; absolute
//!   Melem/s is reported but not gated.
//!
//! The sanity floor that needs no baseline at all: both compressed
//! representations must beat raw on bytes/counter, and every one must
//! return bit-identical estimates (they all encode the same union).
//!
//! ```text
//! compressed_frontier                               # measure and print
//! compressed_frontier --record BENCH_compressed.json
//! compressed_frontier --check  BENCH_compressed.json
//! ```

use std::hint::black_box;
use std::time::Instant;

use sbf_hash::{HashFamily, MAX_K};
use sbf_sai::{CompactCounterArray, StaticCounterArray};
use sbf_workloads::ZipfWorkload;
use spectral_bloom::{CounterStore, DefaultFamily, MsSbf, ShardedSketch};

/// Counters per shard (and in the union being encoded): 2^20 keeps the
/// probe working set past L2 so lookup cost differences are real.
const M: usize = 1 << 20;
const K: usize = 5;
const SEED: u64 = 42;
const SHARDS: usize = 4;
/// Inserted occurrences (Zipf, s = 1.1 — a realistic skew leaves most
/// counters at zero or small values, which is where SAI/Elias earn their
/// keep).
const STREAM: usize = 400_000;
const DISTINCT: usize = 60_000;
/// Probe stream length per timed leg.
const PROBES: usize = 200_000;
const ROUNDS: usize = 7;
/// Allowed relative *increase* of a representation's bytes/counter over
/// the baseline. The figure is deterministic for the fixed workload, so
/// any real movement is an encoder change; the slack only covers future
/// intentional metadata tweaks small enough not to matter.
const BYTES_TOLERANCE: f64 = 0.05;
/// Allowed relative drop of the vs-raw throughput ratio — wider than the
/// bytes gate because both legs are short lookup loops and the ratio
/// carries the same run-to-run noise as the hotpath SIMD races.
const SPEED_TOLERANCE: f64 = 0.25;

struct Frontier {
    name: &'static str,
    bytes_per_counter: f64,
    melem_s: f64,
    /// Median paired throughput ratio `this representation / raw` (1.0
    /// for raw).
    vs_raw: f64,
}

/// Sums min-of-`k` estimates over the probe stream — the timed unit of
/// work, and (summed) the cross-representation bit-identity check. Every
/// representation runs this same loop; only the counter lookup `get`
/// differs.
fn probe_sum(family: &DefaultFamily, get: impl Fn(usize) -> u64, probes: &[u64]) -> u64 {
    let k = family.k();
    let mut idx = [0usize; MAX_K];
    let mut acc = 0u64;
    for &v in probes {
        family.indexes_into(&v.to_le_bytes().as_slice(), &mut idx[..k]);
        let estimate = idx[..k].iter().map(|&i| get(i)).min().unwrap_or(0);
        acc = acc.wrapping_add(estimate);
    }
    acc
}

/// Times the `this` leg against the `raw` leg with the hotpath pairing
/// protocol: alternating order within each round, median of per-round
/// ratios. Returns `(best Melem/s of this, median raw/this time ratio)`.
fn race(raw: &dyn Fn() -> u64, this: &dyn Fn() -> u64, probes: usize) -> (f64, f64) {
    black_box(raw());
    black_box(this());
    let mut raw_times = Vec::with_capacity(ROUNDS);
    let mut this_times = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let order = [round % 2 == 1, round % 2 == 0];
        for this_leg in order {
            let t = Instant::now();
            if this_leg {
                black_box(this());
            } else {
                black_box(raw());
            }
            let elapsed = t.elapsed().as_secs_f64();
            if this_leg {
                this_times.push(elapsed);
            } else {
                raw_times.push(elapsed);
            }
        }
    }
    let mut ratios: Vec<f64> = raw_times
        .iter()
        .zip(&this_times)
        .map(|(raw_t, this_t)| raw_t / this_t)
        .collect();
    ratios.sort_by(|a, b| a.total_cmp(b));
    let best = probes as f64 / this_times.iter().copied().fold(f64::INFINITY, f64::min) / 1e6;
    (best, ratios[ratios.len() / 2])
}

fn measure() -> Vec<Frontier> {
    let live = ShardedSketch::with_shards(SHARDS, |_| MsSbf::new(M, K, SEED));
    let zipf = ZipfWorkload::generate(DISTINCT, STREAM, 1.1, 7).stream;
    live.insert_batch(&zipf);
    // Probe with the insert stream itself: Zipf-weighted lookups model the
    // read mix a cache in front of the same traffic would see.
    let probes = &zipf[..PROBES.min(zipf.len())];

    // The §5 union of the shards, probed under the shards' own family.
    let union = live.snapshot();
    let store = union.core().store();
    let raw: Vec<u64> = (0..M).map(|i| store.get(i)).collect();
    let sai = StaticCounterArray::from_counters(&raw);
    let elias = CompactCounterArray::from_counters(&raw);
    let family = DefaultFamily::new(M, K, SEED);

    let raw_leg = || probe_sum(&family, |i| raw[i], probes);
    let sai_leg = || probe_sum(&family, |i| sai.get(i), probes);
    let elias_leg = || probe_sum(&family, |i| elias.get(i), probes);

    // Every representation encodes the same union: estimates must agree
    // bit for bit before any of the numbers mean anything.
    let want = raw_leg();
    assert_eq!(want, sai_leg(), "sai estimates diverge");
    assert_eq!(want, elias_leg(), "elias estimates diverge");

    let bytes_per_counter = |bits: usize| bits as f64 / 8.0 / M as f64;
    let legs: [(&str, &dyn Fn() -> u64, usize); 3] = [
        ("raw", &raw_leg, raw.len() * 64),
        ("sai", &sai_leg, sai.size_breakdown().total_bits()),
        ("elias", &elias_leg, elias.total_bits()),
    ];
    legs.into_iter()
        .map(|(name, leg, bits)| {
            let (melem_s, vs_raw) = race(&raw_leg, leg, probes.len());
            Frontier {
                name,
                bytes_per_counter: bytes_per_counter(bits),
                melem_s,
                vs_raw,
            }
        })
        .collect()
}

fn to_json(rows: &[Frontier]) -> String {
    let mut out = String::from("{\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "  \"{}_bytes_per_counter\": {:.4},\n  \"{}_melem_s\": {:.3},\n  \"{}_vs_raw\": {:.4}{sep}\n",
            r.name, r.bytes_per_counter, r.name, r.melem_s, r.name, r.vs_raw
        ));
    }
    out.push_str("}\n");
    out
}

/// Pulls `"name": <number>` out of the baseline file (flat self-produced
/// JSON, same scanner as the hotpath bench).
fn json_field(text: &str, name: &str) -> Option<f64> {
    let needle = format!("\"{name}\"");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rows = measure();
    println!(
        "{:<8} {:>14} {:>12} {:>9}",
        "counters", "bytes/counter", "Melem/s", "vs raw"
    );
    for r in &rows {
        println!(
            "{:<8} {:>14.3} {:>12.2} {:>8.3}x",
            r.name, r.bytes_per_counter, r.melem_s, r.vs_raw
        );
    }
    // Baseline-free sanity: compression must actually compress.
    let raw_bytes = rows[0].bytes_per_counter;
    for r in &rows[1..] {
        assert!(
            r.bytes_per_counter < raw_bytes,
            "{} ({} B/ctr) does not beat raw ({raw_bytes} B/ctr)",
            r.name,
            r.bytes_per_counter
        );
    }
    match args.first().map(String::as_str) {
        None => {}
        Some("--record") => {
            let path = args.get(1).expect("--record needs a path");
            std::fs::write(path, to_json(&rows)).expect("write baseline");
            println!("baseline recorded to {path}");
        }
        Some("--check") => {
            let path = args.get(1).expect("--check needs a path");
            let text = std::fs::read_to_string(path).expect("read baseline");
            let mut failed = false;
            for r in &rows {
                let field = format!("{}_bytes_per_counter", r.name);
                match json_field(&text, &field) {
                    None => {
                        eprintln!("FAIL: baseline missing {field}");
                        failed = true;
                    }
                    Some(baseline) => {
                        let ceiling = baseline * (1.0 + BYTES_TOLERANCE);
                        let status = if r.bytes_per_counter > ceiling {
                            failed = true;
                            "FAIL"
                        } else {
                            "ok"
                        };
                        println!(
                            "{status:>4} {:<8} bytes/counter {:.4} vs baseline {baseline:.4} (ceiling {ceiling:.4})",
                            r.name, r.bytes_per_counter
                        );
                    }
                }
                let field = format!("{}_vs_raw", r.name);
                match json_field(&text, &field) {
                    None => {
                        eprintln!("FAIL: baseline missing {field}");
                        failed = true;
                    }
                    Some(baseline) => {
                        let floor = baseline * (1.0 - SPEED_TOLERANCE);
                        let status = if r.vs_raw < floor {
                            failed = true;
                            "FAIL"
                        } else {
                            "ok"
                        };
                        println!(
                            "{status:>4} {:<8} vs-raw {:.3} vs baseline {baseline:.3} (floor {floor:.3})",
                            r.name, r.vs_raw
                        );
                    }
                }
            }
            if failed {
                eprintln!("FAIL: compressed frontier regressed vs {path}");
                std::process::exit(1);
            }
            println!("OK: compressed frontier within tolerance on every representation");
        }
        Some(other) => {
            eprintln!("usage: compressed_frontier [--record <path> | --check <path>] ({other}?)");
            std::process::exit(2);
        }
    }
}
