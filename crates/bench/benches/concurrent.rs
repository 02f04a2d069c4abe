//! Multi-producer ingest throughput: the single-lock baseline vs the
//! hash-sharded [`ShardedSketch`] this crate serves from.
//!
//! * `rwlock_ms` — [`ShardedSketch::from_shards`] over one shard (one
//!   `RwLock`): every insert serialises on the same lock, so adding
//!   producers adds only contention.
//! * `sharded_mi` / `sharded_rm` — [`ShardedSketch::with_shards`]: MI/RM
//!   inserts are read-modify-write and need a lock, but hash-partitioned
//!   shards (2× the producer count) make collisions on any one lock rare,
//!   and `insert_batch` takes each shard lock once per batch.
//!
//! Producer counts sweep 1/2/4/8 over the same 200k-key zipf stream.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sbf_workloads::ZipfWorkload;
use spectral_bloom::{MiSbf, MsSbf, RmSbf, ShardedSketch};

const M: usize = 1 << 16;
const K: usize = 5;
const SEED: u64 = 17;
const STREAM: usize = 200_000;
const BATCH: usize = 1024;

fn chunks(stream: &[u64], producers: usize) -> Vec<&[u64]> {
    stream.chunks(stream.len().div_ceil(producers)).collect()
}

fn bench_concurrent_ingest(c: &mut Criterion) {
    let workload = ZipfWorkload::generate(20_000, STREAM, 1.1, 7);
    let stream = &workload.stream;

    let mut group = c.benchmark_group("concurrent_ingest");
    group.throughput(Throughput::Elements(STREAM as u64));
    group.sample_size(10);

    for producers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("rwlock_ms", producers),
            &producers,
            |b, &producers| {
                b.iter(|| {
                    let shared = ShardedSketch::from_shards(vec![MsSbf::new(M, K, SEED)]);
                    std::thread::scope(|scope| {
                        for chunk in chunks(stream, producers) {
                            let h = &shared;
                            scope.spawn(move || {
                                for key in chunk {
                                    h.insert(key);
                                }
                            });
                        }
                    });
                    shared.total_count()
                })
            },
        );

        group.bench_with_input(
            BenchmarkId::new("sharded_mi", producers),
            &producers,
            |b, &producers| {
                b.iter(|| {
                    let shared =
                        ShardedSketch::with_shards(2 * producers, |_| MiSbf::new(M, K, SEED));
                    std::thread::scope(|scope| {
                        for chunk in chunks(stream, producers) {
                            let h = &shared;
                            scope.spawn(move || {
                                for batch in chunk.chunks(BATCH) {
                                    h.insert_batch(batch);
                                }
                            });
                        }
                    });
                    shared.total_count()
                })
            },
        );

        group.bench_with_input(
            BenchmarkId::new("sharded_rm", producers),
            &producers,
            |b, &producers| {
                b.iter(|| {
                    let shared =
                        ShardedSketch::with_shards(2 * producers, |_| RmSbf::new(M, K, SEED));
                    std::thread::scope(|scope| {
                        for chunk in chunks(stream, producers) {
                            let h = &shared;
                            scope.spawn(move || {
                                for batch in chunk.chunks(BATCH) {
                                    h.insert_batch(batch);
                                }
                            });
                        }
                    });
                    shared.total_count()
                })
            },
        );
    }
    group.finish();

    // One non-measured, telemetry-enabled pass so the run leaves a metrics
    // artifact (shard gauges, op counters) next to the Criterion output.
    sbf_telemetry::set_enabled(true);
    let _ = spectral_bloom::core_metrics();
    let shared = ShardedSketch::with_shards(4, |_| RmSbf::new(M, K, SEED));
    for batch in stream.chunks(BATCH) {
        shared.insert_batch(batch);
    }
    shared.publish_metrics();
    sbf_telemetry::set_enabled(false);
    match sbf_bench::telemetry::emit_snapshot("concurrent_ingest") {
        Ok(path) => println!("telemetry snapshot: {}", path.display()),
        Err(e) => eprintln!("telemetry snapshot failed: {e}"),
    }
}

criterion_group!(benches, bench_concurrent_ingest);
criterion_main!(benches);
