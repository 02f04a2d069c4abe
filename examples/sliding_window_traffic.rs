//! Sliding-window flow tracking over streaming data (§1.1.4, §2.2).
//!
//! A network monitor answers "how many packets did flow X send in the last
//! W packets?" — the data-warehouse sliding window the paper motivates.
//! Old packets leave the window by explicit deletion, which is why this
//! example uses the Recurring Minimum SBF (Minimal Increase would corrupt,
//! as the paper's Figure 9 shows). The window itself is serial — sliding a
//! window is an ordered operation — but the sketch is a hash-sharded
//! `ShardedSketch`, so the separate long-term-volume tally can ingest the
//! same packets from 4 producer threads concurrently. An `mpsc` channel is
//! the packet bus.
//!
//! Run with: `cargo run --example sliding_window_traffic`

use std::collections::VecDeque;
use std::sync::mpsc;

use sbf_workloads::ZipfWorkload;
use spectral_bloom::{RmSbf, ShardedSketch, SketchReader};

const WINDOW: usize = 20_000;

fn main() {
    // 100k packets over 2k flows, heavy-tailed like real traffic.
    let workload = ZipfWorkload::generate(2_000, 100_000, 1.2, 11);

    // Producers push packets onto the bus from 4 threads; each also feeds
    // the sharded whole-stream tally directly (no lock contention across
    // shards, batched so each shard lock is taken once per batch).
    let (tx, rx) = mpsc::sync_channel::<u64>(1024);
    let chunks: Vec<Vec<u64>> = workload
        .stream
        .chunks(25_000)
        .map(<[u64]>::to_vec)
        .collect();

    let window_sketch = ShardedSketch::from_shards(vec![RmSbf::new(16_000, 5, 3)]);
    let window_keeper = &window_sketch;
    let volume_sketch = ShardedSketch::with_shards(4, |_| RmSbf::new(16_000, 5, 7));

    std::thread::scope(|scope| {
        for chunk in chunks {
            let tx = tx.clone();
            let volume = &volume_sketch;
            scope.spawn(move || {
                for batch in chunk.chunks(512) {
                    volume.insert_batch(batch);
                    for &packet in batch {
                        tx.send(packet).expect("bus open");
                    }
                }
            });
        }
        drop(tx);

        // The single window maintainer: inserts arrivals, deletes leavers.
        scope.spawn(move || {
            let mut window: VecDeque<u64> = VecDeque::with_capacity(WINDOW);
            for flow in rx {
                window_keeper.insert(&flow);
                window.push_back(flow);
                if window.len() > WINDOW {
                    let leaver = window.pop_front().expect("non-empty");
                    window_keeper
                        .remove(&leaver)
                        .expect("leaver was inserted when it arrived");
                }
            }
        });
    });

    println!(
        "window maintained: {} packets currently counted",
        window_sketch.total_count()
    );
    assert_eq!(window_sketch.total_count(), WINDOW as u64);
    assert_eq!(
        volume_sketch.total_count(),
        workload.stream.len() as u64,
        "every packet lands in exactly one shard"
    );

    // Which flows dominate the current window?
    let mut heavy: Vec<(u64, u64)> = (0..2_000u64)
        .map(|flow| (flow, window_sketch.estimate(&flow)))
        .filter(|&(_, est)| est >= 200)
        .collect();
    heavy.sort_by_key(|&(_, est)| std::cmp::Reverse(est));
    println!("\nflows with ≥ 200 packets in the last {WINDOW}:");
    for (flow, est) in heavy.iter().take(10) {
        println!("  flow {flow:>4}: ~{est} packets");
    }
    assert!(
        !heavy.is_empty(),
        "a skew-1.2 stream has heavy flows in any window"
    );

    // Because arrivals are i.i.d., window counts are ≈ truth·(W/M); verify
    // the top flow is in the right ballpark (one-sided, so ≥ is exact-ish).
    let top_true = workload.truth.iter().max().expect("non-empty");
    let expected_in_window = *top_true as f64 * WINDOW as f64 / workload.stream.len() as f64;
    let (top_flow, top_est) = heavy[0];
    println!(
        "\ntop flow {top_flow}: ~{top_est} in window (i.i.d. expectation ≈ {expected_in_window:.0})"
    );

    // The whole-stream tally answers the long-term question; union the
    // shards (§5 counter addition) and compare against ground truth.
    let merged = volume_sketch.snapshot();
    let (est, truth) = (
        merged.estimate(&top_flow),
        workload.truth[top_flow as usize],
    );
    println!("flow {top_flow} whole-stream: estimate {est} vs truth {truth}");
    assert!(est >= truth, "sharded RM union must stay one-sided");
}
