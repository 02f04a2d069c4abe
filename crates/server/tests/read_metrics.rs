//! Read-path telemetry over a real socket: every answered key bumps
//! `sbf_estimates_total` exactly once and observes the answer itself in
//! `sbf_estimate_values`, however many filters the answer reads. The
//! metrics are process-global, so this suite is its own test binary with
//! a single test: no other in-process server can move them between the
//! two STATS reads.

use std::time::Duration;

use sbf_server::{SbfClient, SbfServer, ServerConfig};

/// The `sbf_estimates_total` counter and the `sbf_estimate_values`
/// histogram's count and sum, as one STATS exposition reports them.
fn read_metrics(client: &mut SbfClient) -> [u64; 3] {
    let text = client.stats().unwrap();
    let get = |name: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .unwrap_or_else(|| panic!("no {name} in:\n{text}")) as u64
    };
    [
        get("sbf_estimates_total"),
        get("sbf_estimate_values_count"),
        get("sbf_estimate_values_sum"),
    ]
}

#[test]
fn each_answered_key_counts_one_estimate_and_observes_its_answer() {
    sbf_telemetry::set_enabled(true);
    let config = ServerConfig::builder()
        .addr("127.0.0.1:0")
        .m(1 << 12)
        .k(4)
        .shards(4)
        .read_timeout(Some(Duration::from_secs(10)))
        .write_timeout(Some(Duration::from_secs(10)))
        .build()
        .unwrap();
    let handle = SbfServer::bind(config).unwrap().spawn().unwrap();
    let mut client = SbfClient::builder(handle.addr()).connect().unwrap();
    client.insert(b"seen", 2).unwrap();
    client.insert(b"also-seen", 5).unwrap();

    let [estimates, observed, observed_sum] = read_metrics(&mut client);
    let single = client.estimate(b"seen").unwrap();
    assert!(single >= 2);
    let keys = [b"seen".to_vec(), b"also-seen".to_vec(), b"never".to_vec()];
    let batch = client.estimate_batch(&keys).unwrap();
    assert_eq!(batch.len(), 3);
    let [estimates_after, observed_after, observed_sum_after] = read_metrics(&mut client);

    assert_eq!(
        estimates_after - estimates,
        4,
        "one ESTIMATE + a 3-key ESTIMATE_BATCH"
    );
    assert_eq!(observed_after - observed, 4);
    assert_eq!(
        observed_sum_after - observed_sum,
        single + batch.iter().sum::<u64>(),
        "the histogram observes the answers themselves"
    );

    handle.shutdown_and_join().unwrap();
}
