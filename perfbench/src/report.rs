//! Metric names, units and the final JSON line.

use std::fmt::Write;

/// A metric's name, unit and which direction is better.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// Printed by untraced runs (`--trace 0`) in the result line.
pub const END_TO_END: [MetricDef; 5] = [
    ("write_p50_us", "us", "lower"),
    ("read_p50_us", "us", "lower"),
    ("server_cpu_us_per_key", "us", "lower"),
    ("setup_s", "s", "lower"),
    ("server_rss_mib", "MiB", "lower"),
];

/// Printed by untraced runs in the report only: on a shared machine
/// these move with the other tenants by more than any bound a gate may
/// use (see `LAYERS.md`).
pub const REPORTED: [MetricDef; 4] = [
    ("keys_per_s", "1/s", "higher"),
    ("write_p99_us", "us", "lower"),
    ("read_p99_us", "us", "lower"),
    ("recover_s", "s", "lower"),
];

/// Printed by traced runs (`--trace 1`).
pub const PER_LAYER: [MetricDef; 48] = [
    ("raw.ns_per_key", "ns", "lower"),
    ("core.insert_ns_per_key", "ns", "lower"),
    ("core.insert_batch_ns_per_key", "ns", "lower"),
    ("core.estimate_batch_ns_per_key", "ns", "lower"),
    ("sharded.insert_batch_ns_per_key", "ns", "lower"),
    ("sharded.estimate_batch_ns_per_key", "ns", "lower"),
    ("server.handle_ns_per_key", "ns", "lower"),
    ("proto.encode_ns_per_key", "ns", "lower"),
    ("proto.decode_ns_per_key", "ns", "lower"),
    ("loopback.ns_per_key", "ns", "lower"),
    ("reactor.self_ns_per_key", "ns", "lower"),
    ("wal.append_us_per_frame", "us", "lower"),
    ("wal.self_ns_per_key", "ns", "lower"),
    ("repl.ns_per_key", "ns", "lower"),
    ("recovery.replay_keys_per_s", "1/s", "higher"),
    ("wire.snapshot_ms", "ms", "lower"),
    ("cluster.insert_ns_per_key", "ns", "lower"),
    ("cluster.estimate_ns_per_key", "ns", "lower"),
    ("waterfall.core_x_below", "x", "lower"),
    ("waterfall.core_x_raw", "x", "lower"),
    ("waterfall.core_batch_x_below", "x", "lower"),
    ("waterfall.core_batch_x_raw", "x", "lower"),
    ("waterfall.sharded_x_below", "x", "lower"),
    ("waterfall.sharded_x_raw", "x", "lower"),
    ("waterfall.server_x_below", "x", "lower"),
    ("waterfall.server_x_raw", "x", "lower"),
    ("waterfall.loopback_x_below", "x", "lower"),
    ("waterfall.loopback_x_raw", "x", "lower"),
    ("waterfall.wal_x_below", "x", "lower"),
    ("waterfall.wal_x_raw", "x", "lower"),
    ("waterfall.repl_x_below", "x", "lower"),
    ("waterfall.repl_x_raw", "x", "lower"),
    ("waterfall.cluster_x_below", "x", "lower"),
    ("waterfall.cluster_x_raw", "x", "lower"),
    ("trace.overhead", "x", "higher"),
    ("sbfd.frames_per_poll", "count", "higher"),
    ("sbfd.backpressure_stalls", "count", "lower"),
    ("sbfd.wal_fsyncs_per_frame", "count", "lower"),
    ("sbfd.wal_fsync_us_p50", "us", "lower"),
    ("sbfd.repl_shipped_per_frame", "count", "lower"),
    ("sbfd.bytes_read_per_key", "B", "lower"),
    ("sbfd.bytes_written_per_key", "B", "lower"),
    ("sbfd.request_latency_us_p50", "us", "lower"),
    ("client.wait_us_p50", "us", "lower"),
    ("rel_error_mean", "ratio", "lower"),
    ("overcount_share", "share", "lower"),
    ("failed_share", "share", "lower"),
    ("wal_bytes_per_key", "B", "lower"),
];

const INGEST: &str =
    "write_p50_us, server_cpu_us_per_key (keys_per_s) on ingest-large; no change on point-small";
const POINT: &str =
    "read_p50_us, server_cpu_us_per_key (keys_per_s) on point-small; a little on ingest-large";
const DURABLE: &str =
    "write_p50_us (write_p99_us, recover_s) and setup_s on durable-replicated; no change elsewhere";

/// Which end-to-end metric, on which workload, each per-layer metric
/// should move; the first matching prefix wins. `None`: no workload
/// guards it end to end.
const GUARDS: [(&str, Option<&str>); 29] = [
    ("raw.", Some("anchor: divides every *_x_raw ratio")),
    ("core.", Some(INGEST)),
    ("sharded.", Some(INGEST)),
    ("waterfall.core", Some(INGEST)),
    ("waterfall.sharded", Some(INGEST)),
    ("server.", Some(POINT)),
    ("proto.", Some(POINT)),
    ("loopback.", Some(POINT)),
    ("reactor.", Some(POINT)),
    ("waterfall.server", Some(POINT)),
    ("waterfall.loopback", Some(POINT)),
    ("sbfd.frames_per_poll", Some(POINT)),
    ("sbfd.backpressure", Some(POINT)),
    ("sbfd.bytes_", Some(POINT)),
    ("sbfd.request_latency", Some(POINT)),
    ("client.wait", Some(POINT)),
    ("wal", Some(DURABLE)),
    ("repl.", Some(DURABLE)),
    ("recovery.", Some(DURABLE)),
    ("wire.", Some(DURABLE)),
    ("waterfall.wal", Some(DURABLE)),
    ("waterfall.repl", Some(DURABLE)),
    ("sbfd.wal_", Some(DURABLE)),
    ("sbfd.repl_", Some(DURABLE)),
    ("cluster.", None),
    ("waterfall.cluster", None),
    (
        "trace.overhead",
        Some("cost of the client-side spans, not of sbfd"),
    ),
    ("failed_share", Some("every workload; must stay 0")),
    (
        "",
        Some("sketch accuracy after the load phase; fixed for a seed"),
    ),
];

/// What end-to-end metric and workload guard `metric`.
pub fn guard(metric: &str) -> Option<&'static str> {
    GUARDS
        .iter()
        .find(|(prefix, _)| metric.starts_with(prefix))
        .and_then(|(_, g)| *g)
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit. Fails on a metric that is missing or not finite.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    value: impl Fn(&str) -> Option<f64>,
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, _)) in defs.iter().enumerate() {
        let v = value(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is {v}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_cluster_metrics_are_unguarded() {
        let unguarded: Vec<_> = PER_LAYER
            .iter()
            .map(|d| d.0)
            .filter(|n| guard(n).is_none())
            .collect();
        assert_eq!(
            unguarded,
            [
                "cluster.insert_ns_per_key",
                "cluster.estimate_ns_per_key",
                "waterfall.cluster_x_below",
                "waterfall.cluster_x_raw"
            ]
        );
        assert_eq!(guard("core.insert_ns_per_key"), Some(INGEST));
        assert_eq!(guard("wal_bytes_per_key"), Some(DURABLE));
        assert_eq!(
            guard("rel_error_mean").map(|g| g.starts_with("sketch")),
            Some(true)
        );
    }

    #[test]
    fn json_line_has_every_metric_with_its_unit() {
        let line = json_line(true, 3, 0, &REPORTED[..2], |n| Some(n.len() as f64)).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"keys_per_s\": {\"value\": 10.0, \"unit\": \"1/s\"}, \"write_p99_us\": {\"value\": 12.0, \"unit\": \"us\"}}}"
        );
        assert!(json_line(true, 1, 0, &END_TO_END, |_| None).is_err());
        assert!(json_line(true, 1, 0, &END_TO_END, |_| Some(f64::NAN)).is_err());
    }

    /// `BENCHMARK.json` at the repository root lists exactly these metrics.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        for (name, unit, better) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
