//! Attribution self-test: a known delay injected into the benchmark's
//! wrapper around one layer call (`sharded.insert_batch`) must show up in
//! that layer's self time and in the waterfall ratios at and above it, and
//! nowhere else.

use std::path::PathBuf;
use std::time::Duration;

use sbfd_perfbench::layers::{self, Layers};
use sbfd_perfbench::trace::Tracer;
use sbfd_perfbench::workload::{Keys, Shape, Spec};

const DELAY: Duration = Duration::from_millis(20);
/// Keys per `sharded.insert_batch` span for the spec below.
const SPAN_KEYS: f64 = 128.0;

fn small_spec() -> Spec {
    Spec {
        name: "attribution",
        m: 1 << 12,
        shards: 2,
        key_space: 1 << 12,
        skew: 1.0,
        load_keys: 1 << 10,
        write_ring: 1 << 13,
        read_ring: 1 << 13,
        write: Shape {
            frames: 2,
            keys: 64,
        },
        read: Shape {
            frames: 1,
            keys: 64,
        },
        writes_per_cycle: 1,
        reads_per_cycle: 1,
        durable: false,
    }
}

fn run(spec: &Spec, keys: &Keys, tracer: &mut Tracer, tag: &str) -> Layers {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("attribution-{tag}"));
    std::fs::create_dir_all(&work).unwrap();
    let out = layers::measure(spec, keys, Duration::from_millis(100), &work, tracer).unwrap();
    let _ = std::fs::remove_dir_all(&work);
    assert_eq!((out.failed, out.violations), (0, 0));
    out
}

#[test]
fn injected_delay_moves_only_its_layer_and_the_ratios_above_it() {
    let spec = small_spec();
    let keys = Keys::generate(&spec, 3);
    let base = run(&spec, &keys, &mut Tracer::default(), "base");
    let injected = run(
        &spec,
        &keys,
        &mut Tracer::with_injected_delay("sharded.insert_batch", DELAY),
        "injected",
    );
    let get = |l: &Layers, name: &str| l.metrics[name];
    let per_key = DELAY.as_nanos() as f64 / SPAN_KEYS;

    let moved = get(&injected, "sharded.insert_batch_ns_per_key")
        - get(&base, "sharded.insert_batch_ns_per_key");
    assert!(
        moved > 0.8 * per_key,
        "injected layer moved by {moved} ns/key"
    );

    // Every other self time stays put, within a quarter of the delay.
    // `wal.self_ns_per_key` and `repl.ns_per_key` are left out: they wait
    // on fsync, whose latency on a shared disk moves their medians by
    // more than the delay between two runs.
    for name in [
        "raw.ns_per_key",
        "core.insert_ns_per_key",
        "core.insert_batch_ns_per_key",
        "core.estimate_batch_ns_per_key",
        "sharded.estimate_batch_ns_per_key",
        "server.handle_ns_per_key",
        "proto.encode_ns_per_key",
        "proto.decode_ns_per_key",
        "loopback.ns_per_key",
        "reactor.self_ns_per_key",
        "cluster.insert_ns_per_key",
        "cluster.estimate_ns_per_key",
    ] {
        let d = (get(&injected, name) - get(&base, name)).abs();
        assert!(d < 0.25 * per_key, "{name} moved by {d} ns/key");
    }

    // Ratios below the injected layer hold; its own ratios and the one
    // that divides by it move.
    for name in [
        "waterfall.core_x_below",
        "waterfall.core_x_raw",
        "waterfall.core_batch_x_below",
        "waterfall.core_batch_x_raw",
    ] {
        let r = get(&injected, name) / get(&base, name);
        assert!((0.5..2.0).contains(&r), "{name} changed by x{r}");
    }
    for name in ["waterfall.sharded_x_below", "waterfall.sharded_x_raw"] {
        let r = get(&injected, name) / get(&base, name);
        assert!(r > 5.0, "{name} only changed by x{r}");
    }
    let r = get(&injected, "waterfall.server_x_below") / get(&base, "waterfall.server_x_below");
    assert!(r < 0.2, "waterfall.server_x_below only changed by x{r}");
}
