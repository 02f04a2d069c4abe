//! The traced per-layer run: each layer's public entry point timed
//! in-process on the workload's keys, geometry and frame shapes.
//!
//! Every timed call sits in a span (see [`crate::trace`]). Layers below the
//! socket are called directly; `loopback`, `wal.loopback` and
//! `repl.loopback` drive in-process servers through `SbfClient` with the
//! same traffic cycle as the end-to-end run. Each in-process sketch or
//! server is loaded with the workload's load phase before it is timed, so
//! its counters are faulted in.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use sbf_hash::{HashFamily, MixFamily, MAX_K};
use sbf_server::{
    ClusterClient, ClusterTopology, NodeSpec, Request, SbfClient, SbfServer, ServerConfig,
    ServerConfigBuilder, ServerHandle, Wal,
};
use spectral_bloom::{MsSbf, MultisetSketch, ShardedSketch, SketchReader};

use crate::e2e::Res;
use crate::trace::Tracer;
use crate::traffic::Traffic;
use crate::workload::{Keys, Spec, HASH_SEED, K, LOAD_FRAME};

/// Fewest spans per layer, whatever the budget.
const MIN_SPANS: usize = 5;
/// Spans of the layers that rebuild or re-read a whole filter.
const FEW_SPANS: usize = 3;
/// Most spans per layer, whatever the budget.
const MAX_SPANS: usize = 20_000;
/// Most pre-built traffic cycles of requests.
const CYCLES: usize = 16;

/// Per-layer metrics and the correctness counts of the calls behind them.
#[derive(Debug, Default)]
pub struct Layers {
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
    /// Calls sent to in-process servers.
    pub attempted: u64,
    /// Calls refused or lost.
    pub failed: u64,
    /// Estimates below the oracle's tally.
    pub violations: u64,
}

/// Runs `body` in spans named `name` until `budget` has passed, at least
/// `min` times; `body` gets the span's index and returns its keys.
fn repeat(
    tr: &mut Tracer,
    name: &'static str,
    budget: Duration,
    min: usize,
    mut body: impl FnMut(&mut Tracer, usize) -> u64,
) {
    let t0 = Instant::now();
    let mut i = 0;
    while i < min || (t0.elapsed() < budget && i < MAX_SPANS) {
        tr.span(name, |t| body(t, i));
        i += 1;
    }
}

/// The `i`-th chunk of `len` keys of a ring whose length is a multiple
/// of `len`.
fn chunk<T>(ring: &[T], len: usize, i: usize) -> &[T] {
    let start = (i * len) % ring.len();
    &ring[start..start + len]
}

fn base_config(spec: &Spec) -> ServerConfigBuilder {
    ServerConfig::builder()
        .addr("127.0.0.1:0")
        .m(spec.m)
        .k(K)
        .seed(HASH_SEED)
        .shards(spec.shards)
}

fn durable_config(spec: &Spec, dir: &Path) -> ServerConfigBuilder {
    let _ = std::fs::remove_dir_all(dir);
    base_config(spec)
        .wal_dir(dir)
        .wal_checkpoint_interval(None)
        .wal_compact_min_bytes(1 << 50)
}

/// The requests of `CYCLES` traffic cycles, one inner vector per cycle.
fn cycles(spec: &Spec, keys: &Keys) -> Vec<Vec<Request>> {
    let (w, r) = (spec.write, spec.read);
    let n = CYCLES
        .min(spec.write_ring / (spec.writes_per_cycle * w.keys_per_call()))
        .min(spec.read_ring / (spec.reads_per_cycle * r.keys_per_call()))
        .max(1);
    (0..n)
        .map(|c| {
            let mut reqs = Vec::new();
            for i in 0..spec.writes_per_cycle {
                let call = chunk(
                    &keys.write_keys,
                    w.keys_per_call(),
                    c * spec.writes_per_cycle + i,
                );
                reqs.extend(call.chunks(w.keys).map(|f| match f {
                    [key] => Request::Insert {
                        count: 1,
                        key: key.clone(),
                    },
                    _ => Request::InsertBatch { keys: f.to_vec() },
                }));
            }
            for i in 0..spec.reads_per_cycle {
                let call = chunk(
                    &keys.read_keys,
                    r.keys_per_call(),
                    c * spec.reads_per_cycle + i,
                );
                reqs.extend(call.chunks(r.keys).map(|f| match f {
                    [key] => Request::Estimate { key: key.clone() },
                    _ => Request::EstimateBatch { keys: f.to_vec() },
                }));
            }
            reqs
        })
        .collect()
}

/// Times every layer; `budget` is the time given to each layer's spans.
pub fn measure(
    spec: &Spec,
    keys: &Keys,
    budget: Duration,
    work: &Path,
    tr: &mut Tracer,
) -> Res<Layers> {
    // As in `sbf serve`: telemetry on, server schema registered.
    sbf_telemetry::set_enabled(true);
    let _ = spectral_bloom::core_metrics();
    let _ = sbf_server::metrics::server_metrics();

    let mut out = Layers::default();
    let load = &keys.write_keys[..spec.load_keys];
    let wchunk = spec.write.keys_per_call().max(32);
    let rchunk = spec.read.keys_per_call().max(32);
    let (wring, rring) = (&keys.write_keys, &keys.read_keys);

    // Anchor: the hash-and-increment loop with no sketch around it.
    {
        let family = MixFamily::new(spec.m, K, HASH_SEED);
        let mut counters = vec![0u64; spec.m];
        let mut idx = [0usize; MAX_K];
        let mut raw_insert = |counters: &mut [u64], key: &[u8]| {
            family.indexes_into(key, &mut idx[..K]);
            for &i in &idx[..K] {
                counters[i] += 1;
            }
        };
        for key in load {
            raw_insert(&mut counters, key);
        }
        repeat(tr, "raw", budget, MIN_SPANS, |_, i| {
            for key in chunk(wring, wchunk, i) {
                raw_insert(&mut counters, key);
            }
            wchunk as u64
        });
        black_box(&counters);
    }

    {
        let mut sbf = MsSbf::new(spec.m, K, HASH_SEED);
        for f in load.chunks(LOAD_FRAME) {
            sbf.insert_batch(f);
        }
        repeat(tr, "core.insert", budget, MIN_SPANS, |_, i| {
            for key in chunk(wring, wchunk, i) {
                sbf.insert(key.as_slice());
            }
            wchunk as u64
        });
        repeat(tr, "core.insert_batch", budget, MIN_SPANS, |_, i| {
            for f in chunk(wring, wchunk, i).chunks(spec.write.keys) {
                sbf.insert_batch(f);
            }
            wchunk as u64
        });
        let mut est = Vec::new();
        repeat(tr, "core.estimate_batch", budget, MIN_SPANS, |_, i| {
            for f in chunk(rring, rchunk, i).chunks(spec.read.keys) {
                est.clear();
                sbf.estimate_batch_into(f, &mut est);
                black_box(&est);
            }
            rchunk as u64
        });
    }

    {
        let sharded = ShardedSketch::with_shards(spec.shards, |_| MsSbf::new(spec.m, K, HASH_SEED));
        for f in load.chunks(LOAD_FRAME) {
            sharded.insert_batch(f);
        }
        repeat(tr, "sharded.insert_batch", budget, MIN_SPANS, |_, i| {
            for f in chunk(wring, wchunk, i).chunks(spec.write.keys) {
                sharded.insert_batch(f);
            }
            wchunk as u64
        });
        let mut est = Vec::new();
        repeat(tr, "sharded.estimate_batch", budget, MIN_SPANS, |_, i| {
            for f in chunk(rring, rchunk, i).chunks(spec.read.keys) {
                est.clear();
                sharded.estimate_batch_into(f, &mut est);
                black_box(&est);
            }
            rchunk as u64
        });
    }

    let cycles = cycles(spec, keys);
    let cycle_keys = spec.keys_per_cycle() as u64;
    {
        // `SharedState::handle` with no socket, then the codec on the same
        // requests, then the SNAPSHOT envelope of the loaded state.
        let server = SbfServer::bind(base_config(spec).build()?)?;
        let state = server.state();
        for f in load.chunks(LOAD_FRAME) {
            state.handle(&Request::InsertBatch { keys: f.to_vec() });
        }
        repeat(tr, "server.handle", budget, MIN_SPANS, |_, i| {
            for req in &cycles[i % cycles.len()] {
                black_box(state.handle(req));
            }
            cycle_keys
        });
        let mut codec_err = None;
        repeat(tr, "proto.encode", budget, MIN_SPANS, |_, i| {
            for req in &cycles[i % cycles.len()] {
                if let Err(e) = black_box(req.encode()) {
                    codec_err.get_or_insert(e);
                }
            }
            cycle_keys
        });
        let frames: Vec<Vec<Vec<u8>>> = cycles
            .iter()
            .map(|c| c.iter().map(Request::encode).collect::<Result<_, _>>())
            .collect::<Result<_, _>>()?;
        repeat(tr, "proto.decode", budget, MIN_SPANS, |_, i| {
            for f in &frames[i % frames.len()] {
                if let Err(e) = black_box(Request::decode(f[4], &f[5..])) {
                    codec_err.get_or_insert(e);
                }
            }
            cycle_keys
        });
        if let Some(e) = codec_err {
            return Err(e.into());
        }
        repeat(tr, "wire.snapshot", Duration::ZERO, FEW_SPANS, |_, _| {
            black_box(state.snapshot_envelope());
            1
        });
    }

    // Loopback: the same traffic cycle as the end-to-end run, through
    // `SbfClient`, against an in-process server; then with a WAL; then
    // with a WAL and a replica.
    let plain = SbfServer::bind(base_config(spec).build()?)?.spawn()?;
    loopback(tr, "loopback", spec, keys, &plain, budget, &mut out)?;
    plain.shutdown_and_join()?;
    let durable =
        SbfServer::bind(durable_config(spec, &work.join("inproc-wal")).build()?)?.spawn()?;
    loopback(tr, "wal.loopback", spec, keys, &durable, budget, &mut out)?;
    durable.crash_and_join()?;
    let replica = SbfServer::bind(base_config(spec).build()?)?.spawn()?;
    let primary = SbfServer::bind(
        durable_config(spec, &work.join("inproc-repl"))
            .replicate_to(replica.addr().to_string())
            .build()?,
    )?
    .spawn()?;
    let t0 = Instant::now();
    while !primary.state().replicator().is_some_and(|r| r.connected()) {
        if t0.elapsed() > Duration::from_secs(30) {
            return Err("in-process replica never connected".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    loopback(tr, "repl.loopback", spec, keys, &primary, budget, &mut out)?;
    primary.crash_and_join()?;
    replica.shutdown_and_join()?;

    // `Wal::append` of the workload's write frame bodies, then boot
    // recovery (`SbfServer::bind`) over the log it wrote.
    let dir = work.join("inproc-append");
    let _ = std::fs::remove_dir_all(&dir);
    let bodies: Vec<(Vec<u8>, u64)> = cycles
        .iter()
        .flatten()
        .filter(|r| r.is_mutation())
        .map(|r| {
            let keys = match r {
                Request::InsertBatch { keys } => keys.len() as u64,
                _ => 1,
            };
            r.encode().map(|f| (f[4..].to_vec(), keys))
        })
        .collect::<Result<_, _>>()?;
    let mut logged_keys = 0;
    {
        let wal = Wal::open(&dir, 4, 1 << 50)?;
        let mut append_err = None;
        repeat(tr, "wal.append", budget, MIN_SPANS, |_, i| {
            let (body, n) = &bodies[i % bodies.len()];
            if let Err(e) = wal.append(body) {
                append_err.get_or_insert(e);
            }
            logged_keys += n;
            *n
        });
        if let Some(e) = append_err {
            return Err(e.into());
        }
    }
    let mut bind_err = None;
    repeat(tr, "recovery.bind", Duration::ZERO, FEW_SPANS, |_, _| {
        let cfg = base_config(spec).wal_dir(&dir).build();
        match cfg
            .map_err(|e| e.to_string())
            .and_then(|c| SbfServer::bind(c).map_err(|e| e.to_string()))
        {
            Ok(server) => drop(server),
            Err(e) => {
                bind_err.get_or_insert(e);
            }
        }
        logged_keys
    });
    if let Some(e) = bind_err {
        return Err(e.into());
    }

    cluster(tr, spec, keys, budget, &mut out)?;

    // The waterfall runs bottom to top: each layer's cost per key over the
    // layer below and over the raw loop.
    let m = &mut out.metrics;
    let self_ns = |name: &str| tr.self_ns_per_key(name).unwrap_or(0.0);
    let total_ns = |name: &str| tr.total_ns_per_key(name).unwrap_or(0.0);
    for (metric, span) in [
        ("raw.ns_per_key", "raw"),
        ("core.insert_ns_per_key", "core.insert"),
        ("core.insert_batch_ns_per_key", "core.insert_batch"),
        ("core.estimate_batch_ns_per_key", "core.estimate_batch"),
        ("sharded.insert_batch_ns_per_key", "sharded.insert_batch"),
        (
            "sharded.estimate_batch_ns_per_key",
            "sharded.estimate_batch",
        ),
        ("server.handle_ns_per_key", "server.handle"),
        ("proto.encode_ns_per_key", "proto.encode"),
        ("proto.decode_ns_per_key", "proto.decode"),
        ("loopback.ns_per_key", "loopback"),
        ("cluster.insert_ns_per_key", "cluster.insert"),
        ("cluster.estimate_ns_per_key", "cluster.estimate"),
    ] {
        m.insert(metric.into(), self_ns(span));
    }
    let (raw, lb) = (self_ns("raw"), self_ns("loopback"));
    m.insert(
        "reactor.self_ns_per_key".into(),
        lb - self_ns("server.handle") - self_ns("proto.encode") - self_ns("proto.decode"),
    );
    m.insert("wal.self_ns_per_key".into(), self_ns("wal.loopback") - lb);
    m.insert(
        "repl.ns_per_key".into(),
        self_ns("repl.loopback") - self_ns("wal.loopback"),
    );
    m.insert(
        "wal.append_us_per_frame".into(),
        tr.total_ns_per_call("wal.append").unwrap_or(0.0) / 1e3,
    );
    m.insert(
        "recovery.replay_keys_per_s".into(),
        1e9 / total_ns("recovery.bind").max(f64::MIN_POSITIVE),
    );
    m.insert(
        "wire.snapshot_ms".into(),
        tr.total_ns_per_call("wire.snapshot").unwrap_or(0.0) / 1e6,
    );
    let chain = [
        ("raw", raw),
        ("core", self_ns("core.insert")),
        ("core_batch", self_ns("core.insert_batch")),
        ("sharded", self_ns("sharded.insert_batch")),
        ("server", self_ns("server.handle")),
        ("loopback", lb),
        ("wal", self_ns("wal.loopback")),
        ("repl", self_ns("repl.loopback")),
        ("cluster", total_ns("cluster")),
    ];
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    for pair in chain.windows(2) {
        let ((_, below), (name, cost)) = (pair[0], pair[1]);
        m.insert(format!("waterfall.{name}_x_below"), ratio(cost, below));
        m.insert(format!("waterfall.{name}_x_raw"), ratio(cost, raw));
    }
    Ok(out)
}

/// Loads `server` through a fresh client, then times whole traffic cycles
/// in spans named `name`, checking every answer against the oracle.
fn loopback(
    tr: &mut Tracer,
    name: &'static str,
    spec: &Spec,
    keys: &Keys,
    server: &ServerHandle,
    budget: Duration,
    out: &mut Layers,
) -> Res<()> {
    let mut client = SbfClient::builder(server.addr())
        .io_timeout(Some(Duration::from_secs(60)))
        .connect()?;
    let mut traffic = Traffic::new(spec, keys);
    traffic.load(&mut client)?;
    let mut err = None;
    repeat(tr, name, budget, MIN_SPANS, |_, _| {
        for i in 0..spec.writes_per_cycle + spec.reads_per_cycle {
            if let Err(e) = traffic.call(&mut client, i < spec.writes_per_cycle) {
                err.get_or_insert(e);
            }
        }
        spec.keys_per_cycle() as u64
    });
    out.attempted += traffic.attempted;
    out.failed += traffic.failed;
    out.violations += traffic.violations;
    match err {
        Some(e) => Err(e.into()),
        None => Ok(()),
    }
}

/// `ClusterClient` over two in-process nodes of the workload's geometry:
/// one `cluster` span per traffic cycle, with a `cluster.insert` or
/// `cluster.estimate` child span per call.
fn cluster(
    tr: &mut Tracer,
    spec: &Spec,
    keys: &Keys,
    budget: Duration,
    out: &mut Layers,
) -> Res<()> {
    let nodes = [
        SbfServer::bind(base_config(spec).build()?)?.spawn()?,
        SbfServer::bind(base_config(spec).build()?)?.spawn()?,
    ];
    let topology = ClusterTopology::new(
        nodes
            .iter()
            .map(|n| NodeSpec::solo(n.addr().to_string()))
            .collect(),
        spec.m,
        K,
        HASH_SEED,
    )
    .ok_or("empty cluster topology")?;
    let mut cc = ClusterClient::connect(topology)?;
    let mut tally = vec![0u64; spec.key_space];
    for (f, ranks) in keys.write_keys[..spec.load_keys]
        .chunks(LOAD_FRAME)
        .zip(keys.write_ranks.chunks(LOAD_FRAME))
    {
        cc.insert_batch(f)?;
        ranks.iter().for_each(|&r| tally[r as usize] += 1);
    }
    let (w, r) = (spec.write, spec.read);
    let mut err = None;
    repeat(tr, "cluster", budget, MIN_SPANS, |t, c| {
        for i in 0..spec.writes_per_cycle {
            let at = c * spec.writes_per_cycle + i;
            let ks = chunk(&keys.write_keys, w.keys_per_call(), at);
            let rs = chunk(&keys.write_ranks, w.keys_per_call(), at);
            t.span("cluster.insert", |_| {
                out.attempted += 1;
                for (f, fr) in ks.chunks(w.keys).zip(rs.chunks(w.keys)) {
                    let res = match f {
                        [key] => cc.insert(key, 1),
                        _ => cc.insert_batch(f),
                    };
                    match res {
                        Ok(()) => fr.iter().for_each(|&r| tally[r as usize] += 1),
                        Err(e) => {
                            out.failed += 1;
                            err.get_or_insert(e);
                        }
                    }
                }
                ks.len() as u64
            });
        }
        for i in 0..spec.reads_per_cycle {
            let at = c * spec.reads_per_cycle + i;
            let ks = chunk(&keys.read_keys, r.keys_per_call(), at);
            let rs = chunk(&keys.read_ranks, r.keys_per_call(), at);
            t.span("cluster.estimate", |_| {
                out.attempted += 1;
                for (f, fr) in ks.chunks(r.keys).zip(rs.chunks(r.keys)) {
                    let res = match f {
                        [key] => cc.estimate(key).map(|v| vec![v]),
                        _ => cc.estimate_batch(f),
                    };
                    match res {
                        Ok(vs) => {
                            for (&rank, v) in fr.iter().zip(vs) {
                                out.violations += u64::from(v < tally[rank as usize]);
                            }
                        }
                        Err(e) => {
                            out.failed += 1;
                            err.get_or_insert(e);
                        }
                    }
                }
                ks.len() as u64
            });
        }
        spec.keys_per_cycle() as u64
    });
    for n in nodes {
        n.shutdown_and_join()?;
    }
    match err {
        Some(e) => Err(e.into()),
        None => Ok(()),
    }
}
