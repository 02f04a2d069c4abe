//! End-to-end runs against `sbfd` started as `sbf serve` child processes.

use std::error::Error;
use std::path::Path;
use std::time::{Duration, Instant};

use sbf_server::SbfClient;

use crate::daemon::{wait_for_stat, Daemon, StatsDelta};
use crate::trace::{median, percentile, Tracer};
use crate::traffic::{Phase, Traffic};
use crate::workload::{Keys, Spec};

/// Result type of a benchmark step.
pub type Res<T> = Result<T, Box<dyn Error>>;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 21;
/// SIGKILL-and-restart cycles of the durable workload's primary;
/// `recover_s` is their median.
const RESTARTS: usize = 3;
/// `recover_s` is scaled to a log of this many keys: the log holds
/// whatever the timed phase acknowledged, so unscaled it would grow with
/// throughput.
const RECOVER_REF_KEYS: f64 = (1u64 << 20) as f64;
/// Alternating untraced/traced slice pairs in the traced run.
const SLICES: u32 = 4;

/// One `sbfd` deployment with its load phase done: the primary first
/// (and, for the durable workload, its replica second).
struct Deployment<'a> {
    /// Primary, then replica when there is one.
    daemons: Vec<Daemon>,
    /// Connection to the primary.
    client: SbfClient,
    /// Client state after the load phase.
    traffic: Traffic<'a>,
    /// Spawn to load phase acknowledged, in seconds.
    setup_s: f64,
}

fn durable_args(spec: &Spec, wal: &Path, replica: &str) -> Vec<String> {
    let mut args = spec.serve_args();
    args.extend(
        [
            "--wal-dir",
            &wal.display().to_string(),
            // Checkpoints off: the log holds every acknowledged frame.
            "--wal-checkpoint-secs",
            "0",
            "--wal-compact-min-bytes",
            "1000000000000000",
            "--replicate-to",
            replica,
        ]
        .map(String::from),
    );
    args
}

/// Spawns the workload's daemons, waits for replica bootstrap, and runs
/// the load phase. `setup_s` covers all of it.
fn deploy<'a>(spec: &'a Spec, keys: &'a Keys, sbf: &Path, wal: &Path) -> Res<Deployment<'a>> {
    let t0 = Instant::now();
    let daemons = if spec.durable {
        let _ = std::fs::remove_dir_all(wal);
        let replica = Daemon::spawn(sbf, &spec.serve_args())?;
        let primary = Daemon::spawn(sbf, &durable_args(spec, wal, &replica.addr))?;
        vec![primary, replica]
    } else {
        vec![Daemon::spawn(sbf, &spec.serve_args())?]
    };
    let mut client = daemons[0].connect()?;
    if spec.durable {
        // Writes are refused until the replica link is up.
        wait_for_stat(
            &mut client,
            "sbfd_repl_resyncs_total",
            1.0,
            Duration::from_secs(30),
        )?;
    }
    let mut traffic = Traffic::new(spec, keys);
    traffic.load(&mut client)?;
    Ok(Deployment {
        daemons,
        client,
        traffic,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

/// `(rel_error_mean, overcount_share, distinct keys)` over the distinct
/// keys of the load phase, read right after it, so a seed always gives
/// the same values.
fn accuracy(d: &mut Deployment, spec: &Spec, keys: &Keys) -> Res<(f64, f64, usize)> {
    let mut ranks = keys.write_ranks[..spec.load_keys].to_vec();
    ranks.sort_unstable();
    ranks.dedup();
    let est = d.traffic.verify(&mut d.client, &ranks)?;
    let (mut rel, mut over) = (0.0, 0usize);
    for (&r, &e) in ranks.iter().zip(&est) {
        let f = d.traffic.tally[r as usize];
        rel += (e as f64 - f as f64) / f as f64;
        over += usize::from(e > f);
    }
    let n = ranks.len();
    Ok((rel / n as f64, over as f64 / n as f64, n))
}

/// Everything one run measured end to end.
#[derive(Debug, Default)]
pub struct E2e {
    /// Metric name → value, in the units the report gives.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines for the report (sizes, sample counts).
    pub notes: Vec<String>,
    /// Calls sent.
    pub attempted: u64,
    /// Calls refused or lost.
    pub failed: u64,
    /// Estimates below the oracle's tally.
    pub violations: u64,
}

impl E2e {
    fn absorb(&mut self, t: &Traffic) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        self.violations += t.violations;
    }
}

/// CPU time used so far by all of `daemons`, in seconds.
fn cpu_s(daemons: &[Daemon]) -> Res<f64> {
    let mut total = 0.0;
    for d in daemons {
        total += d.cpu_s()?;
    }
    Ok(total)
}

fn latency_metrics(out: &mut E2e, phase: &Phase) -> Res<()> {
    const EMPTY: &str = "a call type had no samples";
    out.metrics.extend([
        ("keys_per_s", phase.keys_per_s()),
        (
            "write_p50_us",
            percentile(&phase.write_us, 0.5).ok_or(EMPTY)?,
        ),
        (
            "write_p99_us",
            percentile(&phase.write_us, 0.99).ok_or(EMPTY)?,
        ),
        ("read_p50_us", percentile(&phase.read_us, 0.5).ok_or(EMPTY)?),
        (
            "read_p99_us",
            percentile(&phase.read_us, 0.99).ok_or(EMPTY)?,
        ),
    ]);
    out.notes.push(format!(
        "samples: {} write calls, {} read calls over {:.2} s",
        phase.write_us.len(),
        phase.read_us.len(),
        phase.secs,
    ));
    Ok(())
}

/// The untraced run: set-up, accuracy, the timed phase interleaved with
/// further set-ups, peak RSS, then (durable only) SIGKILL, the post-crash
/// checks and `recover_s`.
pub fn untraced(spec: &Spec, keys: &Keys, sbf: &Path, work: &Path, secs: f64) -> Res<E2e> {
    let mut out = E2e::default();
    let mut d = deploy(spec, keys, sbf, &work.join("wal"))?;
    let mut setups = vec![d.setup_s];
    let (rel, over, n) = accuracy(&mut d, spec, keys)?;
    out.notes.push(format!(
        "accuracy after load over {n} distinct keys: rel_error_mean {rel:.6}, overcount_share {over:.6}"
    ));
    // The timed phase is cut into slices with one more set-up after each,
    // so the set-ups sample the host's load over the whole run. Each extra
    // deployment is dropped at once; the kept one idles meanwhile.
    let slice = Duration::from_secs_f64(secs / (SETUPS - 1) as f64);
    let (mut phase, mut cpu) = (Phase::default(), 0.0);
    for i in 1..SETUPS {
        let cpu0 = cpu_s(&d.daemons)?;
        phase.absorb(d.traffic.timed(&mut d.client, slice, None)?);
        cpu += cpu_s(&d.daemons)? - cpu0;
        let wal = work.join(format!("wal-{i}"));
        setups.push(deploy(spec, keys, sbf, &wal)?.setup_s);
        let _ = std::fs::remove_dir_all(&wal);
    }
    let mut sorted = setups.clone();
    sorted.sort_by(f64::total_cmp);
    out.notes.push(format!(
        "set-ups: {} from {:.4} to {:.4} s",
        sorted.len(),
        sorted[0],
        sorted[sorted.len() - 1]
    ));
    latency_metrics(&mut out, &phase)?;
    let mut rss = 0.0;
    for daemon in &d.daemons {
        rss += daemon.peak_rss_mib()?;
    }

    if spec.durable {
        let recover_s = crash_and_recover(&mut d, spec)?;
        out.metrics.push(("recover_s", recover_s));
        out.notes.push(
            "after SIGKILL: acknowledged inserts checked on the replica, then on the primary \
             restarted on its WAL"
                .into(),
        );
    }
    out.absorb(&d.traffic);
    out.metrics.extend([
        ("setup_s", median(setups).ok_or("no set-up")?),
        ("server_rss_mib", rss),
        ("server_cpu_us_per_key", cpu * 1e6 / phase.keys as f64),
    ]);
    Ok(out)
}

/// SIGKILLs the durable workload's primary. Checks every acknowledged
/// insert on the replica while the primary is down, then restarts the
/// primary on its WAL `RESTARTS` times and checks it after the last
/// restart. Returns the median time from restart to the first PING ack,
/// scaled to a log of `RECOVER_REF_KEYS` keys.
fn crash_and_recover(d: &mut Deployment, spec: &Spec) -> Res<f64> {
    let ranks: Vec<u32> = (0..spec.key_space as u32)
        .filter(|&r| d.traffic.tally[r as usize] > 0)
        .collect();
    let logged: u64 = d.traffic.tally.iter().sum();
    let scale = RECOVER_REF_KEYS / logged as f64;
    let mut recover = Vec::new();
    for i in 0..RESTARTS {
        d.daemons[0].kill();
        if i == 0 {
            // Checked before the restarted primary re-bootstraps the
            // replica with its own snapshot.
            let mut replica = d.daemons[1].connect()?;
            d.traffic.verify(&mut replica, &ranks)?;
        }
        let t0 = Instant::now();
        d.daemons[0].respawn()?;
        d.client = d.daemons[0].connect()?;
        d.client.ping()?;
        recover.push(t0.elapsed().as_secs_f64() * scale);
    }
    d.traffic.verify(&mut d.client, &ranks)?;
    Ok(median(recover).ok_or("no restart")?)
}

/// The traced run's end-to-end half: one set-up, then `secs` of untraced
/// and `secs` of traced calls, and the STATS deltas over the traced ones.
pub fn traced(spec: &Spec, keys: &Keys, sbf: &Path, work: &Path, secs: f64) -> Res<E2e> {
    let mut out = E2e::default();
    let wal = work.join("wal");
    let mut d = deploy(spec, keys, sbf, &wal)?;
    let (rel, over, _) = accuracy(&mut d, spec, keys)?;
    // Untraced and traced slices alternate so drift falls on both alike;
    // STATS deltas cover the traced slices only.
    let slice = Duration::from_secs_f64(secs / SLICES as f64);
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    let mut delta = StatsDelta::default();
    let mut tracer = Tracer::default();
    let mut written_frames = 0;
    for _ in 0..SLICES {
        plain.absorb(d.traffic.timed(&mut d.client, slice, None)?);
        let before = d.client.stats()?;
        let frames0 = d.traffic.write_frames;
        traced.absorb(d.traffic.timed(&mut d.client, slice, Some(&mut tracer))?);
        delta.add(&before, &d.client.stats()?);
        written_frames += d.traffic.write_frames - frames0;
    }
    let written = (written_frames * spec.write.keys as u64) as f64;
    out.absorb(&d.traffic);

    let frames_per_call = |write: bool| {
        let s = if write { spec.write } else { spec.read };
        s.frames as f64
    };
    // Client latency per frame, over every traced call.
    let mut per_frame: Vec<f64> = traced
        .write_us
        .iter()
        .map(|us| us / frames_per_call(true))
        .collect();
    per_frame.extend(traced.read_us.iter().map(|us| us / frames_per_call(false)));
    let server_p50_us = delta
        .histogram_p50("sbfd_request_latency_ns")
        .unwrap_or(0.0)
        / 1e3;
    let mutations = delta.get("sbfd_requests_total{op=\"insert\"}")
        + delta.get("sbfd_requests_total{op=\"insert_batch\"}");
    let per = |x: f64, by: f64| if by > 0.0 { x / by } else { 0.0 };
    out.notes.push(format!(
        "traced calls: write median {:.1} us, read median {:.1} us",
        tracer.total_ns_per_call("client.write").unwrap_or(0.0) / 1e3,
        tracer.total_ns_per_call("client.read").unwrap_or(0.0) / 1e3,
    ));
    out.metrics.extend([
        ("rel_error_mean", rel),
        ("overcount_share", over),
        ("failed_share", per(out.failed as f64, out.attempted as f64)),
        (
            "wal_bytes_per_key",
            per(delta.get("sbfd_wal_bytes_total"), written),
        ),
        ("trace.overhead", traced.keys_per_s() / plain.keys_per_s()),
        (
            "sbfd.frames_per_poll",
            per(
                delta.get("sbfd_pipeline_frames_total"),
                delta.get("sbfd_pipeline_batches_total"),
            ),
        ),
        (
            "sbfd.backpressure_stalls",
            delta.get("sbfd_backpressure_stalls_total"),
        ),
        (
            "sbfd.wal_fsyncs_per_frame",
            per(delta.get("sbfd_wal_fsync_ns_count"), mutations),
        ),
        (
            "sbfd.wal_fsync_us_p50",
            delta.histogram_p50("sbfd_wal_fsync_ns").unwrap_or(0.0) / 1e3,
        ),
        (
            "sbfd.repl_shipped_per_frame",
            per(delta.get("sbfd_repl_shipped_total"), mutations),
        ),
        (
            "sbfd.bytes_read_per_key",
            per(delta.get("sbfd_bytes_read_total"), traced.keys as f64),
        ),
        (
            "sbfd.bytes_written_per_key",
            per(delta.get("sbfd_bytes_written_total"), traced.keys as f64),
        ),
        ("sbfd.request_latency_us_p50", server_p50_us),
        (
            "client.wait_us_p50",
            median(per_frame).ok_or("no traced calls")? - server_p50_us,
        ),
    ]);
    Ok(out)
}
