//! `sbfd-perfbench --sbf <path> --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`: runs one workload and prints a report on stderr and one
//! JSON result line on stdout. Exits 1 on a one-sided violation or any
//! failure to measure.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use sbfd_perfbench::e2e::{self, Res};
use sbfd_perfbench::layers;
use sbfd_perfbench::report::{self, MetricDef, END_TO_END, PER_LAYER, REPORTED};
use sbfd_perfbench::trace::Tracer;
use sbfd_perfbench::workload::{Keys, Spec, K};

/// Share of `--seconds` each half of the traced end-to-end phase takes.
const TRACED_E2E_SHARE: f64 = 0.25;
/// Share of `--seconds` the in-process layers split among themselves.
const LAYERS_SHARE: f64 = 0.5;
/// Layers timed against a budget in the traced run.
const BUDGETED_LAYERS: u32 = 15;

struct Args {
    sbf: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut sbf, mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--sbf" => sbf = Some(PathBuf::from(&value)),
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        sbf: sbf.ok_or("--sbf is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Res<ExitCode> {
    let args = parse_args()?;
    let spec =
        Spec::by_name(&args.workload).ok_or(format!("unknown workload {}", args.workload))?;
    if !args.sbf.is_file() {
        return Err(format!("no sbf binary at {}", args.sbf.display()).into());
    }
    let keys = Keys::generate(&spec, args.seed);
    let work = PathBuf::from(".bench_work").join(format!("{}-{}", spec.name, std::process::id()));
    std::fs::create_dir_all(&work)?;
    let result = measure(&args, &spec, &keys, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    let (defs, values, attempted, failed, violations) = result?;

    eprintln!(
        "workload {}: m = {} counters x {} shards ({} KiB), k = {K}, {} keys Zipf z = {}, \
         write {} x {} keys, read {} x {} keys, {}:{} calls per cycle",
        spec.name,
        spec.m,
        spec.shards,
        (spec.m * spec.shards * 8) >> 10,
        spec.key_space,
        spec.skew,
        spec.write.frames,
        spec.write.keys,
        spec.read.frames,
        spec.read.keys,
        spec.writes_per_cycle,
        spec.reads_per_cycle,
    );
    eprintln!("calls: {attempted} attempted, {failed} failed, {violations} one-sided violations");
    let value = |name: &str| values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    for (name, unit, _) in defs {
        let v = value(name).unwrap_or(f64::NAN);
        match (args.trace, report::guard(name)) {
            (false, _) => eprintln!("  {name:<36} {v:>16.4} {unit}"),
            (true, Some(g)) => eprintln!("  {name:<36} {v:>16.4} {unit:<6} moves: {g}"),
            (true, None) => eprintln!(
                "  {name:<36} {v:>16.4} {unit:<6} NOTICE: no workload guards this end to end"
            ),
        }
    }
    if args.trace {
        eprintln!(
            "NOTICE: cluster.* and waterfall.cluster_* are measured only here; no end-to-end \
             workload guards them, so no end-to-end change does not mean verified"
        );
    } else {
        eprintln!("  not gated:");
        for (name, unit, _) in REPORTED {
            if let Some(v) = value(name) {
                eprintln!("  {name:<36} {v:>16.4} {unit}");
            }
        }
    }
    let correct = violations == 0;
    println!(
        "{}",
        report::json_line(correct, attempted, failed, defs, value)?
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

type Measured = (&'static [MetricDef], Vec<(String, f64)>, u64, u64, u64);

fn measure(args: &Args, spec: &Spec, keys: &Keys, work: &std::path::Path) -> Res<Measured> {
    if !args.trace {
        let e = e2e::untraced(spec, keys, &args.sbf, work, args.seconds)?;
        e.notes.iter().for_each(|n| eprintln!("{n}"));
        let values = e.metrics.iter().map(|(n, v)| (n.to_string(), *v)).collect();
        return Ok((&END_TO_END, values, e.attempted, e.failed, e.violations));
    }
    let e = e2e::traced(spec, keys, &args.sbf, work, args.seconds * TRACED_E2E_SHARE)?;
    e.notes.iter().for_each(|n| eprintln!("{n}"));
    let budget = Duration::from_secs_f64(args.seconds * LAYERS_SHARE) / BUDGETED_LAYERS;
    let mut tracer = Tracer::default();
    let l = layers::measure(spec, keys, budget, work, &mut tracer)?;
    let mut values: Vec<(String, f64)> =
        e.metrics.iter().map(|(n, v)| (n.to_string(), *v)).collect();
    values.extend(l.metrics);
    Ok((
        &PER_LAYER,
        values,
        e.attempted + l.attempted,
        e.failed + l.failed,
        e.violations + l.violations,
    ))
}
