//! Command-line front end of the application benchmark.
//!
//! ```text
//! appbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of metrics and, as the last line of standard output, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones, and the recorded spans are written to
//! `.bench_traces/<workload>-seed<n>.jsonl`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use appbench::harness::{run_solve, Options};
use appbench::ndar::Ndar;
use appbench::qrc_forecast::QrcForecast;
use appbench::sqed::Sqed;
use appbench::{serve_bursts, Res, Scale};

/// The workloads, by name.
const WORKLOADS: &[&str] = &["ndar_coloring", "sqed_dynamics", "qrc_forecast", "serve_bursts"];

/// Worker-pool threads every run pins (`QUDIT_NUM_THREADS`). One thread
/// keeps solve timings independent of what else the machine runs; the
/// serving workload's two engine workers are its own threads.
const POOL_THREADS: &str = "1";

struct Args {
    workload: String,
    opts: Options,
    trace: bool,
}

fn parse(mut raw: impl Iterator<Item = String>) -> Res<Args> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>()?),
            "--seconds" => seconds = Some(value.parse::<f64>()?),
            "--trace" => trace = Some(value.parse::<u8>()? != 0),
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}").into());
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let opts = Options { seed: seed.unwrap_or(1), seconds, scale: Scale::Full };
    Ok(Args { workload, opts, trace: trace.unwrap_or(false) })
}

fn run(args: &Args) -> Res<String> {
    let trace_path = args.trace.then(|| {
        PathBuf::from(".bench_traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.opts.seed))
    });
    let trace = trace_path.as_deref();
    let opts = &args.opts;
    let report = match args.workload.as_str() {
        "ndar_coloring" => run_solve::<Ndar>(opts, trace)?,
        "sqed_dynamics" => run_solve::<Sqed>(opts, trace)?,
        "qrc_forecast" => run_solve::<QrcForecast>(opts, trace)?,
        "serve_bursts" => serve_bursts::run(opts, trace)?,
        other => return Err(format!("unknown workload {other}").into()),
    };
    Ok(report.render())
}

fn main() -> ExitCode {
    // Pin the worker pool before anything can start it.
    std::env::set_var("QUDIT_NUM_THREADS", POOL_THREADS);
    let result = parse(std::env::args().skip(1)).and_then(|args| run(&args));
    match result {
        Ok(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("appbench: {e}");
            ExitCode::FAILURE
        }
    }
}
