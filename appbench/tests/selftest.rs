//! Self-tests of the benchmark at tiny sizes: every workload completes with
//! no failed operation (traced replays included), and inputs are a pure
//! function of the seed.

use std::path::PathBuf;

use appbench::harness::{run_solve, Options, SolveWorkload};
use appbench::ndar::Ndar;
use appbench::qrc_forecast::QrcForecast;
use appbench::report::Report;
use appbench::serve_bursts::{self, Inputs};
use appbench::sqed::Sqed;
use appbench::Scale;

fn opts(seed: u64) -> Options {
    Options { seed, seconds: 0.05, scale: Scale::Tiny }
}

fn trace_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.jsonl"))
}

fn assert_clean(report: &Report, what: &str) {
    assert!(report.checks.attempted > 0, "{what}: nothing attempted");
    assert_eq!(report.checks.failed, 0, "{what}: {:?}", report.checks.notes);
    assert!(report.correct(), "{what}: {:?}", report.metrics);
}

fn completes<W: SolveWorkload>(name: &str) {
    let untraced = run_solve::<W>(&opts(3), None).expect("untraced run");
    assert_clean(&untraced, name);
    assert_eq!(untraced.metrics.len(), appbench::harness::END_TO_END.len());
    let traced = run_solve::<W>(&opts(3), Some(&trace_path(name))).expect("traced run");
    assert_clean(&traced, name);
    assert_eq!(traced.metrics.len(), appbench::harness::PER_LAYER.len());
}

#[test]
fn ndar_completes_without_failures() {
    completes::<Ndar>("ndar_coloring");
}

#[test]
fn sqed_completes_without_failures() {
    completes::<Sqed>("sqed_dynamics");
}

#[test]
fn qrc_completes_without_failures() {
    completes::<QrcForecast>("qrc_forecast");
}

#[test]
fn serve_completes_without_failures() {
    let untraced = serve_bursts::run(&opts(3), None).expect("untraced run");
    assert_clean(&untraced, "serve_bursts");
    let traced = serve_bursts::run(&opts(3), Some(&trace_path("serve_bursts"))).expect("traced");
    assert_clean(&traced, "serve_bursts");
    assert_eq!(traced.get("qudit-serve.cache.misses"), Some(2.0), "one compile per backend");
}

/// Same seed: identical inputs and identical results (quality metrics
/// included). Different seed: different inputs.
fn seeded<W: SolveWorkload + std::fmt::Debug>() {
    let a = W::setup(5, Scale::Tiny).expect("setup");
    let b = W::setup(5, Scale::Tiny).expect("setup");
    let c = W::setup(6, Scale::Tiny).expect("setup");
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_ne!(format!("{a:?}"), format!("{c:?}"));
    let (mut a, mut b) = (a, b);
    let out_a = a.solve().expect("solve");
    let out_b = b.solve().expect("solve");
    assert_eq!(format!("{out_a:?}"), format!("{out_b:?}"));
}

#[test]
fn ndar_inputs_follow_the_seed() {
    seeded::<Ndar>();
}

#[test]
fn sqed_inputs_follow_the_seed() {
    seeded::<Sqed>();
}

#[test]
fn qrc_inputs_follow_the_seed() {
    seeded::<QrcForecast>();
}

#[test]
fn serve_inputs_follow_the_seed() {
    let a = Inputs::generate(5, Scale::Tiny, 4).expect("inputs");
    let b = Inputs::generate(5, Scale::Tiny, 4).expect("inputs");
    let c = Inputs::generate(6, Scale::Tiny, 4).expect("inputs");
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_ne!(format!("{a:?}"), format!("{c:?}"));
}
