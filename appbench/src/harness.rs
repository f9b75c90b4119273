//! The measurement protocol shared by the workloads, and the metric lists
//! `BENCHMARK.json` names.
//!
//! A run either measures end to end (untraced) or per layer (traced):
//!
//! * **Untraced** (`--trace 0`): set up, run one solve whose output is
//!   checked against independent references, then solve repeatedly for
//!   `--seconds`, each output compared bitwise with the checked one. A fresh
//!   set-up precedes every timed solve (at least [`SETUPS`] in all).
//!   Calibration units run before and after every set-up and solve, and
//!   each time is rescaled to the reference host ([`crate::calib`]);
//!   `setup_s` and `solve_s` are the medians of the rescaled times.
//! * **Traced** (`--trace 1`): after the checked solve, half the budget runs
//!   untraced solves and half runs the workload's layer-by-layer replay
//!   under a [`Tracer`]. Each replay must reproduce the entry point's output
//!   bitwise. Span time and counts are reported per solve.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::calib::Calibrator;
use crate::report::{median, peak_rss_mb, quantile, Checks, Metric, Report};
use crate::trace::Tracer;
use crate::{Res, Scale};

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("solve_s", "s"), ("job_latency_p50_ms", "ms"), ("peak_rss_mb", "MB")];

/// Where a per-layer metric's value comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// Summed duration of the named spans, per solve.
    Busy(&'static str),
    /// Number of the named spans, per solve.
    Calls(&'static str),
    /// A tracer counter, per solve.
    Counter(&'static str),
    /// Supplied by the workload (stats, quality, computed plan counters).
    Given,
}

/// Per-layer metrics, reported by every workload with `--trace 1`. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str, Source)] = &[
    ("qopt.evaluator.calls", "count", Source::Calls("qopt.evaluator")),
    ("qopt.evaluator.busy_s", "s", Source::Busy("qopt.evaluator")),
    ("qopt.population.busy_s", "s", Source::Busy("qopt.population")),
    ("qopt.population.members", "count", Source::Counter("qopt.population.members")),
    ("qopt.objective.calls", "count", Source::Calls("qopt.objective")),
    ("qopt.objective.busy_s", "s", Source::Busy("qopt.objective")),
    ("qopt.sample.busy_s", "s", Source::Busy("qopt.sample")),
    ("qopt.sample.shots", "count", Source::Counter("qopt.sample.shots")),
    ("lgt.build.busy_s", "s", Source::Busy("lgt.build")),
    ("qudit-circuit.compile.calls", "count", Source::Calls("qudit-circuit.compile")),
    ("qudit-circuit.compile.busy_s", "s", Source::Busy("qudit-circuit.compile")),
    ("qudit-circuit.density.calls", "count", Source::Calls("qudit-circuit.density")),
    ("qudit-circuit.density.busy_s", "s", Source::Busy("qudit-circuit.density")),
    ("qudit-circuit.observable.busy_s", "s", Source::Busy("qudit-circuit.observable")),
    ("qudit-circuit.trajectory.calls", "count", Source::Calls("qudit-circuit.trajectory")),
    ("qudit-circuit.trajectory.busy_s", "s", Source::Busy("qudit-circuit.trajectory")),
    ("qudit-circuit.trajectory.shots", "count", Source::Counter("qudit-circuit.trajectory.shots")),
    ("qudit-circuit.ensemble.calls", "count", Source::Calls("qudit-circuit.ensemble")),
    ("qudit-circuit.ensemble.busy_s", "s", Source::Busy("qudit-circuit.ensemble")),
    ("qudit-circuit.ensemble.columns", "count", Source::Counter("qudit-circuit.ensemble.columns")),
    ("cavity-sim.lindblad.busy_s", "s", Source::Busy("cavity-sim.lindblad")),
    ("cavity-sim.lindblad.rk4_steps", "count", Source::Counter("cavity-sim.lindblad.rk4_steps")),
    ("qrc.digital.build_s", "s", Source::Busy("qrc.digital.build")),
    ("qrc.digital.run_s", "s", Source::Busy("qrc.digital.run")),
    ("qrc.digital.binds", "count", Source::Counter("qrc.digital.binds")),
    ("qrc.readout.busy_s", "s", Source::Busy("qrc.readout")),
    ("qudit-serve.submit.busy_s", "s", Source::Busy("qudit-serve.submit")),
    ("qudit-serve.cache.hits", "count", Source::Given),
    ("qudit-serve.cache.misses", "count", Source::Given),
    ("qudit-serve.cache.hit_ratio", "ratio", Source::Given),
    ("qudit-serve.coalesce.batches", "count", Source::Given),
    ("qudit-serve.coalesce.mean_width", "count", Source::Given),
    ("qudit-serve.coalesce.share", "ratio", Source::Given),
    ("qudit-serve.retries", "count", Source::Given),
    ("qudit-serve.shed", "count", Source::Given),
    ("qudit-serve.rejected", "count", Source::Given),
    ("qudit-serve.latency.burst_p50_ms", "ms", Source::Given),
    ("qudit-serve.latency.trickle_p50_ms", "ms", Source::Given),
    ("qudit-serve.latency.p99_ms", "ms", Source::Given),
    ("job_latency_p90_ms", "ms", Source::Given),
    ("limit_miss_frac", "ratio", Source::Given),
    ("approx_ratio", "ratio", Source::Given),
    ("analog_test_nmse", "ratio", Source::Given),
    ("digital_test_nmse", "ratio", Source::Given),
    ("qudit-core.apply.diag_amps", "count", Source::Given),
    ("qudit-core.apply.monomial_amps", "count", Source::Given),
    ("qudit-core.apply.dense_amps", "count", Source::Given),
    ("computed.plan.steps", "count", Source::Given),
    ("computed.plan.rebindable_steps", "count", Source::Given),
    ("computed.fusion.unitaries_in", "count", Source::Given),
    ("computed.fusion.unitary_steps_out", "count", Source::Given),
    ("computed.fusion.multi_gate_blocks", "count", Source::Given),
    ("computed.fusion.max_block_dim", "count", Source::Given),
    ("computed.fusion.barrier_crossings", "count", Source::Given),
    ("computed.superop.super_steps", "count", Source::Given),
    ("computed.superop.multi_op_supers", "count", Source::Given),
    ("computed.superop.ops_folded", "count", Source::Given),
    ("computed.superop.unitary_steps", "count", Source::Given),
    ("computed.superop.kraus_steps", "count", Source::Given),
    ("computed.superop.max_super_dim", "count", Source::Given),
    ("harness.generator_lag_ms", "ms", Source::Given),
    ("harness.trace_overhead", "ratio", Source::Given),
    ("harness.layer_coverage", "ratio", Source::Given),
    ("harness.pool_threads", "count", Source::Given),
];

/// Span name wrapping one whole traced solve; its direct children are the
/// top-level layer calls that `harness.layer_coverage` adds up.
pub const SOLVE_SPAN: &str = "solve";

/// Run options from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Problem sizes.
    pub scale: Scale,
}

/// Least number of set-ups behind `setup_s` (their median).
pub const SETUPS: usize = 9;

/// Minimum timed solves per phase, however long a solve takes.
const MIN_SOLVES: usize = 3;

/// A workload measured as repeated complete solves.
pub trait SolveWorkload: Sized {
    /// The entry points' combined result; compared bitwise through its
    /// `Debug` rendering (shortest round-trip float formatting).
    type Output: std::fmt::Debug;

    /// Generates the inputs from the seed and warms the process up. Timed as
    /// `setup_s`.
    ///
    /// # Errors
    /// Returns an error if the inputs cannot be built.
    fn setup(seed: u64, scale: Scale) -> Res<Self>;

    /// One complete solve through the public application entry points.
    ///
    /// # Errors
    /// Returns an error if an entry point fails.
    fn solve(&mut self) -> Res<Self::Output>;

    /// The same solve replayed through the public calls each entry point is
    /// made of, with a span around each call.
    ///
    /// # Errors
    /// Returns an error if a call fails.
    fn replay(&mut self, tr: &Tracer) -> Res<Self::Output>;

    /// Checks a solve's output against independent references; returns one
    /// line per failed check (empty = correct). Not timed.
    fn check(&self, out: &Self::Output) -> Vec<String>;

    /// Workload-supplied per-layer metrics (quality, computed plan counters),
    /// given the traced replays' spans and their number.
    ///
    /// # Errors
    /// Returns an error if a plan cannot be compiled for counting.
    fn given_metrics(&self, out: &Self::Output, tr: &Tracer, replays: f64) -> Res<Vec<Metric>>;
}

fn bitwise(out: &impl std::fmt::Debug) -> String {
    format!("{out:?}")
}

/// Runs a solve workload and returns its report; with `trace_path`, the
/// traced variant whose spans are written there.
///
/// # Errors
/// Returns an error if set-up fails.
pub fn run_solve<W: SolveWorkload>(opts: &Options, trace_path: Option<&Path>) -> Res<Report> {
    let cal = Calibrator::new();
    let setup = |times: &mut Vec<f64>| -> Res<W> {
        let (w, t) = cal.timed(|| W::setup(opts.seed, opts.scale));
        let w = w?;
        times.push(t);
        Ok(w)
    };
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut w = setup(&mut setup_times)?;

    // The checked solve: its output is the reference every later solve and
    // replay must reproduce bitwise.
    let mut checks = Checks::default();
    let reference = match w.solve() {
        Ok(out) => {
            let failures = w.check(&out);
            let ok = failures.is_empty();
            checks.record(ok, || failures.join("; "));
            Some((out, ok))
        }
        Err(e) => {
            checks.record(false, || format!("checked solve errored: {e}"));
            None
        }
    };
    let expected = reference.as_ref().filter(|(_, ok)| *ok).map(|(out, _)| bitwise(out));
    let verify = |checks: &mut Checks, result: Res<W::Output>, what: &str| match result {
        Ok(out) => {
            let same = expected.as_deref() == Some(bitwise(&out).as_str());
            checks.record(same, || match expected {
                Some(_) => format!("{what} differs from the checked solve"),
                None => format!("{what} unverified: the checked solve failed"),
            });
        }
        Err(e) => checks.record(false, || format!("{what} errored: {e}")),
    };

    let budget = Duration::from_secs_f64(opts.seconds);
    let Some(trace_path) = trace_path else {
        // Set-ups interleave with the timed solves, so their median covers
        // the whole run rather than one moment of it.
        let times = timed_loop(budget, || {
            if let Err(e) = setup(&mut setup_times) {
                checks.record(false, || format!("set-up errored: {e}"));
            }
            let (result, dt) = cal.timed(|| w.solve());
            verify(&mut checks, result, "solve");
            dt
        });
        while setup_times.len() < SETUPS {
            setup(&mut setup_times)?;
        }
        let metrics = vec![
            Metric::new("setup_s", median(&setup_times), "s"),
            Metric::new("solve_s", median(&times), "s"),
            Metric::new("job_latency_p50_ms", 1e3 * median(&times), "ms"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
        return Ok(Report { checks, metrics });
    };

    let untraced = timed_loop(budget / 2, || {
        let t = Instant::now();
        let result = w.solve();
        let dt = t.elapsed().as_secs_f64();
        verify(&mut checks, result, "solve");
        dt
    });
    let tr = Tracer::new();
    let traced = timed_loop(budget / 2, || {
        tr.next_run();
        let t = Instant::now();
        let result = tr.span(SOLVE_SPAN, || w.replay(&tr));
        let dt = t.elapsed().as_secs_f64();
        verify(&mut checks, result, "layer replay");
        dt
    });
    tr.write_jsonl(trace_path)?;
    let replays = traced.len() as f64;
    let mut given = match &reference {
        Some((out, _)) => w.given_metrics(out, &tr, replays)?,
        None => Vec::new(),
    };
    given.push(Metric::new("job_latency_p90_ms", 1e3 * quantile(&untraced, 0.9), "ms"));
    given.push(Metric::new("harness.trace_overhead", median(&traced) / median(&untraced), "ratio"));
    given.push(Metric::new(
        "harness.layer_coverage",
        tr.child_busy_s(SOLVE_SPAN) / tr.busy_s(SOLVE_SPAN),
        "ratio",
    ));
    Ok(Report { checks, metrics: per_layer(&tr, replays, given) })
}

/// Calls `step` (which returns its own duration) until `budget` has passed
/// and at least [`MIN_SOLVES`] calls ran; returns the durations.
fn timed_loop(budget: Duration, mut step: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < MIN_SOLVES || start.elapsed() < budget {
        times.push(step());
    }
    times
}

/// Assembles the full [`PER_LAYER`] list: span- and counter-backed metrics
/// from the tracer (divided by `runs`), the rest from `given`, 0 otherwise.
pub fn per_layer(tr: &Tracer, runs: f64, given: Vec<Metric>) -> Vec<Metric> {
    let runs = runs.max(1.0);
    PER_LAYER
        .iter()
        .map(|&(name, unit, source)| {
            let value = match source {
                Source::Busy(span) => tr.busy_s(span) / runs,
                Source::Calls(span) => tr.calls(span) as f64 / runs,
                Source::Counter(counter) => tr.counter(counter) / runs,
                Source::Given => match name {
                    "harness.pool_threads" => qudit_core::par::max_threads() as f64,
                    _ => given.iter().find(|m| m.name == name).map_or(0.0, |m| m.value),
                },
            };
            // `+ 0.0` turns the `-0.0` of an empty float sum into `0`.
            Metric::new(name, value + 0.0, unit)
        })
        .collect()
}
