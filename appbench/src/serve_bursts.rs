//! `serve_bursts`: an open loop against a `qudit_serve::ServeEngine`.
//!
//! Every period brings a burst of same-plan statevector jobs (one QAOA
//! optimiser population: a 7-node `p = 2` ansatz at distinct angles) plus an
//! evenly spaced trickle of noisy density jobs (a 3-mode reservoir segment
//! with photon-loss channels). The burst exercises the plan cache and the
//! coalescer's ensemble pass; the trickle bypasses coalescing, so a
//! coalescer change that speeds bursts but delays probes shows here. Each
//! job is timed from when it was due, not from when it was sent, and the
//! sender's lateness is reported. The load stays well below saturation.
//!
//! The schedule cycles through [`POPULATIONS`] periods' worth of bindings
//! drawn from the seed. Their payloads are computed once before the loop,
//! untimed, so each job's payload is checked the moment it arrives and then
//! dropped: the client holds no payloads, and `peak_rss_mb` tracks the
//! engine.
//!
//! In the untraced run the sender also runs one calibration unit per period
//! while no burst is in flight, and the end-to-end times are rescaled to the
//! reference host by the median unit ([`crate::calib`]).

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use qopt::qaoa::{QaoaConfig, QuditQaoa};
use qrc::reservoir::ReservoirParams;
use qudit_circuit::sim::{DensityMatrixSimulator, StatevectorSimulator};
use qudit_circuit::Circuit;
use qudit_serve::{
    Backpressure, JobHandle, JobOutcome, JobSpec, ServeConfig, ServeEngine, ServeStats,
};

use crate::calib::{rescale, Calibrator};
use crate::harness::{per_layer, Options, SOLVE_SPAN};
use crate::plans::PlanCounts;
use crate::qrc_forecast::reservoir_segment;
use crate::report::{median, peak_rss_mb, quantile, Checks, Metric, Report};
use crate::trace::Tracer;
use crate::{uniform, Res, Scale};

/// Time between bursts.
const PERIOD: Duration = Duration::from_millis(80);
/// Distinct periods of traffic the schedule cycles through.
const POPULATIONS: usize = 8;
/// Set-ups behind `setup_s` (their median).
const SETUPS: usize = 25;
/// Submission-queue capacity of the engine.
const QUEUE_CAPACITY: usize = 64;
/// Seed of the served coloring instance.
const MODEL_SEED: u64 = 11;
/// Latency limit behind `limit_miss_frac`.
const LATENCY_LIMIT: Duration = Duration::from_millis(100);
/// Least idle time before the next due job in which the sender runs a
/// calibration unit.
const CALIBRATION_GAP: Duration = Duration::from_millis(15);
/// Largest accepted deviation of a payload from the direct simulator call.
const PAYLOAD_TOL: f64 = 1e-12;

/// The two job streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stream {
    /// Same-plan statevector jobs, all due at the start of a period.
    Burst,
    /// Density jobs spread evenly over the period.
    Trickle,
}

/// One scheduled job.
#[derive(Debug, Clone)]
struct Job {
    /// When the job is due, from the start of the loop.
    due: Duration,
    /// Period the job belongs to.
    period: usize,
    /// Which stream.
    stream: Stream,
    /// Index of its parameter binding in [`Inputs::bindings`].
    binding: usize,
}

/// Generated inputs: the two circuits, the bindings and the schedule.
#[derive(Debug, Clone)]
pub struct Inputs {
    ansatz: Circuit,
    reservoir: Circuit,
    /// [`POPULATIONS`] periods' bindings, each period's burst jobs first.
    bindings: Vec<Vec<f64>>,
    /// Every job, ordered by due time.
    jobs: Vec<Job>,
    burst: usize,
    trickle: usize,
}

impl Inputs {
    /// Builds the circuits and a schedule of `periods` periods.
    ///
    /// # Errors
    /// Returns an error if a circuit cannot be built.
    pub fn generate(seed: u64, scale: Scale, periods: usize) -> Res<Self> {
        // Four trickle jobs to sixteen burst jobs put the p50 of all jobs
        // inside the bulk of the burst latencies, not on their steep lower
        // tail, where it moves far more than the bursts themselves.
        let (nodes, layers, burst, trickle) = match scale {
            Scale::Full => (7, 2, 16, 4),
            Scale::Tiny => (4, 1, 4, 2),
        };
        // The served model is fixed; the seed draws the traffic (every
        // binding), so the work per job is the same for every seed.
        let problem = bench::table1_coloring_problem(nodes, MODEL_SEED);
        let qaoa = QuditQaoa::new(problem, QaoaConfig { layers, ..QaoaConfig::default() });
        let ansatz = qaoa.ansatz()?;
        let reservoir = reservoir_segment(&ReservoirParams {
            modes: 3,
            levels: 3,
            frequencies: vec![1.0, 1.3, 1.6],
            ..ReservoirParams::small()
        })?;
        let mut bindings = Vec::with_capacity(POPULATIONS * (burst + trickle));
        let mut k = 1000;
        let mut draw = |lo: f64, hi: f64| {
            k += 1;
            uniform(seed, k, lo, hi)
        };
        for _ in 0..POPULATIONS {
            bindings.extend((0..burst).map(|_| (0..2 * layers).map(|_| draw(0.1, 1.2)).collect()));
            bindings.extend((0..trickle).map(|_| vec![draw(0.0, 0.5)]));
        }
        let mut jobs = Vec::with_capacity(periods * (burst + trickle));
        for period in 0..periods {
            let start = PERIOD * period as u32;
            let first = (period % POPULATIONS) * (burst + trickle);
            for i in 0..burst {
                jobs.push(Job { due: start, period, stream: Stream::Burst, binding: first + i });
            }
            for j in 0..trickle {
                let due = start + PERIOD.mul_f64((j as f64 + 0.5) / trickle as f64);
                let binding = first + burst + j;
                jobs.push(Job { due, period, stream: Stream::Trickle, binding });
            }
        }
        jobs.sort_by_key(|j| j.due);
        Ok(Self { ansatz, reservoir, bindings, jobs, burst, trickle })
    }

    fn spec(&self, job: &Job) -> JobSpec {
        match job.stream {
            Stream::Burst => JobSpec::statevector(self.ansatz.clone()),
            Stream::Trickle => JobSpec::density(self.reservoir.clone()),
        }
        .with_params(self.bindings[job.binding].clone())
    }

    /// The payload of every binding from a direct simulator call: burst
    /// probabilities and the trickle's density diagonal. Not timed.
    ///
    /// # Errors
    /// Returns an error if a circuit cannot be compiled or run.
    fn references(&self) -> Res<Vec<Vec<f64>>> {
        let sv = StatevectorSimulator::new();
        let mut sv_plan = sv.compile(&self.ansatz)?;
        let dm = DensityMatrixSimulator::new();
        let mut dm_plan = dm.compile(&self.reservoir)?;
        let per_period = self.burst + self.trickle;
        let mut out = Vec::with_capacity(self.bindings.len());
        for (i, params) in self.bindings.iter().enumerate() {
            out.push(if i % per_period < self.burst {
                sv.run_bound(&mut sv_plan, params)?.state.probabilities()
            } else {
                let rho = dm.run_bound(&mut dm_plan, params)?;
                let m = rho.matrix();
                (0..m.rows()).map(|i| m[(i, i)].re).collect()
            });
        }
        Ok(out)
    }
}

/// Starts the engine and brings it to steady state by serving one job of
/// each stream, so both plans are compiled and cached.
fn start_engine(inputs: &Inputs) -> Res<ServeEngine> {
    let engine = ServeEngine::start(
        ServeConfig::default()
            .with_workers(2)
            .with_queue_capacity(QUEUE_CAPACITY)
            .with_backpressure(Backpressure::Block),
    );
    let handles: Result<Vec<_>, _> = [Stream::Burst, Stream::Trickle]
        .iter()
        .filter_map(|&stream| inputs.jobs.iter().find(|j| j.stream == stream))
        .map(|j| engine.submit(inputs.spec(j)))
        .collect();
    for handle in handles? {
        match handle.wait() {
            JobOutcome::Completed(_) => {}
            other => return Err(format!("warm-up job did not complete: {other:?}").into()),
        }
    }
    Ok(engine)
}

/// What the client saw for one job.
#[derive(Debug, Clone)]
enum Seen {
    /// Resolved at this time (from the start of the loop), with the
    /// payload's largest deviation from its reference, or how it ended if it
    /// did not complete.
    Resolved(Duration, Result<f64, String>),
    /// The engine refused the submission.
    Rejected(String),
}

/// Largest deviation of a payload from its reference (infinite on a length
/// mismatch).
fn deviation(payload: &[f64], reference: &[f64]) -> f64 {
    if payload.len() != reference.len() {
        return f64::INFINITY;
    }
    payload.iter().zip(reference).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
}

/// Result of one open-loop phase.
struct Phase {
    seen: Vec<Seen>,
    lags_ms: Vec<f64>,
    /// Calibration units the sender ran, in s.
    calibrations: Vec<f64>,
}

/// Sends `jobs` on schedule from this thread. One waiter thread per stream
/// blocks on that stream's handles in submission order and stamps each
/// completion, so the sender never polls. Within a stream the engine
/// finishes jobs in that order (a burst as one coalesced batch), so a job is
/// stamped as soon as it resolves. The waiter then checks the payload
/// against its reference in `refs` and drops it. With `cal`, the sender runs
/// one calibration unit per period, in a gap of at least
/// [`CALIBRATION_GAP`] while no burst job is in flight.
fn open_loop(
    engine: &ServeEngine,
    inputs: &Inputs,
    refs: &[Vec<f64>],
    jobs: &[Job],
    tr: Option<&Tracer>,
    cal: Option<&Calibrator>,
) -> Phase {
    let spanned = |name: &'static str, f: &mut dyn FnMut()| match tr {
        Some(tr) => tr.span(name, f),
        None => f(),
    };
    let mut seen: Vec<Option<Seen>> = vec![None; jobs.len()];
    let mut lags_ms = Vec::with_capacity(jobs.len());
    let mut calibrations = Vec::new();
    let mut calibrated_period = None;
    let mut bursts_sent = 0;
    let bursts_done = AtomicUsize::new(0);
    let (burst_tx, burst_rx) = mpsc::channel::<(usize, JobHandle)>();
    let (trickle_tx, trickle_rx) = mpsc::channel::<(usize, JobHandle)>();
    let (done_tx, done_rx) = mpsc::channel::<(usize, Instant, Result<f64, String>)>();
    let start = Instant::now();
    thread::scope(|scope| {
        for (stream, handle_rx) in [(Stream::Burst, burst_rx), (Stream::Trickle, trickle_rx)] {
            let done_tx = done_tx.clone();
            let bursts_done = &bursts_done;
            scope.spawn(move || {
                for (index, handle) in handle_rx {
                    let outcome = handle.wait();
                    let at = Instant::now();
                    let verdict = match outcome {
                        JobOutcome::Completed(payload) => {
                            Ok(deviation(&payload, &refs[jobs[index].binding]))
                        }
                        other => Err(format!("{other:?}")),
                    };
                    if stream == Stream::Burst {
                        bursts_done.fetch_add(1, Ordering::Release);
                    }
                    if done_tx.send((index, at, verdict)).is_err() {
                        return;
                    }
                }
            });
        }
        drop(done_tx);
        let mut index = 0;
        while index < jobs.len() {
            let due = jobs[index].due;
            let mut now = start.elapsed();
            if let Some(cal) = cal {
                let period = jobs[index].period;
                if calibrated_period != Some(period)
                    && due.saturating_sub(now) >= CALIBRATION_GAP
                    && bursts_done.load(Ordering::Acquire) == bursts_sent
                {
                    calibrations.push(cal.unit());
                    calibrated_period = Some(period);
                    now = start.elapsed();
                }
            }
            if due > now {
                spanned("harness.idle", &mut || thread::sleep(due - now));
            }
            // A burst arrives as one unit: the engine starts none of its jobs
            // until the whole population is queued, so how the coalescer
            // splits it does not depend on thread wake-up races.
            let end = if jobs[index].stream == Stream::Burst {
                index
                    + jobs[index..]
                        .iter()
                        .take_while(|j| j.stream == Stream::Burst && j.due == due)
                        .count()
            } else {
                index + 1
            };
            // Only pause with room for the whole burst: a `Block` submit into a
            // full queue would otherwise wait on paused workers forever.
            let atomic = end - index > 1 && engine.queue_len() + (end - index) <= QUEUE_CAPACITY;
            if atomic {
                engine.pause();
            }
            for (i, job) in jobs.iter().enumerate().take(end).skip(index) {
                lags_ms.push(1e3 * start.elapsed().saturating_sub(job.due).as_secs_f64());
                let mut spec = Some(inputs.spec(job));
                let mut submitted = None;
                spanned("qudit-serve.submit", &mut || {
                    submitted = spec.take().map(|s| engine.submit(s));
                });
                let handle_tx = match job.stream {
                    Stream::Burst => &burst_tx,
                    Stream::Trickle => &trickle_tx,
                };
                match submitted.expect("submit ran") {
                    Ok(handle) => {
                        if job.stream == Stream::Burst {
                            bursts_sent += 1;
                        }
                        handle_tx.send((i, handle)).expect("waiters outlive the sender");
                    }
                    Err(e) => seen[i] = Some(Seen::Rejected(e.to_string())),
                }
            }
            if atomic {
                engine.resume();
            }
            index = end;
        }
        drop((burst_tx, trickle_tx));
        spanned("harness.collect", &mut || {
            for (index, at, verdict) in done_rx.iter() {
                seen[index] = Some(Seen::Resolved(at - start, verdict));
            }
        });
    });
    let seen = seen.into_iter().map(|s| s.expect("every job resolved or rejected")).collect();
    Phase { seen, lags_ms, calibrations }
}

/// Latency of every resolved job in ms, split by stream, and per-period
/// burst makespans in s.
struct Latencies {
    all_ms: Vec<f64>,
    burst_ms: Vec<f64>,
    trickle_ms: Vec<f64>,
    makespans_s: Vec<f64>,
    misses: usize,
}

fn latencies(jobs: &[Job], phase: &Phase, periods: usize) -> Latencies {
    let mut out = Latencies {
        all_ms: Vec::new(),
        burst_ms: Vec::new(),
        trickle_ms: Vec::new(),
        makespans_s: Vec::new(),
        misses: 0,
    };
    let mut makespan = vec![Duration::ZERO; periods];
    let first_period = jobs.first().map_or(0, |j| j.period);
    for (job, seen) in jobs.iter().zip(&phase.seen) {
        match seen {
            Seen::Resolved(at, verdict) => {
                let latency = at.saturating_sub(job.due);
                let ms = 1e3 * latency.as_secs_f64();
                out.all_ms.push(ms);
                match job.stream {
                    Stream::Burst => {
                        out.burst_ms.push(ms);
                        let slot = &mut makespan[job.period - first_period];
                        *slot = (*slot).max(latency);
                    }
                    Stream::Trickle => out.trickle_ms.push(ms),
                }
                if latency > LATENCY_LIMIT || verdict.is_err() {
                    out.misses += 1;
                }
            }
            Seen::Rejected(_) => out.misses += 1,
        }
    }
    out.makespans_s = makespan.iter().map(Duration::as_secs_f64).collect();
    out
}

/// Records every job's check: completed, with a payload within
/// [`PAYLOAD_TOL`] of the direct simulator call on the same binding.
fn check_payloads(jobs: &[Job], phase: &Phase, checks: &mut Checks) {
    for (job, seen) in jobs.iter().zip(&phase.seen) {
        match seen {
            Seen::Resolved(_, Ok(worst)) => checks.record(*worst <= PAYLOAD_TOL, || {
                format!(
                    "{:?} job due at {:?}: payload off the direct call by {worst:e}",
                    job.stream, job.due
                )
            }),
            Seen::Resolved(_, Err(ended)) => {
                checks.record(false, || format!("job due at {:?} ended {ended}", job.due));
            }
            Seen::Rejected(e) => {
                checks.record(false, || format!("job due at {:?} rejected: {e}", job.due));
            }
        }
    }
}

/// Runs the workload; with `trace_path`, the traced variant.
///
/// # Errors
/// Returns an error if set-up or a reference computation fails.
pub fn run(opts: &Options, trace_path: Option<&Path>) -> Res<Report> {
    let periods = ((opts.seconds / PERIOD.as_secs_f64()).ceil() as usize).max(4);
    let cal = Calibrator::new();
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        let (started, t) = cal.timed(|| -> Res<_> {
            let inputs = Inputs::generate(opts.seed, opts.scale, periods)?;
            let engine = start_engine(&inputs)?;
            Ok((inputs, engine))
        });
        let (inputs, engine) = started?;
        setup_times.push(t);
        if let Some((_, old)) = ready.replace((inputs, engine)) {
            old.join();
        }
    }
    let (inputs, engine) = ready.expect("at least one set-up ran");
    let refs = inputs.references()?;
    let mut checks = Checks::default();

    let Some(trace_path) = trace_path else {
        let mut phase = open_loop(&engine, &inputs, &refs, &inputs.jobs, None, Some(&cal));
        engine.join();
        check_payloads(&inputs.jobs, &phase, &mut checks);
        if phase.calibrations.is_empty() {
            phase.calibrations.push(cal.unit());
        }
        let host = median(&phase.calibrations);
        let lat = latencies(&inputs.jobs, &phase, periods);
        let metrics = vec![
            Metric::new("setup_s", median(&setup_times), "s"),
            Metric::new("solve_s", rescale(median(&lat.makespans_s), host), "s"),
            Metric::new("job_latency_p50_ms", rescale(median(&lat.all_ms), host), "ms"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
        return Ok(Report { checks, metrics });
    };

    // Traced variant: the first half of the schedule untraced, the second
    // half with spans around every submit, idle wait and the final collect.
    let half = periods / 2;
    let split = inputs.jobs.iter().position(|j| j.period >= half).unwrap_or(inputs.jobs.len());
    let (first, second) = inputs.jobs.split_at(split);
    let untraced = open_loop(&engine, &inputs, &refs, first, None, None);
    // Re-base the second half's due times on its own loop start.
    let offset = PERIOD * half as u32;
    let second: Vec<Job> =
        second.iter().map(|j| Job { due: j.due - offset, ..j.clone() }).collect();
    let tr = Tracer::new();
    let traced =
        tr.span(SOLVE_SPAN, || open_loop(&engine, &inputs, &refs, &second, Some(&tr), None));
    let stats = engine.stats();
    engine.join();
    tr.write_jsonl(trace_path)?;
    check_payloads(first, &untraced, &mut checks);
    check_payloads(&second, &traced, &mut checks);

    let base = latencies(first, &untraced, half);
    let lat = latencies(&second, &traced, periods - half);
    let traced_periods = (periods - half) as f64;
    let mut given = serve_stats(&stats);
    given.extend([
        Metric::new("qudit-serve.latency.burst_p50_ms", median(&lat.burst_ms), "ms"),
        Metric::new("qudit-serve.latency.trickle_p50_ms", median(&lat.trickle_ms), "ms"),
        Metric::new("qudit-serve.latency.p99_ms", quantile(&lat.all_ms, 0.99), "ms"),
        Metric::new("job_latency_p90_ms", quantile(&lat.all_ms, 0.9), "ms"),
        Metric::new("limit_miss_frac", lat.misses as f64 / second.len().max(1) as f64, "ratio"),
        Metric::new(
            "harness.generator_lag_ms",
            traced.lags_ms.iter().copied().fold(0.0, f64::max),
            "ms",
        ),
        Metric::new(
            "harness.trace_overhead",
            median(&lat.makespans_s) / median(&base.makespans_s),
            "ratio",
        ),
        Metric::new(
            "harness.layer_coverage",
            tr.child_busy_s(SOLVE_SPAN) / tr.busy_s(SOLVE_SPAN),
            "ratio",
        ),
    ]);
    // Per period: `burst` runs of the ansatz plan, `trickle` of the
    // reservoir plan.
    let mut counts = PlanCounts::default();
    let mut sv_plan = StatevectorSimulator::new().compile(&inputs.ansatz)?;
    sv_plan.bind(&inputs.bindings[0])?;
    counts.add_statevector(&sv_plan, inputs.burst as f64);
    let mut dm_plan = DensityMatrixSimulator::new().compile(&inputs.reservoir)?;
    dm_plan.bind(&[0.25])?;
    counts.add_density(&dm_plan, inputs.trickle as f64);
    given.extend(counts.metrics());
    Ok(Report { checks, metrics: per_layer(&tr, traced_periods, given) })
}

/// The engine's counters as per-layer metrics (whole run, warm-up included).
fn serve_stats(s: &ServeStats) -> Vec<Metric> {
    let hits = s.statevector_cache.hits + s.density_cache.hits;
    let misses = s.statevector_cache.misses + s.density_cache.misses;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    vec![
        Metric::new("qudit-serve.cache.hits", hits as f64, "count"),
        Metric::new("qudit-serve.cache.misses", misses as f64, "count"),
        Metric::new("qudit-serve.cache.hit_ratio", ratio(hits, hits + misses), "ratio"),
        Metric::new("qudit-serve.coalesce.batches", s.batches as f64, "count"),
        Metric::new("qudit-serve.coalesce.mean_width", ratio(s.batched_jobs, s.batches), "count"),
        Metric::new("qudit-serve.coalesce.share", ratio(s.batched_jobs, s.completed), "ratio"),
        Metric::new("qudit-serve.retries", s.retries as f64, "count"),
        Metric::new("qudit-serve.shed", s.shed as f64, "count"),
        Metric::new("qudit-serve.rejected", s.rejected as f64, "count"),
    ]
}
