//! The job engine: bounded submission, worker pool, per-job deadlines and
//! cancellation, retry escalation, panic isolation, graceful shutdown.
//!
//! # Job lifecycle
//!
//! ```text
//! submit ──► Queued ──► Running ──► Completed | Failed | Cancelled | Panicked
//!    │                     ▲
//!    │                     └── retries (NumericalHealth only, escalating
//!    │                         guard policy, exponential backoff)
//!    └──► Rejected (queue full / shutting down)   Queued ──► Shed (policy)
//! ```
//!
//! Every job carries a [`CancelToken`] shared with its [`JobHandle`]: the
//! client can trip it explicitly, and a per-job deadline (measured from
//! *submission*, so queue wait counts) arms the token's deadline clock. The
//! token is threaded into the simulator, which polls it at the guard-cadence
//! checkpoints — a cancelled job stops within one cadence interval and
//! surfaces here as [`JobOutcome::Cancelled`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use qudit_circuit::error::CircuitError;
use qudit_circuit::noise::NoiseModel;
use qudit_circuit::sim::{
    CancelReason, CancelToken, CompiledCircuit, CompiledDensityCircuit, DensityMatrixSimulator,
    GuardConfig, GuardPolicy, StatevectorSimulator,
};
use qudit_circuit::Circuit;
use qudit_core::error::CoreError;

use crate::cache::{CacheStats, PlanCache};
use crate::queue::BoundedQueue;

/// What to do when a submission arrives and the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Fail the submission immediately with [`SubmitError::QueueFull`].
    #[default]
    Reject,
    /// Block the submitting thread until a slot frees up (or the engine
    /// shuts down, which fails the submission).
    Block,
    /// Admit the new job by resolving the longest-waiting queued job with
    /// [`JobOutcome::Shed`].
    ShedOldest,
}

/// Engine configuration. All knobs have serving-oriented defaults; override
/// with the builder methods.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing jobs (clamped to at least 1).
    pub workers: usize,
    /// Maximum queued (not yet running) jobs (clamped to at least 1).
    pub queue_capacity: usize,
    /// Reaction to a full queue.
    pub backpressure: Backpressure,
    /// Deadline applied to jobs that do not carry their own; measured from
    /// submission, so time spent queued counts against it.
    pub default_deadline: Option<Duration>,
    /// Maximum re-runs after a transient `NumericalHealth` failure.
    pub max_retries: usize,
    /// Base sleep before the first retry; doubles per attempt.
    pub retry_backoff: Duration,
    /// Ready-plan capacity of each plan cache; `0` compiles per request.
    pub plan_cache_capacity: usize,
    /// Numerical-health guard applied to every run; retries escalate its
    /// policy (`RenormalizeAndCount`, then `FallBack`) on top of this base.
    pub guard: GuardConfig,
    /// Noise model compiled into every plan.
    pub noise: NoiseModel,
    /// Base RNG seed; each job derives its own reproducible stream from it.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            backpressure: Backpressure::Reject,
            default_deadline: None,
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            plan_cache_capacity: 32,
            guard: GuardConfig::enabled(),
            noise: NoiseModel::noiseless(),
            seed: 0x5E27E,
        }
    }
}

impl ServeConfig {
    /// Sets the worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the submission-queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the full-queue policy.
    pub fn with_backpressure(mut self, policy: Backpressure) -> Self {
        self.backpressure = policy;
        self
    }

    /// Sets the deadline applied to jobs without their own.
    pub fn with_default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }

    /// Sets the transient-failure retry budget.
    pub fn with_max_retries(mut self, retries: usize) -> Self {
        self.max_retries = retries;
        self
    }

    /// Sets the base retry backoff (doubles per attempt).
    pub fn with_retry_backoff(mut self, backoff: Duration) -> Self {
        self.retry_backoff = backoff;
        self
    }

    /// Sets the plan-cache capacity (`0` disables caching).
    pub fn with_plan_cache_capacity(mut self, capacity: usize) -> Self {
        self.plan_cache_capacity = capacity;
        self
    }

    /// Sets the base numerical-health guard.
    pub fn with_guard(mut self, guard: GuardConfig) -> Self {
        self.guard = guard;
        self
    }

    /// Sets the noise model compiled into every plan.
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Sets the base RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// What a job computes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobKind {
    /// Run the statevector simulator and return the final outcome
    /// probabilities `|⟨i|ψ⟩|²` over the full register.
    StatevectorProbs,
    /// Run the density-matrix simulator and return the diagonal populations
    /// `⟨i|ρ|i⟩` over the full register.
    DensityDiagonal,
    /// Panics inside the worker — exists only to exercise the engine's
    /// panic isolation in the fault-injection test matrix.
    #[cfg(feature = "fault-inject")]
    InjectPanic,
}

/// A job submission: circuit, computation kind, optional parameter binding
/// and deadline.
#[derive(Debug, Clone)]
pub struct JobSpec {
    circuit: Circuit,
    kind: JobKind,
    params: Option<Vec<f64>>,
    deadline: Option<Duration>,
}

impl JobSpec {
    /// A statevector job returning outcome probabilities.
    pub fn statevector(circuit: Circuit) -> Self {
        Self { circuit, kind: JobKind::StatevectorProbs, params: None, deadline: None }
    }

    /// A density-matrix job returning diagonal populations.
    pub fn density(circuit: Circuit) -> Self {
        Self { circuit, kind: JobKind::DensityDiagonal, params: None, deadline: None }
    }

    /// A job whose execution panics (fault-injection builds only), for
    /// testing worker panic isolation.
    #[cfg(feature = "fault-inject")]
    pub fn inject_panic() -> Self {
        Self {
            circuit: Circuit::new(vec![2]),
            kind: JobKind::InjectPanic,
            params: None,
            deadline: None,
        }
    }

    /// Binds the circuit's free parameters before the run.
    pub fn with_params(mut self, params: Vec<f64>) -> Self {
        self.params = Some(params);
        self
    }

    /// Sets a per-job deadline, measured from submission.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Terminal state of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The job ran to completion; payload depends on the [`JobKind`].
    Completed(Vec<f64>),
    /// The job failed with a non-transient error (or exhausted its retry
    /// budget on a transient one).
    Failed(CircuitError),
    /// The job's token tripped — explicitly or by deadline — before or
    /// during the run.
    Cancelled(CancelReason),
    /// The job panicked; the engine caught it and the worker survived.
    Panicked(String),
    /// The job was dropped from the queue by the `ShedOldest` policy.
    Shed,
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is full and the policy is [`Backpressure::Reject`].
    QueueFull,
    /// The engine is shutting down and admits no new work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "submission queue is full"),
            SubmitError::ShuttingDown => write!(f, "engine is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Counter snapshot for a running engine (see [`ServeEngine::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs admitted to the queue.
    pub submitted: u64,
    /// Jobs resolved [`JobOutcome::Completed`].
    pub completed: u64,
    /// Jobs resolved [`JobOutcome::Failed`].
    pub failed: u64,
    /// Jobs resolved [`JobOutcome::Cancelled`].
    pub cancelled: u64,
    /// Jobs resolved [`JobOutcome::Panicked`].
    pub panicked: u64,
    /// Jobs resolved [`JobOutcome::Shed`].
    pub shed: u64,
    /// Submissions refused ([`SubmitError`]).
    pub rejected: u64,
    /// Transient-failure re-runs across all jobs.
    pub retries: u64,
    /// Always 0: the engine runs every job on its own and never batches.
    /// Kept only because the application benchmark (`appbench/`) still
    /// reads it; the next benchmark change removes it.
    pub batches: u64,
    /// Always 0, like [`batches`](Self::batches), and kept for the same
    /// reason.
    pub batched_jobs: u64,
    /// Statevector plan-cache counters.
    pub statevector_cache: CacheStats,
    /// Density plan-cache counters.
    pub density_cache: CacheStats,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    panicked: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
    retries: AtomicU64,
}

/// One-shot outcome slot shared between a worker and the job's handle.
#[derive(Debug, Default)]
struct OutcomeCell {
    slot: Mutex<Option<JobOutcome>>,
    done: Condvar,
}

impl OutcomeCell {
    fn resolve(&self, outcome: JobOutcome) {
        let mut slot = self.slot.lock().expect("outcome cell poisoned");
        if slot.is_none() {
            *slot = Some(outcome);
            self.done.notify_all();
        }
    }

    fn wait(&self) -> JobOutcome {
        let mut slot = self.slot.lock().expect("outcome cell poisoned");
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            slot = self.done.wait(slot).expect("outcome cell poisoned");
        }
    }

    fn try_get(&self) -> Option<JobOutcome> {
        self.slot.lock().expect("outcome cell poisoned").clone()
    }
}

/// Client-side handle to a submitted job: await, poll or cancel it.
#[derive(Debug)]
pub struct JobHandle {
    id: u64,
    token: CancelToken,
    cell: Arc<OutcomeCell>,
}

impl JobHandle {
    /// Engine-assigned job id (also the job's RNG-stream discriminator).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Requests cooperative cancellation: the job stops at its next
    /// guard-cadence checkpoint (immediately, if still queued).
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// Blocks until the job reaches a terminal state.
    pub fn wait(&self) -> JobOutcome {
        self.cell.wait()
    }

    /// Returns the outcome if the job has already resolved.
    pub fn try_outcome(&self) -> Option<JobOutcome> {
        self.cell.try_get()
    }
}

struct Job {
    id: u64,
    kind: JobKind,
    circuit: Circuit,
    params: Option<Vec<f64>>,
    structural_hash: u64,
    token: CancelToken,
    cell: Arc<OutcomeCell>,
}

struct EngineState {
    queue: BoundedQueue<Job>,
    in_flight: usize,
    shutdown: bool,
    paused: bool,
}

struct Shared {
    config: ServeConfig,
    state: Mutex<EngineState>,
    /// Workers wait here for queued jobs (or shutdown).
    work: Condvar,
    /// `Block`-policy submitters wait here for queue space.
    space: Condvar,
    /// `drain` callers wait here for queue-empty + nothing in flight.
    idle: Condvar,
    sv_cache: PlanCache<CompiledCircuit>,
    density_cache: PlanCache<CompiledDensityCircuit>,
    counters: Counters,
    next_id: AtomicU64,
}

/// The serving engine: a worker pool fed by a bounded FIFO queue, with
/// shared single-flight plan caches. See the crate-level docs for the job
/// lifecycle.
pub struct ServeEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ServeEngine {
    /// Starts the worker pool and returns the running engine.
    pub fn start(config: ServeConfig) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(EngineState {
                queue: BoundedQueue::new(config.queue_capacity),
                in_flight: 0,
                shutdown: false,
                paused: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            idle: Condvar::new(),
            sv_cache: PlanCache::new(config.plan_cache_capacity),
            density_cache: PlanCache::new(config.plan_cache_capacity),
            counters: Counters::default(),
            next_id: AtomicU64::new(0),
            config,
        });
        let workers = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("qudit-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("worker thread spawn")
            })
            .collect();
        Self { shared, workers }
    }

    /// Submits a job, applying the configured backpressure policy if the
    /// queue is full.
    ///
    /// # Errors
    /// [`SubmitError::QueueFull`] under the `Reject` policy, or
    /// [`SubmitError::ShuttingDown`] once shutdown has begun (including
    /// while a `Block`-policy submission is waiting for space).
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        let shared = &self.shared;
        let deadline = spec.deadline.or(shared.config.default_deadline);
        let token = match deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let cell = Arc::new(OutcomeCell::default());
        let job = Job {
            id,
            structural_hash: spec.circuit.structural_hash(),
            kind: spec.kind,
            circuit: spec.circuit,
            params: spec.params,
            token: token.clone(),
            cell: Arc::clone(&cell),
        };

        let mut state = shared.state.lock().expect("engine state poisoned");
        loop {
            if state.shutdown {
                shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::ShuttingDown);
            }
            if !state.queue.is_full() {
                break;
            }
            match shared.config.backpressure {
                Backpressure::Reject => {
                    shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(SubmitError::QueueFull);
                }
                Backpressure::Block => {
                    state = shared.space.wait(state).expect("engine state poisoned");
                }
                Backpressure::ShedOldest => {
                    if let Some(old) = state.queue.pop_oldest() {
                        shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                        old.cell.resolve(JobOutcome::Shed);
                    }
                    break;
                }
            }
        }
        state.queue.push(job);
        shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
        drop(state);
        shared.work.notify_one();
        Ok(JobHandle { id, token, cell })
    }

    /// Stops workers from starting new jobs (in-flight jobs continue).
    /// Deterministic queue-saturation tests use this to fill the queue.
    pub fn pause(&self) {
        self.shared.state.lock().expect("engine state poisoned").paused = true;
    }

    /// Resumes job dispatch after [`pause`](Self::pause).
    pub fn resume(&self) {
        self.shared.state.lock().expect("engine state poisoned").paused = false;
        self.shared.work.notify_all();
    }

    /// Number of jobs queued but not yet running.
    pub fn queue_len(&self) -> usize {
        self.shared.state.lock().expect("engine state poisoned").queue.len()
    }

    /// Blocks until the queue is empty and no job is in flight. (With the
    /// engine paused and jobs queued, this waits until it is resumed.)
    pub fn drain(&self) {
        let mut state = self.shared.state.lock().expect("engine state poisoned");
        while !state.queue.is_empty() || state.in_flight > 0 {
            state = self.shared.idle.wait(state).expect("engine state poisoned");
        }
    }

    /// Begins graceful shutdown: new submissions are rejected, queued and
    /// in-flight jobs run to completion. Idempotent; does not block — use
    /// [`join`](Self::join) to wait for the drain.
    pub fn shutdown(&self) {
        {
            let mut state = self.shared.state.lock().expect("engine state poisoned");
            state.shutdown = true;
            // Shutdown overrides pause so the drain always makes progress.
            state.paused = false;
        }
        self.shared.work.notify_all();
        self.shared.space.notify_all();
    }

    /// Graceful shutdown plus join: drains every queued and in-flight job,
    /// then stops the workers.
    pub fn join(mut self) {
        self.shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// Counter snapshot (monotone; taken without stopping the engine).
    pub fn stats(&self) -> ServeStats {
        let c = &self.shared.counters;
        ServeStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            panicked: c.panicked.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            batches: 0,
            batched_jobs: 0,
            statevector_cache: self.shared.sv_cache.stats(),
            density_cache: self.shared.density_cache.stats(),
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("engine state poisoned");
            loop {
                // Shutdown overrides pause: the queue must drain.
                if state.shutdown || !state.paused {
                    if let Some(job) = state.queue.pop_oldest() {
                        state.in_flight += 1;
                        break job;
                    }
                    if state.shutdown {
                        return;
                    }
                }
                state = shared.work.wait(state).expect("engine state poisoned");
            }
        };
        // A queue slot just freed: wake blocked submitters.
        shared.space.notify_all();

        let outcome = execute(shared, &job);
        record_outcome(&shared.counters, &outcome);
        job.cell.resolve(outcome);

        let mut state = shared.state.lock().expect("engine state poisoned");
        state.in_flight -= 1;
        if state.queue.is_empty() && state.in_flight == 0 {
            shared.idle.notify_all();
        }
    }
}

fn record_outcome(counters: &Counters, outcome: &JobOutcome) {
    let counter = match outcome {
        JobOutcome::Completed(_) => &counters.completed,
        JobOutcome::Failed(_) => &counters.failed,
        JobOutcome::Cancelled(_) => &counters.cancelled,
        JobOutcome::Panicked(_) => &counters.panicked,
        JobOutcome::Shed => &counters.shed,
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Guard escalation ladder for transient-failure retries: the first re-run
/// upgrades the policy to `RenormalizeAndCount` (repair-and-continue), the
/// second to `FallBack` (degrade superoperator sweeps to their constituent
/// operations). Cadence and tolerance carry over from the base guard.
fn escalated_guard(base: GuardConfig, attempt: usize) -> GuardConfig {
    match attempt {
        0 => base,
        1 => GuardConfig::enabled()
            .with_cadence(base.cadence)
            .with_tol(base.tol)
            .with_policy(GuardPolicy::RenormalizeAndCount),
        _ => GuardConfig::enabled()
            .with_cadence(base.cadence)
            .with_tol(base.tol)
            .with_policy(GuardPolicy::FallBack),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one job to a terminal outcome: checks the token (a deadline that
/// expired while queued cancels without running), then retries transient
/// `NumericalHealth` failures up to the configured budget with exponential
/// backoff and an escalating guard policy. Panics are caught per attempt.
fn execute(shared: &Shared, job: &Job) -> JobOutcome {
    if let Some(reason) = job.token.status() {
        return JobOutcome::Cancelled(reason);
    }
    let mut attempt = 0usize;
    loop {
        let guard = escalated_guard(shared.config.guard, attempt);
        match catch_unwind(AssertUnwindSafe(|| run_once(shared, job, guard))) {
            Err(payload) => return JobOutcome::Panicked(panic_message(payload.as_ref())),
            Ok(Ok(values)) => return JobOutcome::Completed(values),
            Ok(Err(CircuitError::Core(CoreError::Cancelled { reason, .. }))) => {
                return JobOutcome::Cancelled(reason)
            }
            Ok(Err(err)) => {
                let transient =
                    matches!(err, CircuitError::Core(CoreError::NumericalHealth { .. }));
                if transient && attempt < shared.config.max_retries {
                    shared.counters.retries.fetch_add(1, Ordering::Relaxed);
                    let backoff =
                        shared.config.retry_backoff.saturating_mul(1u32 << attempt.min(16));
                    if !backoff.is_zero() {
                        thread::sleep(backoff);
                    }
                    attempt += 1;
                    continue;
                }
                return JobOutcome::Failed(err);
            }
        }
    }
}

/// Debug-build translation validation: every freshly compiled statevector
/// plan is verified against its source circuit before entering the cache.
/// Release builds skip the check; the `qudit-verify` mutation suite is the
/// standing evidence that these checks bite.
#[cfg(debug_assertions)]
fn debug_verify_sv(circuit: &Circuit, plan: &CompiledCircuit, noise: &NoiseModel) {
    let vcfg = qudit_verify::VerifyConfig::default().with_noise(noise.clone());
    if let Err(err) = qudit_verify::verify_statevector(circuit, plan, &vcfg) {
        panic!("translation validation failed for a served statevector plan: {err}");
    }
}

/// Debug-build translation validation for density plans (see
/// [`debug_verify_sv`]).
#[cfg(debug_assertions)]
fn debug_verify_density(circuit: &Circuit, plan: &CompiledDensityCircuit, noise: &NoiseModel) {
    let vcfg = qudit_verify::VerifyConfig::default().with_noise(noise.clone());
    if let Err(err) = qudit_verify::verify_density(circuit, plan, &vcfg) {
        panic!("translation validation failed for a served density plan: {err}");
    }
}

/// One attempt: fetch (or compile) the shared plan, overlay the job's
/// parameter binding, and run with the job's token and this attempt's guard.
fn run_once(shared: &Shared, job: &Job, guard: GuardConfig) -> Result<Vec<f64>, CircuitError> {
    let cfg = &shared.config;
    // Per-job reproducible RNG stream, independent of scheduling order.
    let seed = cfg.seed ^ job.id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    match job.kind {
        JobKind::StatevectorProbs => {
            let mut plan = shared.sv_cache.get_or_compile(job.structural_hash, || {
                let plan = StatevectorSimulator::new()
                    .with_noise(cfg.noise.clone())
                    .compile(&job.circuit)?;
                #[cfg(debug_assertions)]
                debug_verify_sv(&job.circuit, &plan, &cfg.noise);
                Ok::<_, CircuitError>(plan)
            })?;
            // A structural-hash collision would hand this job a plan for a
            // different circuit; the cheap shape invariants catch that class.
            debug_assert_eq!(
                plan.dims(),
                job.circuit.dims(),
                "plan-cache hit returned a plan with mismatched dimensions"
            );
            debug_assert_eq!(
                plan.num_params(),
                job.circuit.num_params(),
                "plan-cache hit returned a plan with mismatched parameter count"
            );
            if let Some(params) = &job.params {
                plan.bind(params)?;
            }
            // Jobs are the unit of parallelism: each runs on one thread.
            let sim = StatevectorSimulator::with_seed(seed)
                .with_noise(cfg.noise.clone())
                .with_threads(1)
                .with_guard(guard)
                .with_cancel(job.token.clone());
            let out = sim.run_compiled(&plan, None)?;
            Ok(out.state.probabilities())
        }
        JobKind::DensityDiagonal => {
            let mut plan = shared.density_cache.get_or_compile(job.structural_hash, || {
                let plan = DensityMatrixSimulator::new()
                    .with_noise(cfg.noise.clone())
                    .compile(&job.circuit)?;
                #[cfg(debug_assertions)]
                debug_verify_density(&job.circuit, &plan, &cfg.noise);
                Ok::<_, CircuitError>(plan)
            })?;
            debug_assert_eq!(
                plan.dims(),
                job.circuit.dims(),
                "plan-cache hit returned a plan with mismatched dimensions"
            );
            debug_assert_eq!(
                plan.num_params(),
                job.circuit.num_params(),
                "plan-cache hit returned a plan with mismatched parameter count"
            );
            if let Some(params) = &job.params {
                plan.bind(params)?;
            }
            let sim = DensityMatrixSimulator::new()
                .with_seed(seed)
                .with_noise(cfg.noise.clone())
                .with_threads(1)
                .with_guard(guard)
                .with_cancel(job.token.clone());
            let (rho, _) = sim.run_compiled(&plan, None)?;
            let m = rho.matrix();
            Ok((0..m.rows()).map(|i| m[(i, i)].re).collect())
        }
        #[cfg(feature = "fault-inject")]
        JobKind::InjectPanic => panic!("injected panic for isolation testing"),
    }
}
