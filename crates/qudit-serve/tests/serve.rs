//! Engine-level integration tests: backpressure per policy, deadlines,
//! cancellation, retry escalation, graceful shutdown and plan-cache sharing.
//!
//! Saturation tests use [`ServeEngine::pause`] so the queue fills
//! deterministically before any worker dispatches a job.

use std::time::Duration;

use qudit_circuit::noise::NoiseModel;
use qudit_circuit::sim::{DensityMatrixSimulator, StatevectorSimulator};
use qudit_circuit::{Circuit, Gate, Param};
use qudit_core::matrix::CMatrix;
use qudit_serve::{
    Backpressure, CancelReason, GuardConfig, JobOutcome, JobSpec, ServeConfig, ServeEngine,
    SubmitError,
};

/// A small deterministic two-qutrit circuit (no measurements, no free
/// parameters).
fn fixed_circuit() -> Circuit {
    let mut c = Circuit::new(vec![3, 3]);
    c.push(Gate::fourier(3), &[0]).unwrap();
    c.push(Gate::csum(3, 3), &[0, 1]).unwrap();
    c.push(Gate::phase_on_level(3, 1, 0.4), &[1]).unwrap();
    c
}

/// A QAOA-style parameterized qutrit circuit reading `Param::Free(0)`: the
/// structural hash identifies free parameters by index, so every binding of
/// this circuit shares one cached plan.
fn parameterized_circuit() -> Circuit {
    let mut c = Circuit::new(vec![3]);
    c.push(Gate::fourier(3), &[0]).unwrap();
    // A non-diagonal (mixer-style) generator, so the binding angle changes
    // the outcome distribution, not just the phases.
    let mixer = CMatrix::from_fn(3, 3, |r, s| {
        if r.abs_diff(s) == 1 {
            qudit_core::Complex64::new(1.0, 0.0)
        } else {
            qudit_core::Complex64::new(0.0, 0.0)
        }
    });
    c.push(Gate::parameterized("mix0", vec![3], &mixer, Param::Free(0)).unwrap(), &[0]).unwrap();
    c
}

/// A deeper circuit used where the job should still be running when the
/// client cancels it.
fn deep_circuit(depth: usize) -> Circuit {
    let mut c = Circuit::new(vec![3, 3, 3]);
    for i in 0..depth {
        c.push(Gate::fourier(3), &[i % 3]).unwrap();
        c.push(Gate::csum(3, 3), &[i % 3, (i + 1) % 3]).unwrap();
    }
    c
}

fn expect_completed(outcome: JobOutcome) -> Vec<f64> {
    match outcome {
        JobOutcome::Completed(values) => values,
        other => panic!("expected Completed, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Happy path & shutdown.
// ---------------------------------------------------------------------------

#[test]
fn mixed_workload_completes_and_conserves_probability() {
    let engine = ServeEngine::start(ServeConfig::default().with_workers(3));
    let mut handles = Vec::new();
    for i in 0..12 {
        let spec = if i % 2 == 0 {
            JobSpec::statevector(fixed_circuit())
        } else {
            JobSpec::density(fixed_circuit())
        };
        handles.push(engine.submit(spec).unwrap());
    }
    for handle in &handles {
        let values = expect_completed(handle.wait());
        assert_eq!(values.len(), 9);
        assert!((values.iter().sum::<f64>() - 1.0).abs() < 1e-10);
    }
    let stats = engine.stats();
    assert_eq!(stats.completed, 12);
    assert_eq!(stats.submitted, 12);
    engine.join();
}

#[test]
fn identical_jobs_are_reproducible_across_scheduling() {
    // The same spec submitted twice resolves to bitwise-identical payloads:
    // plans are shared and RNG streams derive from the base seed per kind.
    let engine = ServeEngine::start(ServeConfig::default().with_workers(4));
    let a = engine.submit(JobSpec::density(fixed_circuit())).unwrap();
    let b = engine.submit(JobSpec::density(fixed_circuit())).unwrap();
    assert_eq!(expect_completed(a.wait()), expect_completed(b.wait()));
    engine.join();
}

#[test]
fn graceful_shutdown_drains_queued_jobs_and_rejects_new_ones() {
    let engine = ServeEngine::start(ServeConfig::default().with_workers(2));
    engine.pause();
    let handles: Vec<_> =
        (0..6).map(|_| engine.submit(JobSpec::statevector(fixed_circuit())).unwrap()).collect();
    assert_eq!(engine.queue_len(), 6);
    // Shutdown overrides pause: every queued job still runs to completion.
    engine.shutdown();
    assert_eq!(
        engine.submit(JobSpec::statevector(fixed_circuit())).unwrap_err(),
        SubmitError::ShuttingDown
    );
    for handle in &handles {
        expect_completed(handle.wait());
    }
    let stats = engine.stats();
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.rejected, 1);
    engine.join();
}

// ---------------------------------------------------------------------------
// Backpressure policies.
// ---------------------------------------------------------------------------

fn saturated_engine(policy: Backpressure) -> (ServeEngine, Vec<qudit_serve::JobHandle>) {
    let engine = ServeEngine::start(
        ServeConfig::default().with_workers(1).with_queue_capacity(3).with_backpressure(policy),
    );
    engine.pause();
    let handles =
        (0..3).map(|_| engine.submit(JobSpec::statevector(fixed_circuit())).unwrap()).collect();
    assert_eq!(engine.queue_len(), 3);
    (engine, handles)
}

#[test]
fn reject_policy_fails_submissions_at_capacity() {
    let (engine, handles) = saturated_engine(Backpressure::Reject);
    assert_eq!(
        engine.submit(JobSpec::statevector(fixed_circuit())).unwrap_err(),
        SubmitError::QueueFull
    );
    engine.resume();
    for handle in &handles {
        expect_completed(handle.wait());
    }
    assert_eq!(engine.stats().rejected, 1);
    engine.join();
}

#[test]
fn shed_oldest_policy_drops_the_longest_waiting_job() {
    let (engine, handles) = saturated_engine(Backpressure::ShedOldest);
    let late = engine.submit(JobSpec::statevector(fixed_circuit())).unwrap();
    // The first-submitted job was shed to admit the new one.
    assert_eq!(handles[0].wait(), JobOutcome::Shed);
    engine.resume();
    for handle in &handles[1..] {
        expect_completed(handle.wait());
    }
    expect_completed(late.wait());
    let stats = engine.stats();
    assert_eq!((stats.shed, stats.completed), (1, 3));
    engine.join();
}

#[test]
fn block_policy_waits_for_a_free_slot() {
    let (engine, handles) = saturated_engine(Backpressure::Block);
    let engine = std::sync::Arc::new(engine);
    let submitter = {
        let engine = std::sync::Arc::clone(&engine);
        std::thread::spawn(move || {
            // Blocks until `resume` lets a worker free a slot.
            engine.submit(JobSpec::statevector(fixed_circuit())).unwrap().wait()
        })
    };
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(engine.queue_len(), 3, "submission must still be blocked");
    engine.resume();
    expect_completed(submitter.join().unwrap());
    for handle in &handles {
        expect_completed(handle.wait());
    }
    engine.drain();
    assert_eq!(engine.stats().completed, 4);
}

// ---------------------------------------------------------------------------
// Deadlines & cancellation.
// ---------------------------------------------------------------------------

#[test]
fn deadline_expired_while_queued_cancels_without_running() {
    let engine = ServeEngine::start(ServeConfig::default().with_workers(1));
    engine.pause();
    let handle =
        engine.submit(JobSpec::statevector(fixed_circuit()).with_deadline(Duration::ZERO)).unwrap();
    engine.resume();
    assert_eq!(handle.wait(), JobOutcome::Cancelled(CancelReason::DeadlineExceeded));
    assert_eq!(engine.stats().cancelled, 1);
    engine.join();
}

#[test]
fn default_deadline_applies_to_jobs_without_their_own() {
    let engine = ServeEngine::start(
        ServeConfig::default().with_workers(1).with_default_deadline(Duration::ZERO),
    );
    engine.pause();
    let handle = engine.submit(JobSpec::statevector(fixed_circuit())).unwrap();
    engine.resume();
    assert_eq!(handle.wait(), JobOutcome::Cancelled(CancelReason::DeadlineExceeded));
    engine.join();
}

#[test]
fn client_cancellation_resolves_the_job_as_cancelled() {
    // Cancel before resuming: the worker observes the tripped token at its
    // entry checkpoint regardless of how fast the job would have run.
    let engine = ServeEngine::start(
        ServeConfig::default().with_workers(1).with_guard(GuardConfig::enabled().with_cadence(1)),
    );
    engine.pause();
    let victim = engine.submit(JobSpec::density(deep_circuit(12))).unwrap();
    let survivor = engine.submit(JobSpec::statevector(fixed_circuit())).unwrap();
    victim.cancel();
    engine.resume();
    assert_eq!(victim.wait(), JobOutcome::Cancelled(CancelReason::Requested));
    expect_completed(survivor.wait());
    let stats = engine.stats();
    assert_eq!((stats.cancelled, stats.completed), (1, 1));
    engine.join();
}

#[test]
fn try_outcome_is_none_while_queued() {
    let engine = ServeEngine::start(ServeConfig::default().with_workers(1));
    engine.pause();
    let handle = engine.submit(JobSpec::statevector(fixed_circuit())).unwrap();
    assert_eq!(handle.try_outcome(), None);
    engine.resume();
    expect_completed(handle.wait());
    assert!(matches!(handle.try_outcome(), Some(JobOutcome::Completed(_))));
    engine.join();
}

// ---------------------------------------------------------------------------
// Retry escalation ladder.
// ---------------------------------------------------------------------------

#[test]
fn transient_health_failures_retry_with_escalated_policy() {
    // A negative tolerance trips the guard at every checkpoint. Attempt 0
    // (policy `Fail`) errors; the first retry escalates to
    // `RenormalizeAndCount`, which repairs and completes.
    let engine = ServeEngine::start(
        ServeConfig::default()
            .with_workers(1)
            .with_max_retries(2)
            .with_retry_backoff(Duration::ZERO)
            .with_guard(GuardConfig::enabled().with_tol(-1.0)),
    );
    let handle = engine.submit(JobSpec::statevector(fixed_circuit())).unwrap();
    expect_completed(handle.wait());
    let stats = engine.stats();
    assert_eq!((stats.completed, stats.failed), (1, 0));
    assert_eq!(stats.retries, 1, "exactly one escalation should be needed");
    engine.join();
}

#[test]
fn exhausted_retry_budget_fails_the_job() {
    let engine = ServeEngine::start(
        ServeConfig::default()
            .with_workers(1)
            .with_max_retries(0)
            .with_guard(GuardConfig::enabled().with_tol(-1.0)),
    );
    let handle = engine.submit(JobSpec::statevector(fixed_circuit())).unwrap();
    assert!(matches!(handle.wait(), JobOutcome::Failed(_)));
    let stats = engine.stats();
    assert_eq!((stats.failed, stats.retries), (1, 0));
    engine.join();
}

// ---------------------------------------------------------------------------
// Plan-cache sharing.
// ---------------------------------------------------------------------------

#[test]
fn repeated_submissions_compile_once() {
    let engine = ServeEngine::start(ServeConfig::default().with_workers(1));
    // Sequential round trips: every run consults the shared cache.
    for _ in 0..8 {
        expect_completed(engine.submit(JobSpec::statevector(fixed_circuit())).unwrap().wait());
    }
    let cache = engine.stats().statevector_cache;
    assert_eq!(cache.misses, 1, "one structural hash must compile exactly once");
    assert_eq!(cache.hits, 7);
    engine.join();
}

#[test]
fn different_parameter_bindings_share_one_cached_plan() {
    // Free parameters hash by index, so bindings are plan-cache-invisible;
    // the engine rebinds the shared plan per request.
    let engine = ServeEngine::start(ServeConfig::default().with_workers(2));
    let thetas = [0.0, 0.7, 1.4, 2.1];
    let handles: Vec<_> = thetas
        .iter()
        .map(|&theta| {
            engine
                .submit(JobSpec::statevector(parameterized_circuit()).with_params(vec![theta]))
                .unwrap()
        })
        .collect();
    let results: Vec<Vec<f64>> = handles.iter().map(|h| expect_completed(h.wait())).collect();
    let cache = engine.stats().statevector_cache;
    assert_eq!(cache.misses, 1, "all bindings must share one compiled topology");
    // The bindings genuinely differ: different angles give different
    // distributions.
    assert_ne!(results[0], results[1]);
    engine.join();
}

#[test]
fn disabled_cache_compiles_per_request() {
    let engine =
        ServeEngine::start(ServeConfig::default().with_workers(1).with_plan_cache_capacity(0));
    for _ in 0..3 {
        let handle = engine.submit(JobSpec::statevector(fixed_circuit())).unwrap();
        expect_completed(handle.wait());
    }
    let cache = engine.stats().statevector_cache;
    assert_eq!((cache.misses, cache.hits), (3, 0));
    engine.join();
}

// ---------------------------------------------------------------------------
// Queued same-plan jobs.
// ---------------------------------------------------------------------------

/// Submits one `parameterized_circuit` job per angle while `engine` is
/// paused, resumes it, and returns the payloads in submission order.
fn queued_parameterized_payloads(engine: &ServeEngine, thetas: &[f64]) -> Vec<Vec<f64>> {
    queued_payloads(engine, thetas, JobSpec::statevector)
}

/// Queues one `spec(parameterized_circuit())` job per angle while the engine
/// is paused, then releases them together and collects the payloads.
fn queued_payloads(
    engine: &ServeEngine,
    thetas: &[f64],
    spec: fn(Circuit) -> JobSpec,
) -> Vec<Vec<f64>> {
    engine.pause();
    let handles: Vec<_> = thetas
        .iter()
        .map(|&theta| {
            engine.submit(spec(parameterized_circuit()).with_params(vec![theta])).unwrap()
        })
        .collect();
    assert_eq!(engine.queue_len(), thetas.len());
    engine.resume();
    handles.iter().map(|h| expect_completed(h.wait())).collect()
}

#[test]
fn queued_same_plan_jobs_match_sequential_round_trips() {
    let thetas = [0.0, 0.4, 0.8, 1.2, 1.6];
    // The single worker pops the queued jobs one at a time, and each one
    // rebinds the shared cached plan.
    let engine = ServeEngine::start(ServeConfig::default().with_workers(1));
    let queued = queued_parameterized_payloads(&engine, &thetas);
    let stats = engine.stats();
    assert_eq!(stats.completed, 5);
    let cache = stats.statevector_cache;
    assert_eq!((cache.misses, cache.hits), (1, 4), "every queued job consults the cache");
    engine.join();

    // Sequential reference engine: same submission order, so per-job seeds
    // match.
    let serial = ServeEngine::start(ServeConfig::default().with_workers(1));
    for (&theta, queued_values) in thetas.iter().zip(queued.iter()) {
        let handle = serial
            .submit(JobSpec::statevector(parameterized_circuit()).with_params(vec![theta]))
            .unwrap();
        assert_eq!(&expect_completed(handle.wait()), queued_values, "theta = {theta}");
    }
    serial.join();
}

#[test]
fn queued_payloads_match_a_direct_simulator_run_on_one_and_two_workers() {
    // Oracle: a fresh noiseless simulator compiles and binds the circuit
    // itself, outside the engine, its plan cache and its guard.
    let thetas = [0.0, 0.3, 0.9, 1.7, 2.6, -1.1];
    let sim = StatevectorSimulator::new();
    let mut plan = sim.compile(&parameterized_circuit()).unwrap();
    let expected: Vec<Vec<f64>> = thetas
        .iter()
        .map(|&theta| {
            plan.bind(&[theta]).unwrap();
            sim.run_compiled(&plan, None).unwrap().state.probabilities()
        })
        .collect();
    assert_ne!(expected[0], expected[1], "the angles must give different distributions");
    for workers in [1, 2] {
        let engine = ServeEngine::start(ServeConfig::default().with_workers(workers));
        let served = queued_parameterized_payloads(&engine, &thetas);
        for ((theta, got), want) in thetas.iter().zip(&served).zip(&expected) {
            assert_eq!(got, want, "workers = {workers}, theta = {theta}");
        }
        engine.join();
    }
}

#[test]
fn queued_density_payloads_match_a_direct_simulator_run_on_one_and_two_workers() {
    // Oracle: a fresh density simulator under the engine's noise model
    // compiles and binds the circuit itself; the served payload is the
    // diagonal of its final ρ.
    let thetas = [0.0, 0.3, 0.9, 1.7, 2.6, -1.1];
    for noise in [NoiseModel::noiseless(), NoiseModel::depolarizing(1e-2, 2e-2)] {
        let sim = DensityMatrixSimulator::new().with_noise(noise.clone());
        let mut plan = sim.compile(&parameterized_circuit()).unwrap();
        let expected: Vec<Vec<f64>> = thetas
            .iter()
            .map(|&theta| {
                plan.bind(&[theta]).unwrap();
                let (rho, _) = sim.run_compiled(&plan, None).unwrap();
                (0..rho.dim()).map(|i| rho.matrix()[(i, i)].re).collect()
            })
            .collect();
        assert_ne!(expected[0], expected[1], "the angles must give different populations");
        for workers in [1, 2] {
            let config = ServeConfig::default().with_workers(workers).with_noise(noise.clone());
            let engine = ServeEngine::start(config);
            let served = queued_payloads(&engine, &thetas, JobSpec::density);
            for ((theta, got), want) in thetas.iter().zip(&served).zip(&expected) {
                assert_eq!(got, want, "{noise:?}, workers = {workers}, theta = {theta}");
            }
            engine.join();
        }
    }
}

#[test]
fn cancelled_member_drops_out_of_the_batch_without_affecting_mates() {
    let engine = ServeEngine::start(ServeConfig::default().with_workers(1));
    engine.pause();
    let handles: Vec<_> =
        (0..3).map(|_| engine.submit(JobSpec::statevector(fixed_circuit())).unwrap()).collect();
    handles[1].cancel();
    engine.resume();
    let first = expect_completed(handles[0].wait());
    assert_eq!(handles[1].wait(), JobOutcome::Cancelled(CancelReason::Requested));
    let last = expect_completed(handles[2].wait());
    assert_eq!(first, last, "identical specs must produce identical payloads");
    let stats = engine.stats();
    assert_eq!((stats.completed, stats.cancelled), (2, 1));
    engine.join();
}

#[test]
fn transient_batch_failures_fall_back_to_the_serial_retry_ladder() {
    // A negative guard tolerance fails the first attempt of every queued
    // job; each job's retry ladder escalates the guard policy and completes.
    let engine = ServeEngine::start(
        ServeConfig::default()
            .with_workers(1)
            .with_max_retries(2)
            .with_retry_backoff(Duration::ZERO)
            .with_guard(GuardConfig::enabled().with_tol(-1.0)),
    );
    engine.pause();
    let handles: Vec<_> =
        (0..3).map(|_| engine.submit(JobSpec::statevector(fixed_circuit())).unwrap()).collect();
    engine.resume();
    for handle in &handles {
        expect_completed(handle.wait());
    }
    let stats = engine.stats();
    assert_eq!((stats.completed, stats.failed), (3, 0));
    assert_eq!(stats.retries, 3, "one escalation per job");
    engine.join();
}

#[test]
fn structurally_distinct_circuits_do_not_collide() {
    let engine = ServeEngine::start(ServeConfig::default().with_workers(1));
    let a = engine.submit(JobSpec::statevector(fixed_circuit())).unwrap();
    let b = engine.submit(JobSpec::statevector(deep_circuit(2))).unwrap();
    let pa = expect_completed(a.wait());
    let pb = expect_completed(b.wait());
    assert_ne!(pa.len(), pb.len());
    assert_eq!(engine.stats().statevector_cache.misses, 2);
    engine.join();
}
