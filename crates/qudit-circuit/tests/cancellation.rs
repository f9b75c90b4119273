//! Cooperative-cancellation integration tests: a [`CancelToken`] threaded
//! through each simulator stops the run at a deterministic checkpoint and
//! surfaces as `CoreError::Cancelled { step, reason }`, while an untripped
//! token leaves results bitwise untouched. Also pins the guard-cadence edge
//! case at the simulator level: a cadence longer than the plan still runs
//! exactly one (final) health check.

use std::time::Duration;

use qudit_circuit::error::CircuitError;
use qudit_circuit::noise::NoiseModel;
use qudit_circuit::sim::{
    CancelReason, CancelToken, DensityMatrixSimulator, GuardConfig, StatevectorSimulator,
    TrajectorySimulator,
};
use qudit_circuit::{Circuit, Gate, Observable};
use qudit_core::error::CoreError;

/// A small deterministic qutrit-pair circuit with measurement barriers, so
/// the compiled plan keeps at least four distinct execution steps (fusion
/// cannot merge across a measurement).
fn barriered_circuit() -> Circuit {
    let mut c = Circuit::new(vec![3, 3]);
    c.push(Gate::fourier(3), &[0]).unwrap();
    c.measure(&[0]).unwrap();
    c.push(Gate::csum(3, 3), &[0, 1]).unwrap();
    c.measure(&[1]).unwrap();
    c.push(Gate::shift_x(3), &[1]).unwrap();
    c
}

/// A purely unitary circuit (no measurements, no channels) whose run is
/// deterministic, for bitwise comparisons.
fn unitary_circuit() -> Circuit {
    let mut c = Circuit::new(vec![3, 3]);
    c.push(Gate::fourier(3), &[0]).unwrap();
    c.push(Gate::csum(3, 3), &[0, 1]).unwrap();
    c.push(Gate::phase_on_level(3, 1, 0.7), &[1]).unwrap();
    c
}

fn cancelled(step: usize, reason: CancelReason) -> CircuitError {
    CircuitError::Core(CoreError::Cancelled { step, reason })
}

// ---------------------------------------------------------------------------
// An untripped token is free: results are bitwise identical.
// ---------------------------------------------------------------------------

#[test]
fn untripped_token_leaves_statevector_run_bitwise_identical() {
    let c = unitary_circuit();
    let plain = StatevectorSimulator::new().run(&c).unwrap();
    let tokened = StatevectorSimulator::new().with_cancel(CancelToken::new()).run(&c).unwrap();
    assert_eq!(plain.amplitudes(), tokened.amplitudes());
}

#[test]
fn untripped_token_leaves_density_run_bitwise_identical() {
    let c = unitary_circuit();
    let noise = NoiseModel::depolarizing(0.05, 0.02);
    let plain = DensityMatrixSimulator::new().with_noise(noise.clone()).run(&c).unwrap();
    let tokened = DensityMatrixSimulator::new()
        .with_noise(noise)
        .with_cancel(CancelToken::new())
        .run(&c)
        .unwrap();
    assert_eq!(plain.matrix().as_slice(), tokened.matrix().as_slice());
}

// ---------------------------------------------------------------------------
// Pre-tripped tokens stop at the entry checkpoint: zero work is done.
// ---------------------------------------------------------------------------

#[test]
fn pre_tripped_token_cancels_statevector_at_entry() {
    let token = CancelToken::new();
    token.cancel();
    let err = StatevectorSimulator::new().with_cancel(token).run(&barriered_circuit()).unwrap_err();
    assert_eq!(err, cancelled(0, CancelReason::Requested));
}

#[test]
fn pre_tripped_token_cancels_stochastic_sampling_sweep() {
    // The barriered circuit has measurements, so sampling runs through the
    // trajectory executor, which checks the token before its first wave.
    let token = CancelToken::new();
    token.cancel();
    let err = StatevectorSimulator::new()
        .with_threads(4)
        .with_cancel(token)
        .sample_counts(&barriered_circuit(), 64)
        .unwrap_err();
    assert_eq!(err, cancelled(0, CancelReason::Requested));
}

#[test]
fn expired_deadline_cancels_density_run_at_entry() {
    let token = CancelToken::with_deadline(Duration::ZERO);
    let err = DensityMatrixSimulator::new()
        .with_noise(NoiseModel::depolarizing(0.05, 0.02))
        .with_cancel(token)
        .run(&barriered_circuit())
        .unwrap_err();
    assert_eq!(err, cancelled(0, CancelReason::DeadlineExceeded));
}

// ---------------------------------------------------------------------------
// Check budgets trip at an exact, reproducible step.
// ---------------------------------------------------------------------------

#[test]
fn check_budget_cancels_statevector_at_deterministic_step() {
    // Budget 2 with cadence 1: the entry check and the post-step-0 check
    // succeed, the post-step-1 check trips — the error names step 1.
    let token = CancelToken::new().with_check_budget(2);
    let err = StatevectorSimulator::new()
        .with_guard(GuardConfig::disabled().with_cadence(1))
        .with_cancel(token)
        .run(&barriered_circuit())
        .unwrap_err();
    assert_eq!(err, cancelled(1, CancelReason::Requested));
}

#[test]
fn check_budget_cancellation_step_is_thread_count_invariant() {
    // The density run loop executes on the caller thread (workers only
    // parallelise individual superoperator sweeps), so the budget is spent
    // identically regardless of the thread count.
    let run = |threads: usize| -> CircuitError {
        let token = CancelToken::new().with_check_budget(2);
        DensityMatrixSimulator::new()
            .with_noise(NoiseModel::depolarizing(0.05, 0.02))
            .with_threads(threads)
            .with_guard(GuardConfig::disabled().with_cadence(1))
            .with_cancel(token)
            .run(&barriered_circuit())
            .unwrap_err()
    };
    let single = run(1);
    let pooled = run(4);
    assert_eq!(single, cancelled(1, CancelReason::Requested));
    assert_eq!(single, pooled);
}

#[test]
fn check_budget_cancels_trajectory_ensemble_before_dispatch() {
    // Budget 1: the between-batch check at the top of the ensemble loop
    // spends it, and the pool-entry check trips before any trajectory runs.
    let token = CancelToken::new().with_check_budget(1);
    let err = TrajectorySimulator::new(16)
        .with_noise(NoiseModel::depolarizing(0.1, 0.05))
        .with_threads(4)
        .with_cancel(token)
        .expectation(&unitary_circuit(), &Observable::number(0, 3))
        .unwrap_err();
    assert_eq!(err, cancelled(0, CancelReason::Requested));
}

#[test]
fn check_budget_cancels_inside_a_trajectory_chunk_at_deterministic_step() {
    // One trajectory is one chunk at any thread count. Budget 4 with cadence
    // 2: the wave check, the pool-entry check, the chunk's entry check and
    // its post-step-1 check pass; the post-step-3 check trips inside the
    // chunk.
    let run = |threads: usize| -> CircuitError {
        TrajectorySimulator::new(1)
            .with_noise(NoiseModel::depolarizing(0.1, 0.05))
            .with_threads(threads)
            .with_guard(GuardConfig::disabled().with_cadence(2))
            .with_cancel(CancelToken::new().with_check_budget(4))
            .expectation(&barriered_circuit(), &Observable::number(1, 3))
            .unwrap_err()
    };
    let single = run(1);
    assert_eq!(single, cancelled(3, CancelReason::Requested));
    assert_eq!(single, run(3));
}

#[test]
fn cancellation_respects_guard_cadence() {
    // Cadence 2 with budget 2: the entry check and the post-step-1 check
    // (the first cadence boundary) spend the budget; the next boundary after
    // step 3 trips. Steps 2 and 3 run to completion first — the checkpoint
    // cadence bounds how much work a cancellation can waste.
    let token = CancelToken::new().with_check_budget(2);
    let err = StatevectorSimulator::new()
        .with_guard(GuardConfig::disabled().with_cadence(2))
        .with_cancel(token)
        .run(&barriered_circuit())
        .unwrap_err();
    assert_eq!(err, cancelled(3, CancelReason::Requested));
}

// ---------------------------------------------------------------------------
// Guard cadence beyond the plan length still runs the one final check.
// ---------------------------------------------------------------------------

#[test]
fn statevector_cadence_beyond_plan_runs_exactly_one_check() {
    let sim = StatevectorSimulator::new().with_guard(GuardConfig::enabled().with_cadence(1000));
    let out = sim.run_compiled(&sim.compile(&unitary_circuit()).unwrap(), None).unwrap();
    assert_eq!(out.health.checks_run, 1);

    // One final check per trajectory, on the batched executor too.
    let sim = TrajectorySimulator::new(5)
        .with_noise(NoiseModel::depolarizing(0.05, 0.02))
        .with_guard(GuardConfig::enabled().with_cadence(1000));
    let plan = sim.compile(&unitary_circuit()).unwrap();
    let (_, health) = sim.expectation_compiled(&plan, &Observable::number(0, 3)).unwrap();
    assert_eq!(health.checks_run, 5);
}

#[test]
fn density_cadence_beyond_plan_runs_exactly_one_check() {
    let sim = DensityMatrixSimulator::new()
        .with_noise(NoiseModel::depolarizing(0.05, 0.02))
        .with_guard(GuardConfig::enabled().with_cadence(1000));
    let compiled = sim.compile(&unitary_circuit()).unwrap();
    let (_, health) = sim.run_compiled(&compiled, None).unwrap();
    assert_eq!(health.checks_run, 1);
}
