//! Fault-injection property tests for the runtime health guards
//! (`qudit_core::guard`), compiled only under the `fault-inject` feature.
//!
//! Each test arms deterministic faults on the test thread, runs a simulator
//! with guards enabled, and proves the guard detects (or repairs, or degrades
//! around) exactly that fault class — and that clean guarded runs are
//! bitwise identical to unguarded ones.
#![cfg(feature = "fault-inject")]

use qudit_circuit::error::CircuitError;
use qudit_circuit::noise::{KrausChannel, NoiseModel};
use qudit_circuit::sim::{
    DensityMatrixSimulator, GuardConfig, GuardPolicy, HealthMetric, StatevectorSimulator,
    TrajectorySimulator,
};
use qudit_circuit::{Circuit, Gate, Observable};
use qudit_core::error::CoreError;
use qudit_core::guard::inject::{self, Fault};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic pseudo-random mixed-radix circuit: single-qudit Fourier /
/// shift / phase gates and two-qudit CSUMs.
fn random_circuit(dims: &[usize], depth: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(dims.to_vec());
    for _ in 0..depth {
        if dims.len() >= 2 && rng.gen_bool(0.3) {
            let a = rng.gen_range(0..dims.len());
            let mut b = rng.gen_range(0..dims.len());
            while b == a {
                b = rng.gen_range(0..dims.len());
            }
            c.push(Gate::csum(dims[a], dims[b]), &[a, b]).unwrap();
        } else {
            let q = rng.gen_range(0..dims.len());
            match rng.gen_range(0..3usize) {
                0 => c.push(Gate::fourier(dims[q]), &[q]).unwrap(),
                1 => c.push(Gate::shift_x(dims[q]), &[q]).unwrap(),
                _ => {
                    c.push(Gate::phase_on_level(dims[q], 1, rng.gen::<f64>() * 3.0), &[q]).unwrap()
                }
            }
        }
    }
    c
}

fn assert_health_error(err: CircuitError, expected: HealthMetric) {
    match err {
        CircuitError::Core(CoreError::NumericalHealth { metric, .. }) => {
            assert_eq!(metric, expected, "wrong health metric");
        }
        other => panic!("expected NumericalHealth({expected:?}), got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Detection: every injector class is caught at the default cadence.
// ---------------------------------------------------------------------------

#[test]
fn nan_poke_detected_on_statevector() {
    let c = random_circuit(&[3, 4], 12, 11);
    let sim = StatevectorSimulator::new().with_guard(GuardConfig::enabled());
    inject::arm(Fault::NanPoke { step: 0, index: 0 });
    let err = sim.run_detailed(&c).unwrap_err();
    inject::disarm_all();
    assert_health_error(err, HealthMetric::NonFinite);
}

#[test]
fn nan_poke_detected_on_density_matrix() {
    let c = random_circuit(&[2, 3], 10, 5);
    let sim = DensityMatrixSimulator::new().with_guard(GuardConfig::enabled());
    let compiled = sim.compile(&c).unwrap();
    inject::arm(Fault::NanPoke { step: 0, index: 0 });
    let err = sim.run_compiled_detailed(&compiled).unwrap_err();
    inject::disarm_all();
    assert_health_error(err, HealthMetric::NonFinite);
}

#[test]
fn nan_poke_detected_on_trajectory_backend() {
    // State faults are thread-local, so the trajectory loop must run on the
    // arming thread: threads = 1 degrades the pool dispatch to a serial loop.
    let c = random_circuit(&[3], 8, 2);
    let sim = TrajectorySimulator::new(4).with_threads(1).with_guard(GuardConfig::enabled());
    inject::arm(Fault::NanPoke { step: 0, index: 1 });
    let err = sim.expectation(&c, &Observable::number(0, 3)).unwrap_err();
    inject::disarm_all();
    assert_health_error(err, HealthMetric::NonFinite);
}

#[test]
fn amplitude_perturbation_detected_and_repaired() {
    let mut c = Circuit::uniform(1, 3);
    c.push(Gate::fourier(3), &[0]).unwrap();
    c.push(Gate::shift_x(3), &[0]).unwrap();

    // After the first step the state is uniform positive-real, so adding to
    // an amplitude strictly increases the norm: detection is deterministic.
    inject::arm(Fault::AmplitudePerturb { step: 0, index: 0, delta: 0.5 });
    let fail = StatevectorSimulator::new().with_guard(GuardConfig::enabled());
    let err = fail.run_detailed(&c).unwrap_err();
    inject::disarm_all();
    assert_health_error(err, HealthMetric::Norm);

    inject::arm(Fault::AmplitudePerturb { step: 0, index: 0, delta: 0.5 });
    let repair = StatevectorSimulator::new()
        .with_guard(GuardConfig::enabled().with_policy(GuardPolicy::RenormalizeAndCount));
    let out = repair.run_detailed(&c).unwrap();
    inject::disarm_all();
    assert!(out.health.renormalizations >= 1, "repair not recorded: {:?}", out.health);
    assert!((out.state.norm_sqr() - 1.0).abs() < 1e-9, "state left unnormalised");
}

#[test]
fn norm_drift_detected_and_repaired_on_both_exact_backends() {
    let c = random_circuit(&[2, 3], 12, 7);

    // Statevector.
    inject::arm(Fault::NormScale { step: 0, factor: 1.001 });
    let err = StatevectorSimulator::new()
        .with_guard(GuardConfig::enabled())
        .run_detailed(&c)
        .unwrap_err();
    inject::disarm_all();
    assert_health_error(err, HealthMetric::Norm);

    // Density matrix: trace drift instead of norm drift.
    let dsim = DensityMatrixSimulator::new().with_guard(GuardConfig::enabled());
    let compiled = dsim.compile(&c).unwrap();
    inject::arm(Fault::NormScale { step: 0, factor: 1.001 });
    let err = dsim.run_compiled_detailed(&compiled).unwrap_err();
    inject::disarm_all();
    assert_health_error(err, HealthMetric::Trace);

    // Both repairable under RenormalizeAndCount.
    inject::arm(Fault::NormScale { step: 0, factor: 1.001 });
    let out = StatevectorSimulator::new()
        .with_guard(GuardConfig::enabled().with_policy(GuardPolicy::RenormalizeAndCount))
        .run_detailed(&c)
        .unwrap();
    inject::disarm_all();
    assert!(out.health.renormalizations >= 1);

    let dsim = DensityMatrixSimulator::new()
        .with_guard(GuardConfig::enabled().with_policy(GuardPolicy::RenormalizeAndCount));
    let compiled = dsim.compile(&c).unwrap();
    inject::arm(Fault::NormScale { step: 0, factor: 1.001 });
    let (rho, health) = dsim.run_compiled_detailed(&compiled).unwrap();
    inject::disarm_all();
    assert!(health.renormalizations >= 1);
    assert!((rho.trace() - 1.0).abs() < 1e-9, "trace left unrepaired");
}

#[test]
fn superop_corruption_triggers_fallback_and_reproduces_clean_result() {
    // A multi-operator channel compiles to a superoperator sweep; corrupting
    // the sweep under FallBack must degrade to the per-constituent path and
    // reproduce the clean result (up to sweep-vs-per-term rounding).
    let mut c = Circuit::uniform(1, 3);
    c.push(Gate::fourier(3), &[0]).unwrap();
    c.push_channel(KrausChannel::photon_loss(3, 0.2).unwrap(), &[0]).unwrap();
    c.push(Gate::fourier(3), &[0]).unwrap();

    let plain = DensityMatrixSimulator::new();
    let compiled = plain.compile(&c).unwrap();
    assert!(compiled.superop_stats().super_steps >= 1, "expected a superoperator sweep");
    let clean = plain.run_compiled(&compiled).unwrap();

    let guarded = DensityMatrixSimulator::new()
        .with_guard(GuardConfig::enabled().with_policy(GuardPolicy::FallBack));
    // Step indices of the Super steps are private; arming every step is
    // harmless because only superoperator sweeps consult this fault class.
    for step in 0..compiled.num_steps() {
        inject::arm(Fault::SuperopCorrupt { step, delta: 0.5 });
    }
    let (rho, health) = guarded.run_compiled_detailed(&compiled).unwrap();
    inject::disarm_all();
    assert!(health.fallbacks >= 1, "fallback not engaged: {health:?}");
    assert!(
        (rho.matrix() - clean.matrix()).max_abs() < 1e-12,
        "fallback result diverged from clean run"
    );
}

#[test]
fn superop_corruption_detected_by_checkpoint_under_fail_policy() {
    let mut c = Circuit::uniform(1, 3);
    c.push(Gate::fourier(3), &[0]).unwrap();
    c.push_channel(KrausChannel::photon_loss(3, 0.2).unwrap(), &[0]).unwrap();

    let sim = DensityMatrixSimulator::new().with_guard(GuardConfig::enabled());
    let compiled = sim.compile(&c).unwrap();
    for step in 0..compiled.num_steps() {
        inject::arm(Fault::SuperopCorrupt { step, delta: 0.5 });
    }
    let err = sim.run_compiled_detailed(&compiled).unwrap_err();
    inject::disarm_all();
    // The corrupted sweep inflates the trace; the cadence checkpoint flags it.
    assert_health_error(err, HealthMetric::Trace);
}

#[test]
fn chunk_panic_is_retried_and_bitwise_identical_on_trajectories() {
    let c = random_circuit(&[3, 3], 10, 23);
    let obs = Observable::number(1, 3);
    let noise = NoiseModel::depolarizing(0.05, 0.05);
    let sim = TrajectorySimulator::new(16)
        .with_threads(4)
        .with_noise(noise)
        .with_guard(GuardConfig::enabled());

    let (clean, clean_health) = sim.expectation_detailed(&c, &obs).unwrap();
    assert_eq!(clean_health.retries, 0);

    inject::arm(Fault::ChunkPanic { chunk: 1 });
    let (recovered, health) = sim.expectation_detailed(&c, &obs).unwrap();
    inject::disarm_all();
    assert_eq!(health.retries, 1, "panicked chunk not retried: {health:?}");
    assert_eq!(recovered.mean, clean.mean, "retried run is not bitwise identical");
    assert_eq!(recovered.std_error, clean.std_error);
}

#[test]
fn slow_chunk_changes_nothing() {
    // A delayed chunk forces out-of-order completion; chunk-indexed
    // reassembly must keep the estimate bitwise identical, with no retries.
    let c = random_circuit(&[2, 3], 8, 31);
    let obs = Observable::number(0, 2);
    let sim = TrajectorySimulator::new(12)
        .with_threads(3)
        .with_noise(NoiseModel::depolarizing(0.02, 0.02))
        .with_guard(GuardConfig::enabled());

    let (clean, _) = sim.expectation_detailed(&c, &obs).unwrap();
    inject::arm(Fault::ChunkSlow { chunk: 1, millis: 50 });
    let (slowed, health) = sim.expectation_detailed(&c, &obs).unwrap();
    inject::disarm_all();
    assert_eq!(health.retries, 0);
    assert_eq!(slowed.mean, clean.mean);
}

// ---------------------------------------------------------------------------
// Zero false positives & bitwise cleanliness on healthy runs.
// ---------------------------------------------------------------------------

#[test]
fn clean_guarded_runs_are_bitwise_identical_across_backends() {
    let shapes: [(&[usize], usize); 3] = [(&[2, 3], 14), (&[3, 4], 10), (&[2, 2, 3], 12)];
    for (seed, &(dims, depth)) in shapes.iter().enumerate() {
        let c = random_circuit(dims, depth, seed as u64 * 97 + 1);
        let noise = NoiseModel::depolarizing(0.01, 0.02);
        // RenormalizeAndCount would mutate the state if any check misfired,
        // so bitwise equality here proves zero false positives.
        let guard = GuardConfig::enabled().with_policy(GuardPolicy::RenormalizeAndCount);

        // Statevector (stochastic unravelling, same seed).
        let plain = StatevectorSimulator::with_seed(9).with_noise(noise.clone());
        let guarded = plain.clone().with_guard(guard);
        let a = plain.run_detailed(&c).unwrap();
        let b = guarded.run_detailed(&c).unwrap();
        assert_eq!(a.state.amplitudes(), b.state.amplitudes(), "statevector diverged");
        assert_eq!(a.measurements, b.measurements);
        assert_eq!(b.health.renormalizations, 0, "false positive: {:?}", b.health);
        assert!(b.health.checks_run >= 1);
        assert!(b.health.max_drift <= 1e-6);

        // Density matrix.
        let plain = DensityMatrixSimulator::new().with_noise(noise.clone());
        let rho_a = plain.run(&c).unwrap();
        let guarded = plain.clone().with_guard(guard);
        let compiled = guarded.compile(&c).unwrap();
        let (rho_b, health) = guarded.run_compiled_detailed(&compiled).unwrap();
        assert_eq!((rho_a.matrix() - rho_b.matrix()).max_abs(), 0.0, "density matrix diverged");
        assert_eq!(health.renormalizations, 0);
        assert!(health.checks_run >= 1);

        // Trajectories.
        let plain = TrajectorySimulator::new(8).with_seed(3).with_noise(noise);
        let est_a = plain.expectation(&c, &Observable::number(0, dims[0])).unwrap();
        let guarded = plain.clone().with_guard(guard);
        let (est_b, health) =
            guarded.expectation_detailed(&c, &Observable::number(0, dims[0])).unwrap();
        assert_eq!(est_a.mean, est_b.mean, "trajectory estimate diverged");
        assert_eq!(health.renormalizations, 0);
        assert!(health.checks_run >= 8, "expected at least one check per trajectory");
    }
}

#[test]
fn guarded_fail_policy_never_trips_on_healthy_random_circuits() {
    for seed in 0..6u64 {
        let c = random_circuit(&[3, 4], 16, seed * 13 + 5);
        let noise = NoiseModel::cavity(0.05, 0.05, 0.0);
        StatevectorSimulator::new()
            .with_noise(noise.clone())
            .with_guard(GuardConfig::enabled())
            .run_detailed(&c)
            .expect("false positive on statevector");
        DensityMatrixSimulator::new()
            .with_noise(noise.clone())
            .with_guard(GuardConfig::enabled())
            .run(&c)
            .expect("false positive on density matrix");
        TrajectorySimulator::new(4)
            .with_noise(noise)
            .with_guard(GuardConfig::enabled())
            .expectation(&c, &Observable::number(1, 4))
            .expect("false positive on trajectories");
    }
}

// ---------------------------------------------------------------------------
// RunHealth accounting is exact.
// ---------------------------------------------------------------------------

#[test]
fn statevector_checkpoint_count_is_exact() {
    let c = random_circuit(&[2, 3], 15, 41);
    for cadence in [1usize, 3, 8] {
        let sim =
            StatevectorSimulator::new().with_guard(GuardConfig::enabled().with_cadence(cadence));
        let compiled = sim.compile(&c).unwrap();
        let steps = compiled.num_steps();
        let out = sim.run_compiled(&compiled).unwrap();
        // One check per full cadence window plus the final checkpoint.
        assert_eq!(out.health.checks_run, steps / cadence + 1, "cadence {cadence}, {steps} steps");
    }
}

#[test]
fn density_checkpoint_count_is_exact() {
    let c = random_circuit(&[3, 3], 12, 43);
    let cadence = 2usize;
    let sim = DensityMatrixSimulator::new()
        .with_noise(NoiseModel::depolarizing(0.01, 0.01))
        .with_guard(GuardConfig::enabled().with_cadence(cadence));
    let compiled = sim.compile(&c).unwrap();
    let (_, health) = sim.run_compiled_detailed(&compiled).unwrap();
    assert_eq!(health.checks_run, compiled.num_steps() / cadence + 1);
}

#[test]
fn disabled_guard_reports_all_zero_health() {
    let c = random_circuit(&[3], 6, 3);
    let out = StatevectorSimulator::new().run_detailed(&c).unwrap();
    assert_eq!(out.health, Default::default());
}

// ---------------------------------------------------------------------------
// Mid-sweep cancellation leaves a bitwise-reproducible partial state.
// ---------------------------------------------------------------------------

#[test]
fn mid_sweep_cancellation_partial_state_is_bitwise_identical_across_thread_counts() {
    use qudit_circuit::sim::{CancelReason, CancelToken};

    // A check budget of 2 with cadence 1 trips the token at the checkpoint
    // after step 1; `CaptureState` snapshots ρ right after step 1 executes,
    // i.e. the exact state the run held when it was cancelled. The density
    // loop runs on the caller thread (workers only split superoperator
    // sweeps), so both the cancellation step and the partial state must be
    // bitwise identical across thread counts.
    let c = random_circuit(&[3, 3], 8, 71);
    let run = |threads: usize| {
        inject::disarm_all();
        inject::arm(Fault::CaptureState { step: 1 });
        let token = CancelToken::new().with_check_budget(2);
        let err = DensityMatrixSimulator::new()
            .with_noise(NoiseModel::depolarizing(0.05, 0.02))
            .with_threads(threads)
            .with_guard(GuardConfig::disabled().with_cadence(1))
            .with_cancel(token)
            .run(&c)
            .unwrap_err();
        let partial = inject::take_captured().expect("step 1 ran before the cancel checkpoint");
        inject::disarm_all();
        (err, partial)
    };

    let (err_1, state_1) = run(1);
    let (err_4, state_4) = run(4);
    assert_eq!(
        err_1,
        CircuitError::Core(CoreError::Cancelled { step: 1, reason: CancelReason::Requested })
    );
    assert_eq!(err_1, err_4, "cancellation point must not depend on thread count");
    assert_eq!(state_1, state_4, "partial state at cancellation must be bitwise identical");
}
