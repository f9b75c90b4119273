//! Property tests for the ensemble executors (`qudit_circuit::sim`): a
//! population of bindings run through `run_ensemble` must be **bitwise
//! identical**, column for column, to the serial `run_bound` loop — states,
//! measurement records, and guard health reports alike — and the batched
//! trajectory executor (lazily splitting branch-prefix groups) must
//! reproduce a test-side serial oracle bitwise: `run_single` folded over
//! every trajectory index, one state vector at a time, mid-circuit
//! measurement splits, guard checkpoints, readout flips and all.
//! Density-backed consumers pin the same populations at 1e-12. Cancellation
//! fails the whole ensemble call with the standard `Cancelled` error, and a
//! non-finite binding fails only its own column.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qudit_circuit::error::CircuitError;
use qudit_circuit::noise::{KrausChannel, NoiseModel};
use qudit_circuit::sim::{
    apply_readout_flip, CancelToken, DensityMatrixSimulator, FusionConfig, GuardConfig,
    GuardPolicy, HealthMetric, RunHealth, StatevectorSimulator, TrajectorySimulator,
};
use qudit_circuit::{Circuit, Gate, Observable, Param};
use qudit_core::error::CoreError;
use qudit_core::matrix::CMatrix;
use qudit_core::random::haar_unitary;
use qudit_core::state::QuditState;
use qudit_core::Complex64;

const TOL: f64 = 1e-12;

fn random_hermitian(rng: &mut StdRng, d: usize) -> CMatrix {
    let a = CMatrix::from_fn(d, d, |_, _| {
        Complex64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5)
    });
    a.hermitian_part()
}

fn push_random_param_gate(c: &mut Circuit, dims: &[usize], idx: usize, rng: &mut StdRng) {
    let n = dims.len();
    let q = rng.gen_range(0..n);
    let d = dims[q];
    match rng.gen_range(0..3) {
        0 => {
            let weights: Vec<f64> = (0..d).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
            let g = Gate::parameterized(
                format!("sep{idx}"),
                vec![d],
                &CMatrix::diag_real(&weights),
                Param::Free(idx),
            )
            .unwrap();
            c.push(g, &[q]).unwrap();
        }
        1 => {
            let h = random_hermitian(rng, d);
            let g =
                Gate::parameterized(format!("mix{idx}"), vec![d], &h, Param::Free(idx)).unwrap();
            c.push(g, &[q]).unwrap();
        }
        _ if n >= 2 => {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n - 1);
            if b >= a {
                b += 1;
            }
            let dd = dims[a] * dims[b];
            let weights: Vec<f64> = (0..dd).map(|_| rng.gen::<f64>()).collect();
            let g = Gate::parameterized(
                format!("zz{idx}"),
                vec![dims[a], dims[b]],
                &CMatrix::diag_real(&weights),
                Param::Free(idx),
            )
            .unwrap();
            c.push(g, &[a, b]).unwrap();
        }
        _ => {
            let h = random_hermitian(rng, d);
            let g =
                Gate::parameterized(format!("mix{idx}"), vec![d], &h, Param::Free(idx)).unwrap();
            c.push(g, &[q]).unwrap();
        }
    }
}

fn push_random_const_gate(c: &mut Circuit, dims: &[usize], rng: &mut StdRng) {
    let n = dims.len();
    if n >= 2 && rng.gen::<f64>() < 0.35 {
        let a = rng.gen_range(0..n);
        let mut b = rng.gen_range(0..n - 1);
        if b >= a {
            b += 1;
        }
        c.push(Gate::csum(dims[a], dims[b]), &[a, b]).unwrap();
    } else {
        let q = rng.gen_range(0..n);
        match rng.gen_range(0..3) {
            0 => c.push(Gate::fourier(dims[q]), &[q]).unwrap(),
            1 => c.push(Gate::shift_x(dims[q]), &[q]).unwrap(),
            _ => c.push(Gate::clock_z(dims[q]), &[q]).unwrap(),
        }
    }
}

const CHANNEL_SHAPES: usize = 5;

/// One of the channel shapes trajectory unravelling distinguishes: photon
/// loss and depolarizing (diagonal and injective-monomial operators, the
/// one-sweep branch path), thermal excitation (a monomial whose top column
/// is zero), a two-operator channel whose monomials send levels 0 and 1 to
/// the same row (non-injective), and a random dense CPTP channel — the last
/// two take the per-branch fallback.
fn channel_shape(rng: &mut StdRng, d: usize, shape: usize) -> KrausChannel {
    match shape {
        0 => KrausChannel::photon_loss(d, 0.2).unwrap(),
        1 => KrausChannel::depolarizing(d, 0.15).unwrap(),
        2 => KrausChannel::thermal_excitation(d, 0.2).unwrap(),
        3 => {
            let h = std::f64::consts::FRAC_1_SQRT_2;
            let ops = [1.0, -1.0]
                .iter()
                .map(|&sign| {
                    CMatrix::from_fn(d, d, |i, j| match (i, j) {
                        (0, 0) => Complex64::new(h, 0.0),
                        (0, 1) => Complex64::new(sign * h, 0.0),
                        (i, j) if i == j && i >= 2 => Complex64::new(h, 0.0),
                        _ => Complex64::ZERO,
                    })
                })
                .collect();
            KrausChannel::new("merge", vec![d], ops).unwrap()
        }
        _ => {
            // First `d` columns of a Haar unitary, cut into three row blocks.
            let u = haar_unitary(rng, 3 * d).unwrap();
            let ops = (0..3).map(|k| CMatrix::from_fn(d, d, |i, j| u.get(k * d + i, j))).collect();
            KrausChannel::new("dense", vec![d], ops).unwrap()
        }
    }
}

/// A randomized parameterized circuit with `num_params` free angles; with
/// `stochastic` it mixes in mid-circuit measurements, resets and explicit
/// Kraus channels, the ingredients that force branch handling in the
/// ensemble executors.
fn random_param_circuit(
    rng: &mut StdRng,
    num_params: usize,
    stochastic: bool,
) -> (Circuit, Vec<usize>) {
    let n = rng.gen_range(2..=3);
    let dims: Vec<usize> = (0..n).map(|_| rng.gen_range(2..=3)).collect();
    let mut c = Circuit::new(dims.clone());
    let len = rng.gen_range(10..=16);
    let mut used = Vec::new();
    for step in 0..len {
        let roll = rng.gen::<f64>();
        if roll < 0.35 {
            let idx = step % num_params;
            used.push(idx);
            push_random_param_gate(&mut c, &dims, idx, rng);
        } else if roll < 0.75 || !stochastic {
            push_random_const_gate(&mut c, &dims, rng);
        } else if roll < 0.85 {
            let q = rng.gen_range(0..n);
            c.measure(&[q]).unwrap();
        } else if roll < 0.92 {
            let q = rng.gen_range(0..n);
            c.reset(q).unwrap();
        } else {
            let q = rng.gen_range(0..n);
            let shape = rng.gen_range(0..CHANNEL_SHAPES);
            c.push_channel(channel_shape(rng, dims[q], shape), &[q]).unwrap();
        }
    }
    for idx in 0..num_params {
        if !used.contains(&idx) {
            push_random_param_gate(&mut c, &dims, idx, rng);
        }
    }
    (c, dims)
}

/// What the serial oracle folds out of an ensemble: mean, standard error,
/// averaged outcome distribution and aggregated shot counts.
type SerialFold = (f64, f64, Vec<f64>, HashMap<Vec<usize>, usize>);

/// The trajectory executor's serial oracle: `run_single(c, t)` for every
/// `t`, one state vector at a time, folded in trajectory order into the
/// estimate, the distribution, and `shots` draws per trajectory from the
/// executor's per-trajectory sampling stream (`traj_seed(t) + 0xABCD` for
/// the simulator seed `seed`).
fn serial_fold(
    sim: &TrajectorySimulator,
    (seed, readout_flip): (u64, f64),
    c: &Circuit,
    obs: &Observable,
    shots: usize,
) -> SerialFold {
    let n = sim.n_trajectories();
    let (mut values, mut dist, mut counts) = (Vec::new(), vec![0.0; c.total_dim()], HashMap::new());
    for t in 0..n {
        let state = sim.run_single(c, t).unwrap();
        values.push(obs.expectation(&state).unwrap());
        dist.iter_mut().zip(state.probabilities()).for_each(|(a, p)| *a += p);
        let traj_seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((t as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        let mut rng = StdRng::seed_from_u64(traj_seed.wrapping_add(0xABCD));
        let cdf = state.cdf();
        for _ in 0..shots {
            let mut digits = state.radix().digits_of(cdf.try_draw(&mut rng).unwrap()).unwrap();
            apply_readout_flip(&mut digits, c.dims(), readout_flip, &mut rng);
            *counts.entry(digits).or_insert(0) += 1;
        }
    }
    dist.iter_mut().for_each(|p| *p /= n as f64);
    let mean = values.iter().sum::<f64>() / n as f64;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0).max(1.0);
    (mean, (var / n as f64).sqrt(), dist, counts)
}

fn random_population(rng: &mut StdRng, num_params: usize, size: usize) -> Vec<Vec<f64>> {
    (0..size).map(|_| (0..num_params).map(|_| rng.gen::<f64>() * 3.0 - 1.5).collect()).collect()
}

// ---------------------------------------------------------------------------
// Parameter-batched statevector runs.
// ---------------------------------------------------------------------------

#[test]
fn ensemble_population_is_bitwise_identical_to_serial_run_bound() {
    // Stochastic circuits (measurements, resets, Kraus channels) under a
    // gate-level noise model with readout error and an enabled guard: the
    // full RunOutput — state, measurement records, health report — must be
    // bitwise identical per column.
    for trial in 0..12 {
        let mut rng = StdRng::seed_from_u64(91_000 + trial);
        let num_params = 3;
        let (c, _) = random_param_circuit(&mut rng, num_params, true);
        let noise = NoiseModel::depolarizing(0.02, 0.04).with_readout_flip(0.05);
        let guard =
            GuardConfig::enabled().with_cadence(3).with_policy(GuardPolicy::RenormalizeAndCount);
        let sim = StatevectorSimulator::with_seed(400 + trial).with_noise(noise).with_guard(guard);
        let plan = sim.compile(&c).unwrap();
        let population = random_population(&mut rng, num_params, 5);
        let batch = plan.bind_batch(&population).unwrap();
        assert_eq!(batch.len(), population.len());

        let ensemble = sim.run_ensemble(&plan, &batch).unwrap();
        assert_eq!(ensemble.len(), population.len());
        for (b, params) in population.iter().enumerate() {
            let mut serial_plan = plan.clone();
            let serial = sim.run_bound(&mut serial_plan, params).unwrap();
            let col = ensemble[b].as_ref().unwrap_or_else(|e| {
                panic!("trial {trial}, column {b}: ensemble run failed: {e:?}")
            });
            assert_eq!(
                col.state.amplitudes(),
                serial.state.amplitudes(),
                "trial {trial}, column {b}: states must be bitwise identical"
            );
            assert_eq!(col.measurements, serial.measurements, "trial {trial}, column {b}");
            assert_eq!(col.health, serial.health, "trial {trial}, column {b}");
        }
    }
}

#[test]
fn ensemble_width_one_and_duplicate_bindings_behave() {
    let mut rng = StdRng::seed_from_u64(555);
    let (c, _) = random_param_circuit(&mut rng, 2, true);
    let sim = StatevectorSimulator::with_seed(8).with_noise(NoiseModel::depolarizing(0.03, 0.03));
    let plan = sim.compile(&c).unwrap();
    let theta: Vec<f64> = vec![0.4, -0.9];
    // Duplicate bindings share the simulator seed, so every column replays
    // the identical serial run.
    let batch = plan.bind_batch(&[theta.clone(), theta.clone(), theta.clone()]).unwrap();
    let ensemble = sim.run_ensemble(&plan, &batch).unwrap();
    let mut serial_plan = plan.clone();
    let serial = sim.run_bound(&mut serial_plan, &theta).unwrap();
    for (b, col) in ensemble.iter().enumerate() {
        let col = col.as_ref().unwrap();
        assert_eq!(col.state.amplitudes(), serial.state.amplitudes(), "column {b}");
        assert_eq!(col.measurements, serial.measurements, "column {b}");
    }
    // Empty populations are a no-op.
    let empty = plan.bind_batch(&[]).unwrap();
    assert!(empty.is_empty());
    assert!(sim.run_ensemble(&plan, &empty).unwrap().is_empty());
}

#[test]
fn ensemble_population_matches_density_backend_at_tolerance() {
    // Deterministic (noiseless, measurement-free) populations: every
    // ensemble column's probability vector must match the exact
    // density-matrix evolution of the same bound circuit at 1e-12.
    for trial in 0..6 {
        let mut rng = StdRng::seed_from_u64(77_000 + trial);
        let num_params = 2;
        let (c, _) = random_param_circuit(&mut rng, num_params, false);
        let sim = StatevectorSimulator::new();
        let plan = sim.compile(&c).unwrap();
        let population = random_population(&mut rng, num_params, 4);
        let batch = plan.bind_batch(&population).unwrap();
        let ensemble = sim.run_ensemble(&plan, &batch).unwrap();
        let dsim = DensityMatrixSimulator::new();
        for (b, params) in population.iter().enumerate() {
            let col = ensemble[b].as_ref().unwrap();
            let rho = dsim.run(&c.with_bound(params).unwrap()).unwrap();
            let sv_probs = col.state.probabilities();
            for (i, (p, q)) in sv_probs.iter().zip(rho.probabilities().iter()).enumerate() {
                assert!((p - q).abs() < TOL, "trial {trial}, column {b}, outcome {i}: {p} vs {q}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Batched trajectories against the serial oracle.
// ---------------------------------------------------------------------------

#[test]
fn batched_trajectories_are_bitwise_identical_to_serial_fold() {
    // 70 trajectories crosses the 64-trajectory chunk boundary; stochastic
    // circuits force branch-prefix splits at channels, measurements and
    // resets; readout error consumes extra RNG draws that must stay
    // stream-aligned; the enabled guard runs per-group checkpoints.
    for trial in 0..6 {
        let mut rng = StdRng::seed_from_u64(33_000 + trial);
        let (c, dims) = random_param_circuit(&mut rng, 2, true);
        let noise = NoiseModel::depolarizing(0.03, 0.05).with_readout_flip(0.04);
        let obs = Observable::number(0, dims[0]);
        let sim = TrajectorySimulator::new(70)
            .with_seed(900 + trial)
            .with_noise(noise)
            .with_guard(GuardConfig::enabled().with_policy(GuardPolicy::RenormalizeAndCount));
        let (mean, std_error, dist, counts) = serial_fold(&sim, (900 + trial, 0.04), &c, &obs, 5);

        let est = sim.expectation(&c, &obs).unwrap();
        assert_eq!(est.mean, mean, "trial {trial}: means must be bitwise identical");
        assert_eq!(est.std_error, std_error, "trial {trial}");
        assert_eq!(est.n_trajectories, 70);
        assert_eq!(sim.outcome_distribution(&c).unwrap(), dist, "trial {trial}");
        assert_eq!(sim.sample_counts(&c, 5).unwrap(), counts, "trial {trial}");
    }
}

#[test]
fn trajectory_health_is_the_merge_of_serial_run_healths() {
    // Barrier idle loss, a measurement with readout flip and a reset split
    // branch-prefix groups mid-run. A split clones the parent group's
    // monitor, so every group's checks, repairs and worst drift must be
    // exactly those of its members' one-state runs. Tolerance -1 repairs
    // at every check, so each renormalisation must also land bitwise.
    let mut c = Circuit::new(vec![3, 2, 4]);
    c.push(Gate::fourier(3), &[0]).unwrap();
    c.push(Gate::fourier(4), &[2]).unwrap();
    c.push(Gate::csum(3, 2), &[0, 1]).unwrap();
    c.barrier();
    c.push(Gate::displacement(4, Complex64::new(0.3, 0.1)), &[2]).unwrap();
    c.measure(&[0, 1]).unwrap();
    c.push(Gate::cross_kerr(3, 4, 0.7), &[0, 2]).unwrap();
    c.barrier();
    c.reset(2).unwrap();
    c.push(Gate::fourier(4), &[2]).unwrap();
    c.barrier();
    let noise = NoiseModel::cavity(0.05, 0.08, 0.1).with_readout_flip(0.07);
    let obs = Observable::number(2, 4);
    let (seed, n) = (4242u64, 70);
    let zero = QuditState::zero(c.dims().to_vec()).unwrap();
    for (cadence, tol) in [(1, -1.0), (2, -1.0), (3, 1e-9)] {
        let guard = GuardConfig::enabled()
            .with_policy(GuardPolicy::RenormalizeAndCount)
            .with_cadence(cadence)
            .with_tol(tol);
        let mut serial = RunHealth::default();
        let mut values = Vec::with_capacity(n);
        for t in 0..n {
            let traj_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((t as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
            let sv = StatevectorSimulator::with_seed(traj_seed)
                .with_noise(noise.clone())
                .with_guard(guard);
            let mut rng = StdRng::seed_from_u64(traj_seed);
            let out = sv.run_from_with_rng(&c, &zero, &mut rng).unwrap();
            serial.merge(&out.health);
            values.push(obs.expectation(&out.state).unwrap());
        }
        let mean = values.iter().sum::<f64>() / n as f64;
        assert!(serial.renormalizations > 0 || tol > 0.0, "tol -1 must repair");
        for threads in [1, 3] {
            let (est, health) = TrajectorySimulator::new(n)
                .with_seed(seed)
                .with_noise(noise.clone())
                .with_guard(guard)
                .with_threads(threads)
                .expectation_detailed(&c, &obs)
                .unwrap();
            let at = format!("cadence {cadence}, tol {tol}, {threads} threads");
            assert_eq!(est.mean.to_bits(), mean.to_bits(), "{at}");
            assert_eq!(health.checks_run, serial.checks_run, "{at}");
            assert_eq!(health.renormalizations, serial.renormalizations, "{at}");
            assert_eq!(health.max_drift.to_bits(), serial.max_drift.to_bits(), "{at}");
        }
    }
}

#[test]
fn every_channel_shape_stays_bitwise_in_both_executors() {
    // The random corpus draws channel shapes at random; this pins each shape
    // — one-sweep (loss, depolarizing, thermal excitation) and per-branch
    // fallback (non-injective monomial, dense) — into both ensemble
    // executors: explicit channels on every qudit between two random
    // parameterized segments.
    for shape in 0..CHANNEL_SHAPES {
        let mut rng = StdRng::seed_from_u64(47_000 + shape as u64);
        let (mut c, dims) = random_param_circuit(&mut rng, 2, false);
        for (q, &d) in dims.iter().enumerate() {
            c.push_channel(channel_shape(&mut rng, d, shape), &[q]).unwrap();
        }
        c.push(Gate::fourier(dims[0]), &[0]).unwrap();
        for (q, &d) in dims.iter().enumerate().rev() {
            c.push_channel(channel_shape(&mut rng, d, shape), &[q]).unwrap();
        }
        let noise = NoiseModel::cavity(0.05, 0.1, 0.0);
        let obs = Observable::number(0, dims[0]);
        let seed = 31 + shape as u64;
        let traj = TrajectorySimulator::new(70).with_seed(seed).with_noise(noise.clone());
        let (mean, std_error, ..) = serial_fold(&traj, (seed, 0.0), &c, &obs, 0);
        let est = traj.expectation(&c, &obs).unwrap();
        assert_eq!(est.mean, mean, "shape {shape}");
        assert_eq!(est.std_error, std_error, "shape {shape}");

        let sim = StatevectorSimulator::with_seed(77).with_noise(noise);
        let plan = sim.compile(&c).unwrap();
        let population = random_population(&mut rng, 2, 4);
        let ensemble = sim.run_ensemble(&plan, &plan.bind_batch(&population).unwrap()).unwrap();
        for (b, params) in population.iter().enumerate() {
            let serial = sim.run_bound(&mut plan.clone(), params).unwrap();
            let col = ensemble[b].as_ref().unwrap();
            assert_eq!(col.state.amplitudes(), serial.state.amplitudes(), "shape {shape}, col {b}");
        }
    }
}

#[test]
fn batched_trajectory_compiled_and_bound_paths_match_serial() {
    // Rebinding is bitwise equivalent to compiling the bound circuit, so
    // the oracle folds `run_single` over `c.with_bound(θ)`.
    let mut rng = StdRng::seed_from_u64(4242);
    let (c, dims) = random_param_circuit(&mut rng, 2, true);
    let noise = NoiseModel::cavity(0.05, 0.1, 0.0);
    let obs = Observable::number(0, dims[0]);
    let sim = TrajectorySimulator::new(40).with_seed(13).with_noise(noise);
    let mut plan = sim.compile(&c).unwrap();
    let mut theta = Vec::new();
    for round in 0..2 {
        theta = (0..2).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
        let bound = c.with_bound(&theta).unwrap();
        let (mean, std_error, dist, _) = serial_fold(&sim, (13, 0.0), &bound, &obs, 0);
        let est = sim.expectation_bound(&mut plan, &theta, &obs).unwrap();
        assert_eq!(est.mean, mean, "round {round}");
        assert_eq!(est.std_error, std_error, "round {round}");
        assert_eq!(
            sim.outcome_distribution_bound(&mut plan, &theta).unwrap(),
            dist,
            "round {round}"
        );
    }
    // Compiled (no rebind) path too, at the last binding.
    let (mean, std_error, dist, _) =
        serial_fold(&sim, (13, 0.0), &c.with_bound(&theta).unwrap(), &obs, 0);
    let est = sim.expectation_compiled(&plan, &obs).unwrap();
    assert_eq!(est.mean, mean);
    assert_eq!(est.std_error, std_error);
    assert_eq!(sim.outcome_distribution_compiled(&plan).unwrap(), dist);
}

// ---------------------------------------------------------------------------
// Cancellation mid-batch.
// ---------------------------------------------------------------------------

#[test]
fn cancellation_mid_batch_fails_the_whole_ensemble_pass() {
    let mut rng = StdRng::seed_from_u64(616);
    let (c, _) = random_param_circuit(&mut rng, 2, false);
    let token = CancelToken::new().with_check_budget(2);
    // Fusion off keeps one plan step per gate, so the check budget runs out
    // mid-sweep rather than after the (fused) plan has already finished.
    let sim = StatevectorSimulator::new()
        .with_fusion(FusionConfig::disabled())
        .with_guard(GuardConfig::disabled().with_cadence(1))
        .with_cancel(token);
    let plan = sim.compile(&c).unwrap();
    let population = random_population(&mut rng, 2, 4);
    let batch = plan.bind_batch(&population).unwrap();
    // The budget trips at the first cadence boundary: the whole pass fails
    // with the standard Cancelled error rather than per-column failures.
    let err = sim.run_ensemble(&plan, &batch).unwrap_err();
    assert!(
        matches!(err, CircuitError::Core(CoreError::Cancelled { .. })),
        "expected whole-pass cancellation, got {err:?}"
    );
}

#[test]
fn cancellation_mid_batch_stops_batched_trajectories() {
    // A budget of 3 checks at cadence 1 runs out inside the first wave of
    // chunks at any thread count: the call fails, no partial estimate.
    let mut rng = StdRng::seed_from_u64(617);
    let (c, dims) = random_param_circuit(&mut rng, 2, true);
    let token = CancelToken::new().with_check_budget(3);
    let sim = TrajectorySimulator::new(50)
        .with_noise(NoiseModel::depolarizing(0.02, 0.02))
        .with_guard(GuardConfig::disabled().with_cadence(1))
        .with_cancel(token);
    let err = sim.expectation(&c, &Observable::number(0, dims[0])).unwrap_err();
    assert!(
        matches!(err, CircuitError::Core(CoreError::Cancelled { .. })),
        "expected cancellation, got {err:?}"
    );
}

#[test]
fn non_finite_binding_fails_only_its_own_column() {
    // Member 1 binds NaN: its column goes non-finite at the parameterized
    // step and the cadence-1 guard fails it, while every batch-mate
    // finishes bitwise identical to its own serial run.
    let dims = vec![3, 2];
    let mut c = Circuit::new(dims);
    c.push(Gate::fourier(3), &[0]).unwrap();
    let sep =
        Gate::parameterized("sep", vec![3], &CMatrix::diag_real(&[0.0, 1.0, 2.0]), Param::Free(0))
            .unwrap();
    c.push(sep, &[0]).unwrap();
    c.push(Gate::csum(3, 2), &[0, 1]).unwrap();
    c.push(Gate::fourier(2), &[1]).unwrap();

    let population: Vec<Vec<f64>> = vec![vec![0.2], vec![f64::NAN], vec![1.1], vec![1.6]];
    let sim = StatevectorSimulator::with_seed(5).with_guard(GuardConfig::enabled().with_cadence(1));
    let plan = sim.compile(&c).unwrap();
    let ensemble = sim.run_ensemble(&plan, &plan.bind_batch(&population).unwrap()).unwrap();
    assert_eq!(ensemble.len(), population.len());
    for (b, col) in ensemble.iter().enumerate() {
        if b == 1 {
            match col.as_ref().unwrap_err() {
                CircuitError::Core(CoreError::NumericalHealth { metric, .. }) => {
                    assert_eq!(*metric, HealthMetric::NonFinite);
                }
                other => panic!("column 1: expected NumericalHealth, got {other:?}"),
            }
        } else {
            let out = col.as_ref().unwrap_or_else(|e| panic!("column {b} poisoned: {e:?}"));
            let clean = sim.run_bound(&mut plan.clone(), &population[b]).unwrap();
            assert_eq!(out.state.amplitudes(), clean.state.amplitudes(), "column {b}");
            assert_eq!(out.health, clean.health, "column {b}");
        }
    }
}

// ---------------------------------------------------------------------------
// Input validation.
// ---------------------------------------------------------------------------

#[test]
fn ensemble_rejects_short_bindings() {
    let mut rng = StdRng::seed_from_u64(618);
    let (c, _) = random_param_circuit(&mut rng, 2, false);
    let plan = StatevectorSimulator::new().compile(&c).unwrap();
    assert!(plan.bind_batch(&[vec![0.1]]).is_err(), "short member bindings must be rejected");
    assert_eq!(plan.bind_batch(&[vec![0.1, 0.2], vec![0.3, 0.4]]).unwrap().len(), 2);
}
