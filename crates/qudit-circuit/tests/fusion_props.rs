//! Property tests for the gate-fusion pipeline: fused execution must equal
//! unfused gate-by-gate execution on randomized mixed-radix circuits mixing
//! diagonal, monomial and dense gates, with mid-circuit measurements (which
//! flush fusion runs) and noise-channel boundaries.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qudit_circuit::noise::{KrausChannel, NoiseModel};
use qudit_circuit::sim::{FusionConfig, StatevectorSimulator, TrajectorySimulator};
use qudit_circuit::{Circuit, Gate, Observable};
use qudit_core::random::haar_unitary;

const TOL: f64 = 1e-12;

/// A random gate on a register with the given dimensions: a mix of diagonal
/// (SNAP, clock), monomial (shift, Weyl, CSUM) and dense (Fourier, Haar)
/// operators on one or two qudits, with randomly ordered targets.
fn push_random_gate(c: &mut Circuit, dims: &[usize], rng: &mut StdRng) {
    let n = dims.len();
    let two_qudit = n >= 2 && rng.gen::<f64>() < 0.4;
    if two_qudit {
        let a = rng.gen_range(0..n);
        let mut b = rng.gen_range(0..n - 1);
        if b >= a {
            b += 1;
        }
        match rng.gen_range(0..3) {
            0 => c.push(Gate::csum(dims[a], dims[b]), &[a, b]).unwrap(),
            1 => {
                let d = dims[a] * dims[b];
                let u = haar_unitary(rng, d).unwrap();
                c.push(Gate::custom("haar2", vec![dims[a], dims[b]], u).unwrap(), &[a, b]).unwrap();
            }
            _ => {
                // Diagonal two-qudit controlled-phase-like gate.
                let d = dims[a] * dims[b];
                let phases: Vec<f64> =
                    (0..d).map(|_| rng.gen::<f64>() * std::f64::consts::TAU).collect();
                let m = qudit_core::matrix::CMatrix::diag(
                    &phases.iter().map(|&p| qudit_core::Complex64::cis(p)).collect::<Vec<_>>(),
                );
                c.push(Gate::custom("cdiag", vec![dims[a], dims[b]], m).unwrap(), &[a, b]).unwrap();
            }
        }
    } else {
        let q = rng.gen_range(0..n);
        let d = dims[q];
        match rng.gen_range(0..5) {
            0 => {
                let phases: Vec<f64> =
                    (0..d).map(|_| rng.gen::<f64>() * std::f64::consts::TAU).collect();
                c.push(Gate::snap(d, &phases), &[q]).unwrap();
            }
            1 => c.push(Gate::clock_z(d), &[q]).unwrap(),
            2 => c.push(Gate::shift_x(d), &[q]).unwrap(),
            3 => c.push(Gate::weyl(d, rng.gen_range(0..d), rng.gen_range(0..d)), &[q]).unwrap(),
            _ => c.push(Gate::fourier(d), &[q]).unwrap(),
        }
    }
}

fn random_dims(rng: &mut StdRng) -> Vec<usize> {
    let n = rng.gen_range(3..=5);
    (0..n).map(|_| rng.gen_range(2..=4)).collect()
}

fn amplitudes_match(a: &qudit_core::QuditState, b: &qudit_core::QuditState) {
    assert_eq!(a.dim(), b.dim());
    for (x, y) in a.amplitudes().iter().zip(b.amplitudes().iter()) {
        assert!((*x - *y).abs() < TOL, "{x:?} vs {y:?}");
    }
}

#[test]
fn fused_equals_unfused_on_random_unitary_circuits() {
    for trial in 0..25 {
        let mut rng = StdRng::seed_from_u64(1000 + trial);
        let dims = random_dims(&mut rng);
        let mut c = Circuit::new(dims.clone());
        for _ in 0..rng.gen_range(5..25) {
            push_random_gate(&mut c, &dims, &mut rng);
            if rng.gen::<f64>() < 0.15 {
                c.barrier();
            }
        }
        let fused = StatevectorSimulator::with_seed(7).run(&c).unwrap();
        let unfused = StatevectorSimulator::with_seed(7)
            .with_fusion(FusionConfig::disabled())
            .run(&c)
            .unwrap();
        amplitudes_match(&fused, &unfused);
        // Debug builds also translation-validate the fused plan statically.
        #[cfg(debug_assertions)]
        {
            let plan = StatevectorSimulator::new().compile(&c).unwrap();
            qudit_verify::verify_statevector(&c, &plan, &qudit_verify::VerifyConfig::default())
                .unwrap();
        }
    }
}

#[test]
fn fused_equals_unfused_with_mid_circuit_measurements() {
    for trial in 0..15 {
        let mut rng = StdRng::seed_from_u64(2000 + trial);
        let dims = random_dims(&mut rng);
        let mut c = Circuit::new(dims.clone());
        for _ in 0..rng.gen_range(6..20) {
            push_random_gate(&mut c, &dims, &mut rng);
            if rng.gen::<f64>() < 0.2 {
                // Mid-circuit measurement or reset: flushes the fusion run.
                let q = rng.gen_range(0..dims.len());
                if rng.gen::<bool>() {
                    c.measure(&[q]).unwrap();
                } else {
                    c.reset(q).unwrap();
                }
            }
        }
        c.measure_all();
        let seed = 31 + trial;
        let run =
            |sim: StatevectorSimulator| sim.run_compiled(&sim.compile(&c).unwrap(), None).unwrap();
        let fused = run(StatevectorSimulator::with_seed(seed));
        let unfused =
            run(StatevectorSimulator::with_seed(seed).with_fusion(FusionConfig::disabled()));
        assert_eq!(fused.measurements, unfused.measurements, "trial {trial}");
        amplitudes_match(&fused.state, &unfused.state);
    }
}

#[test]
fn fused_equals_unfused_across_noise_channel_boundaries() {
    for trial in 0..15 {
        let mut rng = StdRng::seed_from_u64(3000 + trial);
        let dims = random_dims(&mut rng);
        let mut c = Circuit::new(dims.clone());
        for _ in 0..rng.gen_range(6..18) {
            push_random_gate(&mut c, &dims, &mut rng);
            if rng.gen::<f64>() < 0.25 {
                let q = rng.gen_range(0..dims.len());
                c.push_channel(KrausChannel::photon_loss(dims[q], 0.2).unwrap(), &[q]).unwrap();
            }
        }
        let seed = 91 + trial;
        let fused = StatevectorSimulator::with_seed(seed).run(&c).unwrap();
        let unfused = StatevectorSimulator::with_seed(seed)
            .with_fusion(FusionConfig::disabled())
            .run(&c)
            .unwrap();
        amplitudes_match(&fused, &unfused);
    }
}

#[test]
fn fused_equals_unfused_under_gate_level_noise_model() {
    // With a gate-attached noise model every gate is a fusion barrier; the
    // compiled plan must reproduce the verbatim run bit for bit apart from
    // rounding.
    let mut rng = StdRng::seed_from_u64(4000);
    let dims = vec![3, 3, 2];
    let mut c = Circuit::new(dims.clone());
    for _ in 0..12 {
        push_random_gate(&mut c, &dims, &mut rng);
    }
    let noise = NoiseModel::depolarizing(0.02, 0.05);
    for seed in [5, 6, 7] {
        let fused =
            StatevectorSimulator::with_seed(seed).with_noise(noise.clone()).run(&c).unwrap();
        let unfused = StatevectorSimulator::with_seed(seed)
            .with_noise(noise.clone())
            .with_fusion(FusionConfig::disabled())
            .run(&c)
            .unwrap();
        amplitudes_match(&fused, &unfused);
    }
}

#[test]
fn fused_budget_variations_agree() {
    // Different budgets change the blocking, never the state.
    let mut rng = StdRng::seed_from_u64(5000);
    let dims = vec![2, 3, 2, 2];
    let mut c = Circuit::new(dims.clone());
    for _ in 0..20 {
        push_random_gate(&mut c, &dims, &mut rng);
    }
    let reference =
        StatevectorSimulator::new().with_fusion(FusionConfig::disabled()).run(&c).unwrap();
    for (max_qudits, max_dim) in [(2, 9), (3, 16), (4, 64), (4, 4096)] {
        let cfg = FusionConfig { enabled: true, max_qudits, max_dim };
        let fused = StatevectorSimulator::new().with_fusion(cfg).run(&c).unwrap();
        amplitudes_match(&fused, &reference);
    }
}

#[test]
fn compiled_circuit_reuse_matches_fresh_runs() {
    let mut rng = StdRng::seed_from_u64(6000);
    let dims = vec![3, 2, 3];
    let mut c = Circuit::new(dims.clone());
    for _ in 0..15 {
        push_random_gate(&mut c, &dims, &mut rng);
    }
    let sim = StatevectorSimulator::with_seed(11);
    let compiled = sim.compile(&c).unwrap();
    assert!(compiled.fusion_stats().unitary_steps_out <= compiled.fusion_stats().unitaries_in);
    #[cfg(debug_assertions)]
    qudit_verify::verify_statevector(&c, &compiled, &qudit_verify::VerifyConfig::default())
        .unwrap();
    let fresh = sim.run_compiled(&sim.compile(&c).unwrap(), None).unwrap();
    for _ in 0..3 {
        let rerun = sim.run_compiled(&compiled, None).unwrap();
        amplitudes_match(&rerun.state, &fresh.state);
    }
}

#[test]
fn compiled_circuit_rejects_mismatched_noise_model() {
    let mut c = Circuit::uniform(2, 3);
    c.push(Gate::fourier(3), &[0]).unwrap();
    let compiled = StatevectorSimulator::new().compile(&c).unwrap();
    // Same (noiseless) model: fine.
    assert!(StatevectorSimulator::with_seed(9).run_compiled(&compiled, None).is_ok());
    // Different model: the plan's baked-in channels would not match.
    let noisy = StatevectorSimulator::new().with_noise(NoiseModel::depolarizing(0.05, 0.1));
    assert!(noisy.run_compiled(&compiled, None).is_err());
}

#[test]
fn trajectory_estimates_agree_with_and_without_fusion() {
    let mut c = Circuit::uniform(3, 3);
    c.push(Gate::fourier(3), &[0]).unwrap();
    c.push(Gate::csum(3, 3), &[0, 1]).unwrap();
    c.push(Gate::csum(3, 3), &[1, 2]).unwrap();
    c.push(Gate::clock_z(3), &[2]).unwrap();
    c.push(Gate::shift_x(3), &[2]).unwrap();
    let obs = Observable::number(2, 3);
    // Noiseless: deterministic, so fusion on/off must agree to rounding.
    let on = TrajectorySimulator::new(8).with_seed(3).expectation(&c, &obs).unwrap();
    let off = TrajectorySimulator::new(8)
        .with_seed(3)
        .with_fusion(FusionConfig::disabled())
        .expectation(&c, &obs)
        .unwrap();
    assert!((on.mean - off.mean).abs() < 1e-10);
}

#[test]
fn pool_backed_sampling_is_thread_count_invariant_with_fusion() {
    let mut c = Circuit::uniform(2, 3);
    c.push(Gate::fourier(3), &[0]).unwrap();
    c.push(Gate::csum(3, 3), &[0, 1]).unwrap();
    c.measure(&[0]).unwrap();
    let noise = NoiseModel::cavity(0.1, 0.15, 0.0);
    let reference = StatevectorSimulator::with_seed(77)
        .with_noise(noise.clone())
        .with_threads(1)
        .sample_counts(&c, 400)
        .unwrap();
    for threads in [2, 3, 8] {
        let counts = StatevectorSimulator::with_seed(77)
            .with_noise(noise.clone())
            .with_threads(threads)
            .sample_counts(&c, 400)
            .unwrap();
        assert_eq!(counts, reference, "threads = {threads}");
    }
}
