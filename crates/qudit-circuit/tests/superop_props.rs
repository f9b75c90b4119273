//! Property tests for the density simulator's superoperator batching: the
//! batched path (channels as single sweeps over vectorised ρ, with
//! channel-adjacent unitary folding) must equal the per-term Kraus path on
//! randomized mixed-radix circuits mixing diagonal, monomial and dense gates
//! with explicit channels, gate-level noise, measurements, resets and lossy
//! barriers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qudit_circuit::noise::{KrausChannel, NoiseModel};
use qudit_circuit::sim::introspect::{self, DensityStepView};
use qudit_circuit::sim::{
    CompiledDensityCircuit, DensityMatrixSimulator, FusionConfig, SuperopConfig,
};
use qudit_circuit::{Circuit, Gate};
use qudit_core::random::{haar_state, haar_unitary};
use qudit_core::{Complex64, DensityMatrix};

const TOL: f64 = 1e-12;

/// A random gate mixing diagonal, monomial and dense structure on one or two
/// qudits, with randomly ordered targets.
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

/// A random explicit channel on one qudit (or two for registers that allow a
/// small product dimension): photon loss, dephasing, depolarising or thermal.
fn push_random_channel(c: &mut Circuit, dims: &[usize], rng: &mut StdRng) {
    let n = dims.len();
    if n >= 2 && rng.gen::<f64>() < 0.25 {
        let a = rng.gen_range(0..n - 1);
        let b = a + 1;
        let ch = KrausChannel::two_qudit_depolarizing(dims[a], dims[b], 0.1).unwrap();
        c.push_channel(ch, &[a, b]).unwrap();
        return;
    }
    let q = rng.gen_range(0..n);
    let d = dims[q];
    let ch = match rng.gen_range(0..4) {
        0 => KrausChannel::photon_loss(d, 0.3).unwrap(),
        1 => KrausChannel::dephasing(d, 0.4).unwrap(),
        2 => KrausChannel::depolarizing(d, 0.2).unwrap(),
        _ => KrausChannel::thermal_excitation(d, 0.1).unwrap(),
    };
    c.push_channel(ch, &[q]).unwrap();
}

fn random_dims(rng: &mut StdRng) -> Vec<usize> {
    let n = rng.gen_range(2..=4);
    (0..n).map(|_| rng.gen_range(2..=4)).collect()
}

fn matrices_match(a: &DensityMatrix, b: &DensityMatrix, context: &str) {
    let diff = (a.matrix() - b.matrix()).max_abs();
    assert!(diff < TOL, "{context}: batched and per-term differ by {diff}");
}

/// Runs the same circuit through the batched and the per-term density paths.
fn compare(c: &Circuit, noise: &NoiseModel, context: &str) {
    let batched = DensityMatrixSimulator::new().with_noise(noise.clone()).run(c).unwrap();
    let per_term = DensityMatrixSimulator::new()
        .with_noise(noise.clone())
        .with_superop(SuperopConfig::disabled())
        .run(c)
        .unwrap();
    matrices_match(&batched, &per_term, context);
}

#[test]
fn batched_equals_per_term_on_random_channel_circuits() {
    for trial in 0..20 {
        let mut rng = StdRng::seed_from_u64(9000 + trial);
        let dims = random_dims(&mut rng);
        let mut c = Circuit::new(dims.clone());
        for _ in 0..rng.gen_range(4..12) {
            push_random_gate(&mut c, &dims, &mut rng);
            if rng.gen::<f64>() < 0.4 {
                push_random_channel(&mut c, &dims, &mut rng);
            }
        }
        compare(&c, &NoiseModel::noiseless(), &format!("trial {trial}"));
    }
}

#[test]
fn batched_equals_per_term_under_gate_level_noise() {
    for trial in 0..10 {
        let mut rng = StdRng::seed_from_u64(9500 + trial);
        let dims = random_dims(&mut rng);
        let mut c = Circuit::new(dims.clone());
        for _ in 0..rng.gen_range(4..10) {
            push_random_gate(&mut c, &dims, &mut rng);
        }
        let noise = NoiseModel::depolarizing(0.01, 0.03);
        compare(&c, &noise, &format!("trial {trial}"));
    }
}

#[test]
fn batched_equals_per_term_with_measure_reset_and_lossy_barriers() {
    for trial in 0..10 {
        let mut rng = StdRng::seed_from_u64(9700 + trial);
        let dims = random_dims(&mut rng);
        let mut c = Circuit::new(dims.clone());
        for _ in 0..rng.gen_range(5..12) {
            push_random_gate(&mut c, &dims, &mut rng);
            let r: f64 = rng.gen();
            if r < 0.15 {
                let q = rng.gen_range(0..dims.len());
                c.measure(&[q]).unwrap();
            } else if r < 0.25 {
                let q = rng.gen_range(0..dims.len());
                c.reset(q).unwrap();
            } else if r < 0.35 {
                c.barrier();
            }
        }
        // Idle photon loss turns every barrier into per-qudit loss channels.
        let noise = NoiseModel::cavity(0.02, 0.05, 0.1);
        compare(&c, &noise, &format!("trial {trial}"));
    }
}

#[test]
fn superop_budget_variations_agree() {
    let mut rng = StdRng::seed_from_u64(9900);
    let dims = vec![2, 3, 4];
    let mut c = Circuit::new(dims.clone());
    for _ in 0..12 {
        push_random_gate(&mut c, &dims, &mut rng);
        if rng.gen::<f64>() < 0.5 {
            push_random_channel(&mut c, &dims, &mut rng);
        }
    }
    let noise = NoiseModel::depolarizing(0.02, 0.02);
    let reference = DensityMatrixSimulator::new()
        .with_noise(noise.clone())
        .with_superop(SuperopConfig::disabled())
        .run(&c)
        .unwrap();
    for max_dim in [2, 4, 8, 16, 64] {
        let batched = DensityMatrixSimulator::new()
            .with_noise(noise.clone())
            .with_superop(SuperopConfig { enabled: true, max_dim })
            .run(&c)
            .unwrap();
        matrices_match(&batched, &reference, &format!("max_dim {max_dim}"));
    }
}

#[test]
fn batched_equals_per_term_with_fusion_disabled() {
    // With fusion off, same-support unitary runs reach the density compiler
    // unfused and must still fold/execute correctly.
    let mut rng = StdRng::seed_from_u64(9950);
    let dims = vec![3, 3];
    let mut c = Circuit::new(dims.clone());
    for _ in 0..10 {
        push_random_gate(&mut c, &dims, &mut rng);
        if rng.gen::<f64>() < 0.3 {
            push_random_channel(&mut c, &dims, &mut rng);
        }
    }
    let noise = NoiseModel::depolarizing(0.02, 0.02);
    let batched = DensityMatrixSimulator::new()
        .with_noise(noise.clone())
        .with_fusion(FusionConfig::disabled())
        .run(&c)
        .unwrap();
    let per_term = DensityMatrixSimulator::new()
        .with_noise(noise.clone())
        .with_fusion(FusionConfig::disabled())
        .with_superop(SuperopConfig::disabled())
        .run(&c)
        .unwrap();
    matrices_match(&batched, &per_term, "fusion disabled");
}

#[test]
fn compiled_density_circuit_reuse_matches_fresh_runs() {
    let mut rng = StdRng::seed_from_u64(9960);
    let dims = vec![3, 2, 3];
    let mut c = Circuit::new(dims.clone());
    for _ in 0..10 {
        push_random_gate(&mut c, &dims, &mut rng);
        if rng.gen::<f64>() < 0.4 {
            push_random_channel(&mut c, &dims, &mut rng);
        }
    }
    let sim = DensityMatrixSimulator::new().with_noise(NoiseModel::depolarizing(0.01, 0.02));
    let compiled = sim.compile(&c).unwrap();
    // Debug builds translation-validate the density plan, sweeps included.
    #[cfg(debug_assertions)]
    qudit_verify::verify_density(
        &c,
        &compiled,
        &qudit_verify::VerifyConfig::default().with_noise(NoiseModel::depolarizing(0.01, 0.02)),
    )
    .unwrap();
    let stats = compiled.superop_stats();
    assert!(stats.super_steps > 0, "superoperator sweeps must engage: {stats:?}");
    let fresh = sim.run(&c).unwrap();
    for _ in 0..3 {
        let (rerun, _) = sim.run_compiled(&compiled, None).unwrap();
        matrices_match(&rerun, &fresh, "compiled reuse");
    }
}

#[test]
fn compiled_density_circuit_rejects_mismatched_noise_model() {
    let mut c = Circuit::uniform(2, 3);
    c.push(Gate::fourier(3), &[0]).unwrap();
    let compiled = DensityMatrixSimulator::new().compile(&c).unwrap();
    assert!(DensityMatrixSimulator::new().run_compiled(&compiled, None).is_ok());
    let noisy = DensityMatrixSimulator::new().with_noise(NoiseModel::depolarizing(0.05, 0.1));
    assert!(noisy.run_compiled(&compiled, None).is_err());
}

#[test]
fn noisy_single_qudit_gate_folds_with_its_channel() {
    // A single-qudit gate with its attached depolarising channel is one
    // superoperator sweep (k² ≤ sandwich + channel sweep), and a run of them
    // on the same wire collapses further.
    let mut c = Circuit::uniform(1, 4);
    c.push(Gate::fourier(4), &[0]).unwrap();
    c.push(Gate::clock_z(4), &[0]).unwrap();
    let sim = DensityMatrixSimulator::new().with_noise(NoiseModel::depolarizing(0.01, 0.02));
    let compiled = sim.compile(&c).unwrap();
    let stats = compiled.superop_stats();
    assert_eq!(stats.super_steps, 1, "{stats:?}");
    assert_eq!(stats.unitary_steps, 0, "{stats:?}");
    // Two gates + two channels folded into the single sweep.
    assert_eq!(stats.ops_folded, 4, "{stats:?}");
}

#[test]
fn dense_two_qudit_gate_keeps_sandwich_but_channels_batch() {
    // For a two-qudit gate with per-qudit channels the cost rule keeps the
    // gate on the sandwich path (k_U² = 256 would exceed 2k + 2k²) while each
    // channel still becomes one sweep.
    let mut c = Circuit::uniform(2, 4);
    c.push(Gate::csum(4, 4), &[0, 1]).unwrap();
    let sim = DensityMatrixSimulator::new().with_noise(NoiseModel::depolarizing(0.01, 0.02));
    let compiled = sim.compile(&c).unwrap();
    let stats = compiled.superop_stats();
    assert_eq!(stats.unitary_steps, 1, "{stats:?}");
    assert_eq!(stats.super_steps, 2, "{stats:?}");
    assert_eq!(stats.kraus_steps, 0, "{stats:?}");
}

#[test]
fn measurement_compiles_to_diagonal_superop_sweeps() {
    // Non-selective measurement dephasing has a diagonal superoperator: the
    // compiled plan should contain superoperator sweeps and no per-run
    // channel construction, and still equal the per-term path.
    let mut c = Circuit::uniform(2, 3);
    c.push(Gate::fourier(3), &[0]).unwrap();
    c.push(Gate::csum(3, 3), &[0, 1]).unwrap();
    c.measure_all();
    compare(&c, &NoiseModel::noiseless(), "measurement dephasing");
    let compiled = DensityMatrixSimulator::new().compile(&c).unwrap();
    assert!(compiled.superop_stats().super_steps >= 1);
}

/// Number of row-compressed superoperator sweeps in a compiled plan.
fn compressed_sweeps(plan: &CompiledDensityCircuit) -> usize {
    let view = introspect::density(plan);
    (0..view.num_steps())
        .filter(|&s| matches!(view.step(s), DensityStepView::Super { compressed: Some(_), .. }))
        .count()
}

#[test]
fn compressed_sweeps_equal_per_term_on_lossy_circuits() {
    // Cavity noise puts photon loss after every gate. A loss superoperator
    // (alone, or folded with a diagonal or monomial gate) is dense by class
    // but mostly zeros, so those sweeps compile row-compressed; the per-term
    // path shares none of that code.
    let mut total = 0usize;
    for trial in 0..10 {
        let mut rng = StdRng::seed_from_u64(9700 + trial);
        let dims = random_dims(&mut rng);
        let mut c = Circuit::new(dims.clone());
        for _ in 0..8 {
            push_random_gate(&mut c, &dims, &mut rng);
            if rng.gen::<f64>() < 0.3 {
                push_random_channel(&mut c, &dims, &mut rng);
            }
        }
        let noise = NoiseModel::cavity(0.05, 0.1, 0.0);
        let plan = DensityMatrixSimulator::new().with_noise(noise.clone()).compile(&c).unwrap();
        total += compressed_sweeps(&plan);
        compare(&c, &noise, &format!("lossy trial {trial}"));
    }
    assert!(total > 0, "no lossy circuit compiled a compressed sweep");
}

#[test]
fn sweeps_run_in_the_form_the_fill_rule_selects() {
    // A mixture of two random unitaries has a fully dense superoperator, so
    // its sweep stays dense and runs bitwise like `apply_superop_prepared`;
    // photon loss (14 of 81 entries nonzero at d = 3) runs compressed,
    // bitwise like `SuperPlan::apply_compressed`.
    let mut rng = StdRng::seed_from_u64(9800);
    let (u, v) = (haar_unitary(&mut rng, 3).unwrap(), haar_unitary(&mut rng, 3).unwrap());
    let mixture = KrausChannel::new(
        "mixture",
        vec![3],
        vec![u.scaled_real(0.6f64.sqrt()), v.scaled_real(0.4f64.sqrt())],
    )
    .unwrap();
    let loss = KrausChannel::photon_loss(3, 0.3).unwrap();
    let initial = DensityMatrix::from_pure(&haar_state(&mut rng, vec![3, 2]).unwrap());
    for (channel, expect_compressed) in [(mixture, false), (loss, true)] {
        let mut c = Circuit::new(vec![3, 2]);
        c.push_channel(channel, &[0]).unwrap();
        let sim = DensityMatrixSimulator::new();
        let plan = sim.compile(&c).unwrap();
        let view = introspect::density(&plan);
        assert_eq!(view.num_steps(), 1);
        let DensityStepView::Super { plan: sweep, sup, kind, compressed, .. } = view.step(0) else {
            panic!("a lone multi-operator channel compiles to one sweep");
        };
        let nonzeros = sup.as_slice().iter().filter(|v| **v != Complex64::ZERO).count();
        let entries = (sup.rows() * sup.cols()) as f64;
        assert_eq!(nonzeros as f64 <= SuperopConfig::COMPRESS_FILL * entries, expect_compressed);
        assert_eq!(compressed.is_some(), expect_compressed);
        let (ran, _) = sim.run_compiled(&plan, Some(&initial)).unwrap();
        let mut direct = initial.clone();
        match compressed {
            Some(rc) => sweep
                .apply_compressed(rc, direct.matrix_mut().as_mut_slice(), 1, &mut Vec::new())
                .unwrap(),
            None => direct.apply_superop_prepared(sweep, kind, sup, 1, &mut Vec::new()).unwrap(),
        }
        assert_eq!(ran.matrix().as_slice(), direct.matrix().as_slice());
    }
}
