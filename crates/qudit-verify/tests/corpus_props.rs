//! Translation validation over randomized circuit corpora: the verifier
//! must accept every plan the real compiler emits, across the same circuit
//! families the fusion/flush/rebind/superop property suites exercise, on
//! both pipelines, with and without noise, fusion, and superoperator
//! folding. These tests also pin the report counters, so a verifier that
//! silently skips its expensive checks cannot pass.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qudit_circuit::noise::{KrausChannel, NoiseModel};
use qudit_circuit::sim::{
    DensityMatrixSimulator, FusionConfig, GuardConfig, StatevectorSimulator, SuperopConfig,
};
use qudit_circuit::{Circuit, Gate, Param};
use qudit_core::matrix::CMatrix;
use qudit_core::random::haar_unitary;
use qudit_core::Complex64;
use qudit_verify::{
    expected_guard_checks, verify_density, verify_density_bound, verify_ensemble_health,
    verify_run_health, verify_statevector, verify_statevector_bound, VerifyConfig,
};

fn random_dims(rng: &mut StdRng) -> Vec<usize> {
    let n = rng.gen_range(3..=5);
    (0..n).map(|_| rng.gen_range(2..=4)).collect()
}

fn random_hermitian(rng: &mut StdRng, d: usize) -> CMatrix {
    let u = haar_unitary(rng, d).unwrap();
    let mut h = CMatrix::zeros(d, d);
    for r in 0..d {
        for c in 0..d {
            let v = u.get(r, c) + u.get(c, r).conj();
            h.set(r, c, v);
        }
    }
    h
}

/// The fusion-suite gate mix: diagonal, monomial and dense one/two-qudit
/// gates with randomly ordered targets.
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
                let phases: Vec<Complex64> = (0..d)
                    .map(|_| Complex64::cis(rng.gen::<f64>() * std::f64::consts::TAU))
                    .collect();
                let m = CMatrix::diag(&phases);
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

/// The rebind-suite parameterized gate mix reading parameter `idx`.
fn push_random_param_gate(c: &mut Circuit, dims: &[usize], idx: usize, rng: &mut StdRng) {
    let n = dims.len();
    let q = rng.gen_range(0..n);
    let d = dims[q];
    if rng.gen::<f64>() < 0.5 {
        let weights: Vec<f64> = (0..d).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
        let g = Gate::parameterized(
            format!("sep{idx}"),
            vec![d],
            &CMatrix::diag_real(&weights),
            Param::Free(idx),
        )
        .unwrap();
        c.push(g, &[q]).unwrap();
    } else {
        let h = random_hermitian(rng, d);
        let g = Gate::parameterized(format!("mix{idx}"), vec![d], &h, Param::Free(idx)).unwrap();
        c.push(g, &[q]).unwrap();
    }
}

/// A randomized circuit mixing unitaries with the structural instructions
/// (measure / reset / barrier / explicit channels), the flush-suite shape.
fn random_mixed_circuit(rng: &mut StdRng, dims: &[usize], gates: usize) -> Circuit {
    let mut c = Circuit::new(dims.to_vec());
    for _ in 0..gates {
        match rng.gen_range(0..10) {
            0 => {
                let q = rng.gen_range(0..dims.len());
                c.measure(&[q]).unwrap();
            }
            1 => {
                let q = rng.gen_range(0..dims.len());
                c.reset(q).unwrap();
            }
            2 => c.barrier(),
            3 => {
                let q = rng.gen_range(0..dims.len());
                let ch = KrausChannel::dephasing(dims[q], 0.2).unwrap();
                c.push_channel(ch, &[q]).unwrap();
            }
            _ => push_random_gate(&mut c, dims, rng),
        }
    }
    c.measure_all();
    c
}

/// A randomized parameterized circuit, every slot in `0..num_params` used.
fn random_param_circuit(rng: &mut StdRng, dims: &[usize], num_params: usize) -> Circuit {
    let mut c = Circuit::new(dims.to_vec());
    for idx in 0..num_params {
        push_random_param_gate(&mut c, dims, idx, rng);
        for _ in 0..rng.gen_range(1..=3) {
            push_random_gate(&mut c, dims, rng);
        }
    }
    c
}

fn random_binding(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen::<f64>() * std::f64::consts::TAU - std::f64::consts::PI).collect()
}

// ---------------------------------------------------------------------------
// Statevector pipeline.
// ---------------------------------------------------------------------------

#[test]
fn statevector_plans_verify_on_random_unitary_corpora() {
    let mut total_blocks = 0usize;
    for trial in 0..20 {
        let mut rng = StdRng::seed_from_u64(31_000 + trial);
        let dims = random_dims(&mut rng);
        let mut c = Circuit::new(dims.clone());
        for _ in 0..rng.gen_range(8..=20) {
            push_random_gate(&mut c, &dims, &mut rng);
        }
        let plan = StatevectorSimulator::new().compile(&c).unwrap();
        let report = verify_statevector(&c, &plan, &VerifyConfig::default())
            .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
        assert!(report.steps > 0);
        assert!(report.operators_compared >= report.steps);
        total_blocks += report.fused_blocks;
    }
    assert!(total_blocks > 0, "corpus never exercised a fused block");
}

#[test]
fn statevector_plans_verify_with_fusion_disabled() {
    for trial in 0..10 {
        let mut rng = StdRng::seed_from_u64(32_000 + trial);
        let dims = random_dims(&mut rng);
        let mut c = Circuit::new(dims.clone());
        for _ in 0..12 {
            push_random_gate(&mut c, &dims, &mut rng);
        }
        let fusion = FusionConfig { enabled: false, ..FusionConfig::default() };
        let plan = StatevectorSimulator::new().with_fusion(fusion.clone()).compile(&c).unwrap();
        let cfg = VerifyConfig::default().with_fusion(fusion);
        let report = verify_statevector(&c, &plan, &cfg).unwrap();
        assert_eq!(report.fused_blocks, 0);
    }
}

#[test]
fn statevector_plans_verify_on_mixed_circuits_with_noise() {
    for trial in 0..15 {
        let mut rng = StdRng::seed_from_u64(33_000 + trial);
        let dims = random_dims(&mut rng);
        let c = random_mixed_circuit(&mut rng, &dims, 16);
        let mut noise = NoiseModel::depolarizing(0.01, 0.05);
        noise.idle_photon_loss = 0.02;
        let plan = StatevectorSimulator::new().with_noise(noise.clone()).compile(&c).unwrap();
        let cfg = VerifyConfig::default().with_noise(noise);
        verify_statevector(&c, &plan, &cfg).unwrap_or_else(|e| panic!("trial {trial}: {e}"));
    }
}

#[test]
fn statevector_bound_plans_verify_after_each_rebind() {
    for trial in 0..10 {
        let mut rng = StdRng::seed_from_u64(34_000 + trial);
        let dims = random_dims(&mut rng);
        let num_params = 3;
        let c = random_param_circuit(&mut rng, &dims, num_params);
        assert_eq!(c.num_params(), num_params);
        let mut plan = StatevectorSimulator::new().compile(&c).unwrap();
        let cfg = VerifyConfig::default();
        // Fresh from compile: the all-zero binding.
        let report = verify_statevector(&c, &plan, &cfg).unwrap();
        assert!(report.bindings_sampled > 0, "corpus circuit has rebindable steps");
        for round in 0..3 {
            let theta = random_binding(&mut rng, num_params);
            plan.bind(&theta).unwrap();
            verify_statevector_bound(&c, &plan, &theta, &cfg)
                .unwrap_or_else(|e| panic!("trial {trial}, round {round}: {e}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Density pipeline.
// ---------------------------------------------------------------------------

#[test]
fn density_plans_verify_on_mixed_circuits_with_noise() {
    let mut total_sweeps = 0usize;
    let mut total_compressed = 0usize;
    for trial in 0..12 {
        let mut rng = StdRng::seed_from_u64(35_000 + trial);
        let n = rng.gen_range(2..=3);
        let dims: Vec<usize> = (0..n).map(|_| rng.gen_range(2..=3)).collect();
        let c = random_mixed_circuit(&mut rng, &dims, 12);
        let mut noise = NoiseModel::depolarizing(0.01, 0.05);
        noise.idle_photon_loss = 0.02;
        let plan = DensityMatrixSimulator::new().with_noise(noise.clone()).compile(&c).unwrap();
        let cfg = VerifyConfig::default().with_noise(noise);
        let report =
            verify_density(&c, &plan, &cfg).unwrap_or_else(|e| panic!("trial {trial}: {e}"));
        assert!(report.items > 0);
        total_sweeps += report.sweeps;
        total_compressed += report.compressed_sweeps;
    }
    assert!(total_sweeps > 0, "corpus never exercised a superoperator sweep");
    assert!(total_compressed > 0, "corpus never exercised a compressed sweep");
}

#[test]
fn density_plans_verify_with_superop_disabled() {
    for trial in 0..8 {
        let mut rng = StdRng::seed_from_u64(36_000 + trial);
        let dims = vec![2, 3];
        let c = random_mixed_circuit(&mut rng, &dims, 10);
        let noise = NoiseModel::depolarizing(0.02, 0.02);
        let superop = SuperopConfig { enabled: false, ..SuperopConfig::default() };
        let plan = DensityMatrixSimulator::new()
            .with_noise(noise.clone())
            .with_superop(superop.clone())
            .compile(&c)
            .unwrap();
        let cfg = VerifyConfig::default().with_noise(noise).with_superop(superop);
        let report = verify_density(&c, &plan, &cfg).unwrap();
        assert_eq!(report.sweeps, 0, "folding is off; nothing may sweep");
    }
}

#[test]
fn density_bound_plans_verify_after_each_rebind() {
    for trial in 0..8 {
        let mut rng = StdRng::seed_from_u64(37_000 + trial);
        let dims = vec![3, 2];
        let num_params = 2;
        let c = random_param_circuit(&mut rng, &dims, num_params);
        let noise = NoiseModel::depolarizing(0.01, 0.01);
        let sim = DensityMatrixSimulator::new().with_noise(noise.clone());
        let mut plan = sim.compile(&c).unwrap();
        let cfg = VerifyConfig::default().with_noise(noise);
        verify_density(&c, &plan, &cfg).unwrap_or_else(|e| panic!("trial {trial}: {e}"));
        for round in 0..3 {
            let theta = random_binding(&mut rng, num_params);
            plan.bind(&theta).unwrap();
            verify_density_bound(&c, &plan, &theta, &cfg)
                .unwrap_or_else(|e| panic!("trial {trial}, round {round}: {e}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Guard checkpoint accounting.
// ---------------------------------------------------------------------------

#[test]
fn run_health_matches_the_checkpoint_formula() {
    for trial in 0..6 {
        let mut rng = StdRng::seed_from_u64(38_000 + trial);
        let dims = random_dims(&mut rng);
        let mut c = Circuit::new(dims.clone());
        for _ in 0..rng.gen_range(6..=18) {
            push_random_gate(&mut c, &dims, &mut rng);
        }
        let cadence = rng.gen_range(1..=4);
        let guard = GuardConfig { cadence, ..GuardConfig::enabled() };
        let sim = StatevectorSimulator::new().with_guard(guard);
        let plan = sim.compile(&c).unwrap();
        let out = sim.run_compiled(&plan, None).unwrap();
        verify_run_health(&out.health, plan.num_steps(), &guard)
            .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
    }
    // Disabled guards check nothing, regardless of step count.
    assert_eq!(expected_guard_checks(40, &GuardConfig::disabled()), 0);
}

#[test]
fn ensemble_columns_each_satisfy_the_checkpoint_formula() {
    // A batched ensemble pass promises serial `RunHealth` semantics per
    // column: every member is checkpointed at the guard cadence as if it ran
    // alone.
    for trial in 0..4 {
        let mut rng = StdRng::seed_from_u64(39_000 + trial);
        let dims = random_dims(&mut rng);
        let mut c = Circuit::new(dims.clone());
        for _ in 0..rng.gen_range(6..=18) {
            push_random_gate(&mut c, &dims, &mut rng);
        }
        let cadence = rng.gen_range(1..=4);
        let guard = GuardConfig { cadence, ..GuardConfig::enabled() };
        let sim = StatevectorSimulator::new().with_guard(guard);
        let plan = sim.compile(&c).unwrap();
        let batch = plan.bind_batch(&vec![Vec::new(); 5]).unwrap();
        let healths: Vec<_> = sim
            .run_ensemble_from(&plan, &batch, None)
            .unwrap()
            .into_iter()
            .map(|column| column.unwrap().health)
            .collect();
        verify_ensemble_health(&healths, plan.num_steps(), &guard)
            .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
    }
}
