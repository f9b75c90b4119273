//! Property tests for the parameterized circuit IR and rebindable compiled
//! plans: for every simulator back-end, rebinding a compiled plan must equal
//! recompiling the bound circuit — `compile(c).bind(θ).run ≡
//! compile(c.with_bound(θ)).run` — at 1e-12 on randomized mixed-radix
//! parameterized circuits with mid-circuit measurements and noise channels.
//! For the stochastic back-ends (statevector, trajectory) the agreement is
//! pinned **bitwise**: rebound and rebuilt plans materialise bitwise-
//! identical operators, so measurement records, shot counts and trajectory
//! estimates coincide exactly and RNG streams stay aligned.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qudit_circuit::noise::{KrausChannel, NoiseModel};
use qudit_circuit::sim::{
    DensityMatrixSimulator, FusionConfig, RunOutput, StatevectorSimulator, SuperopConfig,
    TrajectorySimulator,
};
use qudit_circuit::{Circuit, CircuitError, Gate, Observable, Param};
use qudit_core::density::DensityMatrix;
use qudit_core::matrix::CMatrix;
use qudit_core::state::QuditState;
use qudit_core::{Complex64, CoreError};

const TOL: f64 = 1e-12;

/// A random Hermitian generator of dimension `d`.
fn random_hermitian(rng: &mut StdRng, d: usize) -> CMatrix {
    let a = CMatrix::from_fn(d, d, |_, _| {
        Complex64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5)
    });
    a.hermitian_part()
}

/// Pushes a random parameterized gate reading parameter `idx`: a diagonal
/// phase separator, a dense mixer-style rotation, or a two-qudit diagonal
/// coupler — the gate families the application crates sweep.
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

/// A randomized parameterized circuit with `num_params` free angles, mixing
/// parameterized and constant gates with mid-circuit measurements, resets and
/// explicit noise channels.
fn random_param_circuit(
    rng: &mut StdRng,
    num_params: usize,
    stochastic: bool,
) -> (Circuit, Vec<usize>) {
    let n = rng.gen_range(3..=4);
    let dims: Vec<usize> = (0..n).map(|_| rng.gen_range(2..=3)).collect();
    let mut c = Circuit::new(dims.clone());
    let len = rng.gen_range(10..=18);
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
            let ch = if rng.gen::<bool>() {
                KrausChannel::photon_loss(dims[q], 0.2).unwrap()
            } else {
                KrausChannel::depolarizing(dims[q], 0.15).unwrap()
            };
            c.push_channel(ch, &[q]).unwrap();
        }
    }
    // Make sure every parameter index is actually read at least once.
    for idx in 0..num_params {
        if !used.contains(&idx) {
            push_random_param_gate(&mut c, &dims, idx, rng);
        }
    }
    (c, dims)
}

fn random_binding(rng: &mut StdRng, num_params: usize) -> Vec<f64> {
    (0..num_params).map(|_| rng.gen::<f64>() * 3.0 - 1.5).collect()
}

/// Compiles `c` afresh and runs it from `|0...0⟩`: the rebuild side of every
/// statevector comparison.
fn run_rebuilt(sim: &StatevectorSimulator, c: &Circuit) -> RunOutput {
    sim.run_compiled(&sim.compile(c).unwrap(), None).unwrap()
}

#[test]
fn statevector_rebind_is_bitwise_identical_to_rebuild() {
    for trial in 0..20 {
        let mut rng = StdRng::seed_from_u64(7000 + trial);
        let num_params = 3;
        let (c, _) = random_param_circuit(&mut rng, num_params, true);
        assert_eq!(c.num_params(), num_params);
        let sim = StatevectorSimulator::with_seed(42 + trial);
        let mut plan = sim.compile(&c).unwrap();
        let steps = plan.num_steps();
        // Two successive rebinds of the same plan, each compared against a
        // from-scratch compile of the bound circuit.
        for round in 0..2 {
            let theta = random_binding(&mut rng, num_params);
            plan.bind(&theta).unwrap();
            let rebound = sim.run_compiled(&plan, None).unwrap();
            let rebuilt = run_rebuilt(&sim, &c.with_bound(&theta).unwrap());
            assert_eq!(
                rebound.measurements, rebuilt.measurements,
                "trial {trial}, round {round}: measurement records must be bitwise identical"
            );
            assert_eq!(
                rebound.state.amplitudes(),
                rebuilt.state.amplitudes(),
                "trial {trial}, round {round}: states must be bitwise identical"
            );
            assert_eq!(plan.num_steps(), steps, "rebinding must not change the plan topology");
            // Debug builds translation-validate the freshly rebound plan:
            // every override must carry exactly the recipe-at-θ operator.
            #[cfg(debug_assertions)]
            qudit_verify::verify_statevector_bound(
                &c,
                &plan,
                &theta,
                &qudit_verify::VerifyConfig::default(),
            )
            .unwrap();
        }
    }
}

#[test]
fn rebinding_back_to_an_earlier_binding_is_idempotent() {
    let mut rng = StdRng::seed_from_u64(99);
    let (c, _) = random_param_circuit(&mut rng, 2, false);
    let sim = StatevectorSimulator::with_seed(5);
    let mut plan = sim.compile(&c).unwrap();
    let theta1 = random_binding(&mut rng, 2);
    let theta2 = random_binding(&mut rng, 2);
    let mut run_at = |theta: &[f64]| {
        plan.bind(theta).unwrap();
        sim.run_compiled(&plan, None).unwrap()
    };
    let first = run_at(&theta1);
    let _ = run_at(&theta2);
    let again = run_at(&theta1);
    assert_eq!(first.state.amplitudes(), again.state.amplitudes());
}

#[test]
fn rebind_rejects_short_bindings_and_zero_binding_matches_compile() {
    let mut rng = StdRng::seed_from_u64(123);
    let (c, _) = random_param_circuit(&mut rng, 3, false);
    let sim = StatevectorSimulator::new();
    let mut plan = sim.compile(&c).unwrap();
    assert_eq!(plan.num_params(), 3);
    assert!(plan.bind(&[0.1]).is_err(), "short bindings must be rejected");
    // A freshly compiled parameterized plan is bound at zeros.
    let at_compile = sim.run_compiled(&plan, None).unwrap();
    plan.bind(&[0.0; 3]).unwrap();
    let at_zeros = sim.run_compiled(&plan, None).unwrap();
    assert_eq!(at_compile.state.amplitudes(), at_zeros.state.amplitudes());
}

#[test]
fn rebind_matches_rebuild_with_fusion_disabled_and_gate_noise() {
    for trial in 0..8 {
        let mut rng = StdRng::seed_from_u64(4400 + trial);
        let (c, _) = random_param_circuit(&mut rng, 2, true);
        let noise = NoiseModel::depolarizing(0.02, 0.05);
        for fusion in [FusionConfig::default(), FusionConfig::disabled()] {
            let sim = StatevectorSimulator::with_seed(17 + trial)
                .with_noise(noise.clone())
                .with_fusion(fusion.clone());
            let mut plan = sim.compile(&c).unwrap();
            let theta = random_binding(&mut rng, 2);
            plan.bind(&theta).unwrap();
            let rebound = sim.run_compiled(&plan, None).unwrap();
            let rebuilt = run_rebuilt(&sim, &c.with_bound(&theta).unwrap());
            assert_eq!(rebound.measurements, rebuilt.measurements);
            assert_eq!(rebound.state.amplitudes(), rebuilt.state.amplitudes());
        }
    }
}

#[test]
fn trajectory_rebind_estimates_are_bitwise_identical_to_rebuild() {
    for trial in 0..6 {
        let mut rng = StdRng::seed_from_u64(5100 + trial);
        let (c, dims) = random_param_circuit(&mut rng, 2, true);
        let noise = NoiseModel::cavity(0.05, 0.1, 0.0);
        let obs = Observable::number(0, dims[0]);
        let sim = TrajectorySimulator::new(40).with_seed(31 + trial).with_noise(noise.clone());
        let mut plan = sim.compile(&c).unwrap();
        for _ in 0..2 {
            let theta = random_binding(&mut rng, 2);
            plan.bind(&theta).unwrap();
            let rebuilt_plan = sim.compile(&c.with_bound(&theta).unwrap()).unwrap();
            let (rebound, _) = sim.expectation_compiled(&plan, &obs).unwrap();
            let (rebuilt, _) = sim.expectation_compiled(&rebuilt_plan, &obs).unwrap();
            assert_eq!(rebound.mean, rebuilt.mean, "trial {trial}");
            assert_eq!(rebound.std_error, rebuilt.std_error, "trial {trial}");
            // The averaged outcome distribution agrees bitwise too.
            let (dist_rebound, _) = sim.outcome_distribution_compiled(&plan).unwrap();
            let (dist_rebuilt, _) = sim.outcome_distribution_compiled(&rebuilt_plan).unwrap();
            assert_eq!(dist_rebound, dist_rebuilt, "trial {trial}");
        }
    }
}

#[test]
fn density_rebind_matches_rebuild_at_tolerance() {
    // The density compiler classifies free-parameter items conservatively, so
    // the rebound plan's folding topology may differ from the plan compiled
    // from the bound circuit — both are exact re-orderings, equal to
    // rounding.
    for trial in 0..10 {
        let mut rng = StdRng::seed_from_u64(6200 + trial);
        let (c, _) = random_param_circuit(&mut rng, 2, true);
        let noise = NoiseModel::depolarizing(0.01, 0.03);
        for superop in [SuperopConfig::default(), SuperopConfig::disabled()] {
            let sim = DensityMatrixSimulator::new()
                .with_noise(noise.clone())
                .with_superop(superop.clone());
            let mut plan = sim.compile(&c).unwrap();
            for _ in 0..2 {
                let theta = random_binding(&mut rng, 2);
                plan.bind(&theta).unwrap();
                let (rebound, _) = sim.run_compiled(&plan, None).unwrap();
                let rebuilt = sim.run(&c.with_bound(&theta).unwrap()).unwrap();
                let diff = (rebound.matrix() - rebuilt.matrix()).max_abs();
                assert!(diff < TOL, "trial {trial}: rebound vs rebuilt diff {diff}");
                assert!((rebound.trace() - 1.0).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn density_parallel_sweeps_are_bitwise_thread_invariant() {
    let mut rng = StdRng::seed_from_u64(8080);
    let (c, _) = random_param_circuit(&mut rng, 2, true);
    let noise = NoiseModel::depolarizing(0.02, 0.02);
    let theta = random_binding(&mut rng, 2);
    let bound = c.with_bound(&theta).unwrap();
    let serial = DensityMatrixSimulator::new()
        .with_noise(noise.clone())
        .with_threads(1)
        .run(&bound)
        .unwrap();
    for threads in [2usize, 4] {
        let parallel = DensityMatrixSimulator::new()
            .with_noise(noise.clone())
            .with_threads(threads)
            .run(&bound)
            .unwrap();
        assert_eq!(serial.matrix().as_slice(), parallel.matrix().as_slice(), "threads = {threads}");
    }
}

#[test]
fn rebound_shot_counts_are_bitwise_identical_to_rebuild() {
    // sample_counts runs one trajectory per shot with index-derived seeds,
    // channel branch selection consumes further variates, and the shots and
    // their readout flips draw from one shared stream; bitwise-equal counts
    // between the rebound-plan circuit and the rebuilt circuit pin the whole
    // RNG stream alignment.
    let mut rng = StdRng::seed_from_u64(909);
    let (c, _) = random_param_circuit(&mut rng, 2, true);
    let theta = random_binding(&mut rng, 2);
    let bound = c.with_bound(&theta).unwrap();
    let noise = NoiseModel::depolarizing(0.02, 0.04).with_readout_flip(0.05);
    let sim = StatevectorSimulator::with_seed(77).with_noise(noise);
    // Rebound plan and rebuilt circuit land on bitwise-identical states and
    // records under the simulator's fixed seed...
    let mut plan = sim.compile(&c).unwrap();
    plan.bind(&theta).unwrap();
    let rebound = sim.run_compiled(&plan, None).unwrap();
    let rebuilt = run_rebuilt(&sim, &bound);
    assert_eq!(rebound.measurements, rebuilt.measurements);
    assert_eq!(rebound.state.amplitudes(), rebuilt.state.amplitudes());
    // ...and the trajectory-executor sampler sees identical counts for the
    // bound circuit however the binding was produced.
    let counts_a = sim.sample_counts(&bound, 200).unwrap();
    let counts_b = sim.sample_counts(&c.with_bound(&theta).unwrap(), 200).unwrap();
    assert_eq!(counts_a, counts_b);
}

/// One input to a compiled entry point in the typed-error table below.
#[derive(Clone, Copy)]
enum Input<'a> {
    /// Bind these parameters, then run.
    Bind(&'a [f64]),
    /// Run with whatever binding the plan holds.
    Run,
    /// Run from an initial state (or against an observable) on another
    /// register.
    Register,
    /// Run under a simulator whose noise model differs from the plan's.
    Noise,
}

/// A compiled entry point under test: runs one [`Input`] and returns the
/// result's raw bits, or `None` where the entry takes no register input.
type Entry<'a> = Box<dyn FnMut(Input) -> Option<Result<Vec<u64>, CircuitError>> + 'a>;

fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

fn state_bits(state: &QuditState) -> Vec<u64> {
    bits(state.amplitudes().iter().flat_map(|a| [a.re, a.im]))
}

#[test]
fn every_compiled_entry_rejects_bad_inputs_and_keeps_its_binding() {
    // Every compiled entry of the three back-ends, and the statevector batch
    // entry, rejects a register mismatch, a noise mismatch and a short
    // binding with a typed error. A rejected bind leaves the previous
    // binding in effect: the next run is bitwise the run before it.
    let mut rng = StdRng::seed_from_u64(3131);
    let (c, dims) = random_param_circuit(&mut rng, 2, true);
    let theta = random_binding(&mut rng, 2);
    let wrong = dims[1..].to_vec();
    let noise = NoiseModel::depolarizing(0.02, 0.05);
    let other = NoiseModel::cavity(0.05, 0.1, 0.0);
    let obs = Observable::number(0, dims[0]);

    let sv = |noise: &NoiseModel| StatevectorSimulator::with_seed(8).with_noise(noise.clone());
    let (sim, other_sim) = (sv(&noise), sv(&other));
    let mut plan = sim.compile(&c).unwrap();
    let zero = QuditState::zero(dims.clone()).unwrap();
    let bad = QuditState::zero(wrong.clone()).unwrap();
    let statevector: Entry = Box::new(move |input| {
        let out = match input {
            Input::Bind(params) => plan.bind(params).and_then(|()| sim.run_compiled(&plan, None)),
            Input::Run => sim.run_compiled(&plan, None),
            Input::Register => sim.run_compiled(&plan, Some(&bad)),
            Input::Noise => other_sim.run_compiled(&plan, None),
        };
        Some(out.map(|out| state_bits(&out.state)))
    });

    let (sim, other_sim) = (sv(&noise), sv(&other));
    let plan = sim.compile(&c).unwrap();
    let mut binding = theta.clone();
    let bad = QuditState::zero(wrong.clone()).unwrap();
    let ensemble: Entry = Box::new(move |input| {
        let run = |sim: &StatevectorSimulator, binding: &[f64], initial| {
            let batch = plan.bind_batch(&[binding.to_vec()])?;
            let column = sim.run_ensemble_from(&plan, &batch, initial)?.remove(0);
            Ok(state_bits(&column?.state))
        };
        Some(match input {
            Input::Bind(params) => run(&sim, params, &zero).inspect(|_| binding = params.to_vec()),
            Input::Run => run(&sim, &binding, &zero),
            // Even an empty population checks the register.
            Input::Register => {
                let empty = plan.bind_batch(&[]).unwrap();
                sim.run_ensemble_from(&plan, &empty, &bad).map(|_| Vec::new())
            }
            Input::Noise => run(&other_sim, &binding, &zero),
        })
    });

    let dm = |noise: &NoiseModel| DensityMatrixSimulator::new().with_noise(noise.clone());
    let (sim, other_sim) = (dm(&noise), dm(&other));
    let mut plan = sim.compile(&c).unwrap();
    let bad = DensityMatrix::zero(wrong.clone()).unwrap();
    let density: Entry = Box::new(move |input| {
        let out = match input {
            Input::Bind(params) => plan.bind(params).and_then(|()| sim.run_compiled(&plan, None)),
            Input::Run => sim.run_compiled(&plan, None),
            Input::Register => sim.run_compiled(&plan, Some(&bad)),
            Input::Noise => other_sim.run_compiled(&plan, None),
        };
        Some(out.map(|(rho, _)| bits(rho.matrix().as_slice().iter().flat_map(|a| [a.re, a.im]))))
    });

    let traj =
        |noise: &NoiseModel| TrajectorySimulator::new(12).with_seed(4).with_noise(noise.clone());
    let (sim, other_sim) = (traj(&noise), traj(&other));
    let mut plan = sim.compile(&c).unwrap();
    let bad_obs = Observable::number(dims.len(), 2);
    let expectation: Entry = Box::new(move |input| {
        let out = match input {
            Input::Bind(params) => {
                plan.bind(params).and_then(|()| sim.expectation_compiled(&plan, &obs))
            }
            Input::Run => sim.expectation_compiled(&plan, &obs),
            Input::Register => sim.expectation_compiled(&plan, &bad_obs),
            Input::Noise => other_sim.expectation_compiled(&plan, &obs),
        };
        Some(out.map(|(est, _)| bits([est.mean, est.std_error])))
    });

    let (sim, other_sim) = (traj(&noise), traj(&other));
    let mut plan = sim.compile(&c).unwrap();
    let distribution: Entry = Box::new(move |input| {
        let out = match input {
            Input::Bind(params) => {
                plan.bind(params).and_then(|()| sim.outcome_distribution_compiled(&plan))
            }
            Input::Run => sim.outcome_distribution_compiled(&plan),
            Input::Register => return None,
            Input::Noise => other_sim.outcome_distribution_compiled(&plan),
        };
        Some(out.map(|(dist, _)| bits(dist)))
    });

    let table = [
        ("statevector run_compiled", statevector),
        ("statevector run_ensemble_from", ensemble),
        ("density run_compiled", density),
        ("trajectory expectation_compiled", expectation),
        ("trajectory outcome_distribution_compiled", distribution),
    ];
    for (name, mut entry) in table {
        let before = entry(Input::Bind(&theta)).unwrap().unwrap();
        match entry(Input::Bind(&theta[..1])).unwrap() {
            Err(CircuitError::InvalidGate(_)) => {}
            other => panic!("{name}: short binding gave {other:?}"),
        }
        assert_eq!(entry(Input::Run).unwrap().unwrap(), before, "{name}: failed bind changed plan");
        match entry(Input::Noise).unwrap() {
            Err(CircuitError::Unsupported(_)) => {}
            other => panic!("{name}: noise mismatch gave {other:?}"),
        }
        match entry(Input::Register) {
            None => {}
            Some(Err(CircuitError::InvalidTargets(_)))
            | Some(Err(CircuitError::Core(CoreError::InvalidSubsystem { .. }))) => {}
            Some(other) => panic!("{name}: register mismatch gave {other:?}"),
        }
        assert_eq!(
            entry(Input::Run).unwrap().unwrap(),
            before,
            "{name}: rejected run changed plan"
        );
    }
}
