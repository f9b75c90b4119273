//! Cross-crate integration tests: each test exercises at least two workspace
//! crates through the umbrella `qudit-cavity` API, checking that the pieces
//! the experiments rely on actually compose.

use qudit_cavity::cavity::device::Device;
use qudit_cavity::cavity::lindblad::LindbladSystem;
use qudit_cavity::circuit::noise::NoiseModel;
use qudit_cavity::circuit::sim::{
    DensityMatrixSimulator, StatevectorSimulator, TrajectorySimulator,
};
use qudit_cavity::circuit::{Circuit, Gate};
use qudit_cavity::compiler::mapping::{map_circuit, MappingStrategy};
use qudit_cavity::compiler::resource::estimate_resources;
use qudit_cavity::compiler::synthesis::{decompose_unitary, CsumCompiler};
use qudit_cavity::core::metrics::process_fidelity;
use qudit_cavity::core::prelude::*;
use qudit_cavity::lgt::hamiltonian::{sqed_chain, SqedParams};
use qudit_cavity::lgt::trotter::{exact_propagator, trotter_circuit, TrotterOrder};
use qudit_cavity::qopt::graph::{ColoringProblem, Graph};
use qudit_cavity::qopt::ndar::{run_ndar, NdarConfig};
use qudit_cavity::qopt::qaoa::{QaoaConfig, QuditQaoa};
use qudit_cavity::qrc::pipeline::evaluate_quantum;
use qudit_cavity::qrc::reservoir::ReservoirParams;
use qudit_cavity::qrc::tasks::memory_task;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn trotterised_sqed_circuit_compiles_and_runs_end_to_end() {
    // lgt → qudit-circuit → qudit-compiler → cavity-sim.
    let h = sqed_chain(&SqedParams { sites: 3, link_dim: 3, ..Default::default() }).unwrap();
    let circuit = trotter_circuit(&h, 0.8, 4, TrotterOrder::Second).unwrap();

    // Simulated evolution agrees with the exact propagator.
    let exact = exact_propagator(&h, 0.8).unwrap();
    let fidelity = process_fidelity(&circuit.unitary().unwrap(), &exact).unwrap();
    assert!(fidelity > 0.999, "Trotter fidelity {fidelity}");

    // The same circuit maps onto the present-day testbed... (3 qutrits fit)
    let device = Device::testbed();
    let estimate =
        estimate_resources("sqed-3", &circuit, &device, MappingStrategy::NoiseAware).unwrap();
    assert_eq!(estimate.logical_qudits, 3);
    assert!(estimate.estimated_fidelity > 0.0 && estimate.estimated_fidelity < 1.0);
    assert!(estimate.coherence_feasible);
}

#[test]
fn synthesised_gates_behave_inside_circuits() {
    // qudit-compiler synthesis output drives a qudit-circuit simulation.
    let d = 4;
    let target = qudit_cavity::circuit::gates::fourier(d);
    let decomposition = decompose_unitary(&target).unwrap();

    let mut circuit = Circuit::new(vec![d]);
    for rot in &decomposition.rotations {
        circuit.push(Gate::custom("givens", vec![d], rot.matrix.clone()).unwrap(), &[0]).unwrap();
    }
    circuit.push(Gate::snap(d, &decomposition.phases), &[0]).unwrap();

    let from_circuit = circuit.unitary().unwrap();
    assert!(process_fidelity(&from_circuit, &target).unwrap() > 1.0 - 1e-9);
}

#[test]
fn csum_compilation_matches_device_connectivity_cost() {
    let device = Device::testbed();
    let compiler = CsumCompiler::new(&device);
    let intra = compiler.compile(0, 1).unwrap();
    let inter = compiler.compile(1, 2).unwrap();
    assert!(intra.estimated_fidelity > inter.estimated_fidelity);
    assert!(intra.ideal_construction_fidelity().unwrap() > 1.0 - 1e-9);
}

#[test]
fn noise_aware_mapping_never_loses_to_round_robin_on_forecast_device() {
    let h = sqed_chain(&SqedParams { sites: 8, link_dim: 4, ..Default::default() }).unwrap();
    let circuit = trotter_circuit(&h, 0.5, 1, TrotterOrder::First).unwrap();
    let device = Device::forecast();
    let aware = map_circuit(&circuit, &device, MappingStrategy::NoiseAware).unwrap();
    let naive = map_circuit(&circuit, &device, MappingStrategy::RoundRobin).unwrap();
    assert!(aware.estimated_fidelity >= naive.estimated_fidelity * 0.999);
}

#[test]
fn qaoa_circuit_runs_on_both_simulator_backends() {
    let problem = ColoringProblem::new(Graph::cycle(4).unwrap(), 3).unwrap();
    let qaoa = QuditQaoa::new(problem, QaoaConfig { layers: 1, ..Default::default() });
    let circuit = qaoa.circuit(&[0.5], &[0.3]).unwrap();

    let pure = StatevectorSimulator::new().run(&circuit).unwrap();
    let rho = DensityMatrixSimulator::new().run(&circuit).unwrap();
    assert!((rho.fidelity_with_pure(&pure).unwrap() - 1.0).abs() < 1e-9);

    let noisy = DensityMatrixSimulator::new()
        .with_noise(NoiseModel::cavity(0.02, 0.05, 0.0))
        .run(&circuit)
        .unwrap();
    assert!(noisy.fidelity_with_pure(&pure).unwrap() < 1.0);
}

#[test]
fn ndar_loop_uses_cavity_loss_model_and_improves() {
    let problem = ColoringProblem::new(Graph::cycle(5).unwrap(), 3).unwrap();
    let config = NdarConfig {
        rounds: 2,
        qaoa: QaoaConfig { layers: 1, trajectories: 15, optimizer_rounds: 6, ..Default::default() },
        shots_per_round: 16,
    };
    let noise = NoiseModel::cavity(0.1, 0.2, 0.0);
    let result = run_ndar(&problem, &config, &noise, true).unwrap();
    assert!(result.best_value >= 3, "best value {}", result.best_value);
    assert_eq!(result.best_value_per_round.len(), 2);
}

#[test]
fn quantum_reservoir_pipeline_spans_cavity_and_training_stacks() {
    // cavity-sim Lindblad dynamics + qrc training on a short memory task.
    let task = memory_task(60, 1, 5);
    let eval = evaluate_quantum(&ReservoirParams::small(), &task, 0.7, 1e-3).unwrap();
    assert!(eval.test_nmse.is_finite());
    assert!(eval.train_nmse < 1.0);
}

#[test]
fn lindblad_decay_matches_discrete_photon_loss_channel() {
    // cavity-sim continuous dynamics vs qudit-circuit's discrete Kraus channel.
    let d = 5;
    let t1 = 10.0;
    let elapsed = 2.0;
    // Continuous evolution.
    let mut sys = LindbladSystem::new(vec![d]).unwrap();
    sys.add_collapse(&qudit_cavity::circuit::gates::annihilation(d), &[0], 1.0 / t1).unwrap();
    let mut rho = DensityMatrix::from_pure(&QuditState::basis(vec![d], &[3]).unwrap());
    sys.evolve(&mut rho, elapsed, 0.005).unwrap();
    // Discrete channel with the equivalent loss probability.
    let gamma = 1.0 - (-elapsed / t1).exp();
    let channel = qudit_cavity::circuit::noise::KrausChannel::photon_loss(d, gamma).unwrap();
    let mut rho_discrete = DensityMatrix::from_pure(&QuditState::basis(vec![d], &[3]).unwrap());
    rho_discrete.apply_kraus(channel.operators(), &[0]).unwrap();
    let distance = qudit_cavity::core::metrics::trace_distance(&rho, &rho_discrete).unwrap();
    assert!(distance < 2e-3, "trace distance {distance}");
}

#[test]
fn umbrella_crate_reexports_are_consistent() {
    assert!(!qudit_cavity::VERSION.is_empty());
    // A state built through the umbrella path behaves like the native one.
    let state = QuditState::basis(vec![3, 3], &[1, 2]).unwrap();
    assert_eq!(state.dim(), 9);
    let device = Device::forecast();
    assert_eq!(device.num_modes(), 40);
}

#[test]
fn zero_shots_sample_nothing_on_every_sampler() {
    // `TrajectorySimulator::new(0)` clamps to one trajectory, so every
    // sampler that delegates to the trajectory executor must still draw
    // nothing for zero shots.
    let mut c = Circuit::uniform(2, 3);
    c.push(Gate::fourier(3), &[0]).unwrap();
    c.push(Gate::csum(3, 3), &[0, 1]).unwrap();
    let mut measured = c.clone();
    measured.measure(&[0]).unwrap();
    let noise = NoiseModel::cavity(0.1, 0.2, 0.0);
    let traj = TrajectorySimulator::new(0).with_noise(noise.clone());
    let plan = traj.compile(&c).unwrap();
    let qaoa = QuditQaoa::new(
        ColoringProblem::new(Graph::complete(3).unwrap(), 3).unwrap(),
        QaoaConfig::default(),
    );
    let sample = |model: &NoiseModel| qaoa.sample_assignments(&[0.4], &[0.3], model, 0).unwrap();
    let sizes = [
        (
            "statevector, deterministic",
            StatevectorSimulator::new().sample_counts(&c, 0).unwrap().len(),
        ),
        (
            "statevector, measured",
            StatevectorSimulator::new().sample_counts(&measured, 0).unwrap().len(),
        ),
        (
            "statevector, noisy",
            StatevectorSimulator::new()
                .with_noise(noise.clone())
                .sample_counts(&c, 0)
                .unwrap()
                .len(),
        ),
        (
            "density",
            DensityMatrixSimulator::new()
                .with_noise(noise.clone())
                .sample_counts(&c, 0)
                .unwrap()
                .len(),
        ),
        ("trajectory counts", traj.sample_counts(&c, 0).unwrap().len()),
        (
            "trajectory compiled",
            traj.sample_compiled(&plan, 0, &mut StdRng::seed_from_u64(1)).unwrap().0.len(),
        ),
        ("qaoa, noiseless", sample(&NoiseModel::noiseless()).len()),
        ("qaoa, cavity noise", sample(&noise).len()),
    ];
    for (sampler, size) in sizes {
        assert_eq!(size, 0, "{sampler} sampled {size} outcomes from zero shots");
    }
}
