//! The workload instances the `bench_kernels` rows time.
//!
//! The harness only times; `tests/rows.rs` pins each row's results (fused ≡
//! unfused, superop ≡ per-term, rebind ≡ rebuild, guarded ≡ unguarded,
//! cached ≡ compile-per-request) on these same instances, so a row can never
//! report a speedup for a path that computes something else.

use cavity_sim::lindblad::LindbladSystem;
use qopt::qaoa::{QaoaConfig, QuditQaoa};
use qrc::reservoir::{QuantumReservoir, ReservoirParams};
use qrc::tasks::narma;
use qudit_circuit::gates::annihilation;
use qudit_circuit::noise::{KrausChannel, NoiseModel};
use qudit_circuit::sim::StatevectorSimulator;
use qudit_circuit::{Circuit, Gate, Param};
use qudit_core::apply::OpKind;
use qudit_core::complex::{c64, Complex64};
use qudit_core::density::DensityMatrix;
use qudit_core::matrix::CMatrix;
use qudit_core::radix::{embed_operator, Radix};
use qudit_core::sparse::RowCompressed;
use qudit_core::state::QuditState;
use qudit_core::superop::SuperPlan;
use qudit_serve::{JobOutcome, JobSpec, ServeConfig, ServeEngine, ServeStats};

use crate::{small_sqed_circuit, table1_coloring_problem};

/// Sites, link dimension and first-order Trotter steps of the common sQED
/// workload (dim 4^4 = 256).
pub const SQED: (usize, usize, usize) = (4, 4, 2);

/// Trajectories and simulator seed of the trajectory rows.
pub const TRAJECTORIES: (usize, u64) = (64, 7);

/// Readout rounds and simulator seed of the syndrome-extraction row.
pub const SYNDROME: (usize, u64) = (9, 23);

/// Mode dimension, evolution time and RK4 step of the Lindblad row.
pub const LINDBLAD: (usize, f64, f64) = (6, 0.5, 0.01);

/// QAOA layers, sweep length and simulator seed of the rebind rows.
pub const QAOA: (usize, usize, u64) = (3, 24, 33);

/// Workers, QAOA/reservoir job pairs and QAOA layers of the serving row.
pub const SERVE: (usize, usize, usize) = (4, 12, 8);

/// The shot-sampling row's NDAR instance: nodes and graph seed of the
/// coloring problem, the QAOA seed, and the shots of one NDAR round (the
/// optimum's samples plus the round's samples).
pub const NDAR: (usize, u64, u64, [usize; 2]) = (6, 11, 5, [64, 12]);

/// The `ndar_coloring` workload's NDAR-QAOA instance, [`NDAR`]: one-layer
/// 3-coloring QAOA on `table1_coloring_problem(6, 11)` (dim 729).
pub fn ndar_qaoa() -> QuditQaoa {
    let (nodes, graph_seed, seed, _) = NDAR;
    QuditQaoa::new(
        table1_coloring_problem(nodes, graph_seed),
        QaoaConfig { layers: 1, seed, ..Default::default() },
    )
}

/// The `ndar_coloring` workload's photon-loss model.
pub fn ndar_noise() -> NoiseModel {
    NoiseModel::cavity(0.15, 0.3, 0.0)
}

/// The angles `(γ, β)` the shot-sampling row samples at.
pub const NDAR_ANGLES: ([f64; 1], [f64; 1]) = ([0.6], [0.4]);

/// Mode dimension and loss probability of the sparse-sweep row: one
/// digital-reservoir loss channel on a two-mode register.
pub const LOSS_SWEEP: (usize, f64) = (5, 0.1);

/// The sparse-sweep row's instance: the superoperator of photon loss on
/// mode 0 of a two-mode [`LOSS_SWEEP`] register (55 of 625 entries nonzero
/// at d = 5), its sweep plan and classification, its row-compressed copy,
/// and an excited starting ρ.
pub struct LossSweep {
    /// Sweep plan of mode 0 on the doubled register.
    pub plan: SuperPlan,
    /// The superoperator, stored dense.
    pub sup: CMatrix,
    /// Its exact classification (dense).
    pub kind: OpKind,
    /// The same superoperator, row-compressed.
    pub compressed: RowCompressed,
    /// Starting state: one photon in each mode, in superposition with the
    /// vacuum.
    pub rho: DensityMatrix,
}

/// Builds [`LossSweep`].
pub fn loss_sweep() -> LossSweep {
    let (d, gamma) = LOSS_SWEEP;
    let radix = Radix::new(vec![d, d]).expect("valid dims");
    let plan = SuperPlan::new(&radix, &[0]).expect("valid target");
    let channel = KrausChannel::photon_loss(d, gamma).expect("valid loss probability");
    let sup = SuperPlan::kraus_superop(channel.operators()).expect("square Kraus operators");
    let kind = OpKind::classify(&sup);
    let compressed = RowCompressed::from_dense(&sup, Complex64::ONE);
    let amp = c64(0.5, 0.0);
    let mut psi = vec![Complex64::ZERO; d * d];
    for idx in [0, 1, d, d + 1] {
        psi[idx] = amp;
    }
    let state = QuditState::from_amplitudes(vec![d, d], psi).expect("normalised state");
    LossSweep { plan, sup, kind, compressed, rho: DensityMatrix::from_pure(&state) }
}

/// The common workload: the [`SQED`] chain.
pub fn sqed() -> Circuit {
    let (sites, d, steps) = SQED;
    small_sqed_circuit(sites, d, steps)
}

/// The `sqed_sampled_dynamics` row's chain: 4 sites, `d = 3`, the
/// `sqed_dynamics` application workload's size, with the default
/// [`lgt::massgap::DynamicsProtocol`] and [`noise`], probed on site 1.
pub fn sqed_chain() -> lgt::hamiltonian::LatticeHamiltonian {
    lgt::hamiltonian::sqed_chain(&lgt::hamiltonian::SqedParams {
        sites: 4,
        link_dim: 3,
        ..Default::default()
    })
    .expect("valid chain")
}

/// Gate-level depolarizing noise of the noisy rows on [`sqed`].
pub fn noise() -> NoiseModel {
    NoiseModel::depolarizing(1e-3, 1e-2)
}

/// The Lindblad row's system: two modes of dimension [`LINDBLAD`]`.0`
/// coupled by `a†b + ab†`, each losing photons at rate 0.2.
pub fn lindblad() -> LindbladSystem {
    let d = LINDBLAD.0;
    let mut sys = LindbladSystem::new(vec![d, d]).expect("valid dims");
    let a = annihilation(d);
    let hop = a.dagger().kron(&a);
    sys.add_hamiltonian_term(&(&hop + &hop.dagger()), &[0, 1], 1.0).expect("valid term");
    sys.add_collapse(&a, &[0], 0.2).expect("valid collapse");
    sys.add_collapse(&a, &[1], 0.2).expect("valid collapse");
    sys
}

/// [`lindblad`]'s full-space Hamiltonian and collapse operators, the input
/// of `baseline::lindblad_evolve_cloning`.
pub fn lindblad_operators() -> (CMatrix, Vec<(CMatrix, f64)>) {
    let sys = lindblad();
    let a = annihilation(LINDBLAD.0);
    let embed = |q: usize| embed_operator(sys.radix(), &a, &[q]).expect("valid target");
    (sys.hamiltonian().clone(), vec![(embed(0), 0.2), (embed(1), 0.2)])
}

/// The Lindblad row's initial state: two photons in the first mode.
pub fn lindblad_initial() -> DensityMatrix {
    let d = LINDBLAD.0;
    DensityMatrix::from_pure(&QuditState::basis(vec![d, d], &[2, 0]).expect("valid basis state"))
}

/// Mode dimension and input samples of the driven-reservoir row: the
/// `qrc_forecast` analog reservoir (two modes, 12 RK4 steps per input over
/// four read-out segments) driven by the first inputs of a NARMA-5 series.
pub const DRIVEN_RESERVOIR: (usize, usize) = (5, 20);

/// The driven-reservoir row's instance, [`DRIVEN_RESERVOIR`].
pub struct DrivenReservoir {
    /// The reservoir's open system.
    pub system: LindbladSystem,
    /// Its full-space collapse operators with their rates.
    pub collapse: Vec<(CMatrix, f64)>,
    /// One full-space drive per read-out segment, as `QuantumReservoir::run`
    /// applies them.
    pub drives: Vec<CMatrix>,
    /// Duration and RK4 step of one segment.
    pub segment: (f64, f64),
    /// Starting state: the vacuum.
    pub rho: DensityMatrix,
}

/// Builds [`DrivenReservoir`].
pub fn driven_reservoir() -> DrivenReservoir {
    let (d, samples) = DRIVEN_RESERVOIR;
    let p = ReservoirParams { levels: d, substeps: 12, ..ReservoirParams::paper_reference() };
    let system = QuantumReservoir::new(p.clone()).expect("valid parameters").system().clone();
    let a = annihilation(d);
    let embed = |op: &CMatrix, q: usize| embed_operator(system.radix(), op, &[q]).expect("valid");
    let collapse = (0..p.modes).map(|q| (embed(&a, q), p.damping)).collect();
    let quadrature = &a + &a.dagger();
    let drives = narma(5, samples, 3101)
        .inputs
        .iter()
        .flat_map(|&u| {
            std::iter::repeat_n(
                embed(&quadrature.scaled_real(p.input_gain * u), 0),
                p.virtual_nodes,
            )
        })
        .collect();
    let segment_time = p.step_time / p.virtual_nodes as f64;
    let dt = segment_time / (p.substeps / p.virtual_nodes) as f64;
    DrivenReservoir {
        system,
        collapse,
        drives,
        segment: (segment_time, dt),
        rho: DensityMatrix::zero(vec![d; p.modes]).expect("valid dims"),
    }
}

/// The measurement row's state: a 4-qutrit GHZ state.
pub fn ghz() -> QuditState {
    let mut c = Circuit::uniform(4, 3);
    c.push(Gate::fourier(3), &[0]).expect("valid gate");
    for q in 0..3 {
        c.push(Gate::csum(3, 3), &[q, q + 1]).expect("valid gate");
    }
    StatevectorSimulator::new().run(&c).expect("noiseless run")
}

/// 3-coloring QAOA with [`QAOA`] layers on a 5-node 3-regular graph.
pub fn qaoa() -> QuditQaoa {
    QuditQaoa::new(
        table1_coloring_problem(5, 3),
        QaoaConfig { layers: QAOA.0, ..Default::default() },
    )
}

/// The rebind rows' angle sweep: [`QAOA`]`.1` points of one gamma and one
/// beta per layer.
pub fn qaoa_sweep() -> Vec<Vec<f64>> {
    let (layers, len, _) = QAOA;
    (0..len)
        .map(|k| {
            let x = k as f64 / len as f64;
            (0..2 * layers).map(|i| 0.15 + 0.05 * i as f64 + 0.6 * x).collect()
        })
        .collect()
}

/// Compile-heavy, run-light parameterized circuit for the serving rows: a
/// QAOA-style two-qutrit mixer ladder whose per-layer angles are free
/// parameters, so every request in a sweep shares one structural hash.
pub fn serve_param_circuit(layers: usize) -> Circuit {
    let mut c = Circuit::new(vec![3, 3]);
    let mixer =
        CMatrix::from_fn(
            3,
            3,
            |r, s| if r.abs_diff(s) == 1 { c64(1.0, 0.0) } else { c64(0.0, 0.0) },
        );
    for layer in 0..layers {
        c.push(Gate::fourier(3), &[layer % 2]).expect("valid gate");
        c.push(Gate::csum(3, 3), &[0, 1]).expect("valid gate");
        let g = Gate::parameterized(format!("mix{layer}"), vec![3], &mixer, Param::Free(layer))
            .expect("valid generator");
        c.push(g, &[layer % 2]).expect("valid gate");
    }
    c
}

/// Reservoir-style dissipative circuit on `qudits` qutrits: repeated
/// Fourier + CSUM couplings, served through the noisy density backend.
pub fn serve_reservoir_circuit(qudits: usize, depth: usize) -> Circuit {
    let mut c = Circuit::new(vec![3; qudits]);
    for i in 0..depth {
        c.push(Gate::fourier(3), &[i % qudits]).expect("valid gate");
        c.push(Gate::csum(3, 3), &[i % qudits, (i + 1) % qudits]).expect("valid gate");
    }
    c
}

/// Gate-level noise of the served jobs.
pub fn serve_noise() -> NoiseModel {
    NoiseModel::depolarizing(0.01, 0.005)
}

/// Runs the serving row's mixed workload on a fresh engine whose plan cache
/// holds `capacity` plans (0 compiles every request): [`SERVE`]`.1` QAOA
/// sweep points interleaved with as many noisy reservoir probes, on
/// [`SERVE`]`.0` workers. Returns every job's payload in submission order
/// and the engine's counters.
///
/// # Panics
/// Panics if a job does not complete.
pub fn serve_mix(capacity: usize) -> (Vec<Vec<f64>>, ServeStats) {
    let (workers, pairs, layers) = SERVE;
    let engine = ServeEngine::start(
        ServeConfig::default()
            .with_workers(workers)
            .with_plan_cache_capacity(capacity)
            .with_noise(serve_noise())
            .with_seed(17),
    );
    let (sweep, probe) = (serve_param_circuit(layers), serve_reservoir_circuit(2, 10));
    let mut handles = Vec::with_capacity(2 * pairs);
    for i in 0..pairs {
        let thetas = (0..layers).map(|l| 0.1 + 0.15 * (i + l) as f64).collect();
        let spec = JobSpec::statevector(sweep.clone()).with_params(thetas);
        handles.push(engine.submit(spec).expect("admitted"));
        handles.push(engine.submit(JobSpec::density(probe.clone())).expect("admitted"));
    }
    let payloads = handles
        .into_iter()
        .map(|h| match h.wait() {
            JobOutcome::Completed(values) => values,
            other => panic!("serve job did not complete: {other:?}"),
        })
        .collect();
    (payloads, engine.stats())
}
