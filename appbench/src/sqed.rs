//! `sqed_dynamics`: real-time dynamics of a truncated scalar-QED chain on
//! all three `qudit-circuit` back-ends.
//!
//! One solve runs `lgt::massgap::run_dynamics` on a 4-site `d = 3` chain
//! under depolarizing noise (twelve fresh circuits: density superoperator
//! sweeps and per-sample compilation dominate), a low-noise trajectory
//! estimate of the same probe signal through
//! `TrajectorySimulator::expectation` (the low-branching regime), and a
//! 48-time `TrotterSweep::states_at` ensemble pass on a 6-site chain (the
//! binding-population path).

use lgt::hamiltonian::{sqed_chain, LatticeHamiltonian, SqedParams};
use lgt::massgap::{
    dominant_frequency, probe_observable, probe_state, run_dynamics, DynamicsProtocol,
    GapExtraction,
};
use lgt::trotter::{trotter_ansatz, trotter_circuit, TrotterOrder, TrotterSweep};
use qudit_circuit::noise::NoiseModel;
use qudit_circuit::sim::{
    DensityMatrixSimulator, FusionConfig, StatevectorSimulator, SuperopConfig, TrajectoryEstimate,
    TrajectorySimulator,
};
use qudit_circuit::{Circuit, Gate};
use qudit_core::density::DensityMatrix;
use qudit_core::metrics::state_fidelity;
use qudit_core::state::QuditState;

use crate::harness::SolveWorkload;
use crate::plans::PlanCounts;
use crate::report::Metric;
use crate::trace::Tracer;
use crate::{sub_seed, uniform, Res, Scale, WARM_UP_SEED};

/// Largest accepted `|trajectory mean − density value|`, in standard errors
/// (plus an absolute floor for estimates whose trajectories never branched).
/// A correct simulator exceeds 5σ about once in 1.7 million checks.
const Z_BOUND: f64 = 5.0;
const Z_FLOOR: f64 = 0.02;

/// The combined result of one solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SqedOutput {
    /// `run_dynamics` signal and extracted frequency.
    pub dynamics: GapExtraction,
    /// Trajectory estimates of the probe signal at the sampled times.
    pub estimates: Vec<TrajectoryEstimate>,
    /// Sweep states, one per sweep time.
    pub states: Vec<QuditState>,
}

/// Generated inputs of one `sqed_dynamics` run.
#[derive(Debug, Clone)]
pub struct Sqed {
    chain: LatticeHamiltonian,
    probe: usize,
    protocol: DynamicsProtocol,
    noise: NoiseModel,
    traj_times: Vec<f64>,
    traj_shots: usize,
    traj_seed: u64,
    traj_noise: NoiseModel,
    sweep_chain: LatticeHamiltonian,
    sweep_steps: usize,
    sweep_times: Vec<f64>,
    sweep_initial: QuditState,
}

impl Sqed {
    fn build(seed: u64, scale: Scale) -> Res<Self> {
        let (sites, sweep_sites, n_sweep, sweep_steps) = match scale {
            Scale::Full => (4, 6, 48, 8),
            Scale::Tiny => (3, 4, 8, 2),
        };
        let model = |sites: usize| SqedParams {
            sites,
            link_dim: 3,
            coupling_g: uniform(seed, 0, 0.8, 1.2),
            hopping: uniform(seed, 1, 0.4, 0.7),
            mass: uniform(seed, 2, 0.1, 0.4),
            periodic: false,
        };
        let chain = sqed_chain(&model(sites))?;
        let probe = (sub_seed(seed, 3) % sites as u64) as usize;
        let protocol = match scale {
            Scale::Full => DynamicsProtocol::default(),
            Scale::Tiny => DynamicsProtocol {
                total_time: 2.0,
                num_samples: 3,
                steps_per_unit_time: 2,
                order: TrotterOrder::Second,
            },
        };
        // Trajectory estimates at every fourth sample time of the protocol.
        let traj_times: Vec<f64> = (1..=protocol.num_samples)
            .filter(|k| k % 4 == 0 || scale == Scale::Tiny)
            .map(|k| protocol.total_time * k as f64 / protocol.num_samples as f64)
            .take(3)
            .collect();
        let sweep_chain = sqed_chain(&model(sweep_sites))?;
        let sweep_probe = (sub_seed(seed, 4) % sweep_sites as u64) as usize;
        let sweep_initial = probe_state(&sweep_chain.dims, sweep_probe)?;
        let sweep_end = uniform(seed, 5, 3.0, 4.0);
        let sweep_times = (1..=n_sweep).map(|k| sweep_end * k as f64 / n_sweep as f64).collect();
        Ok(Self {
            chain,
            probe,
            protocol,
            noise: NoiseModel::depolarizing(1e-3, 1e-2),
            traj_times,
            traj_shots: if scale == Scale::Full { 256 } else { 16 },
            traj_seed: sub_seed(seed, 6),
            traj_noise: NoiseModel::depolarizing(1e-4, 1e-3),
            sweep_chain,
            sweep_steps,
            sweep_times,
            sweep_initial,
        })
    }

    /// Trotter steps `run_dynamics` uses at time `t`.
    fn steps_at(&self, t: f64) -> usize {
        ((self.protocol.steps_per_unit_time as f64 * t).ceil() as usize).max(1)
    }

    /// The probe circuit at time `t`: `shift_x` gates prepare the probe
    /// excitation from `|0…0⟩`, then the Trotter circuit evolves it.
    fn probe_circuit(&self, t: f64, tr: Option<&Tracer>) -> Res<Circuit> {
        let dims = &self.chain.dims;
        let mut circuit = Circuit::new(dims.clone());
        for (site, &d) in dims.iter().enumerate() {
            let level = (d - 1) / 2 + usize::from(site == self.probe);
            for _ in 0..level {
                circuit.push(Gate::shift_x(d), &[site])?;
            }
        }
        let build = || trotter_circuit(&self.chain, t, self.steps_at(t), self.protocol.order);
        let evolution = match tr {
            Some(tr) => tr.span("lgt.build", build)?,
            None => build()?,
        };
        circuit.extend(&evolution)?;
        Ok(circuit)
    }

    fn trajectory_sim(&self) -> TrajectorySimulator {
        TrajectorySimulator::new(self.traj_shots)
            .with_seed(self.traj_seed)
            .with_noise(self.traj_noise.clone())
    }

    /// `run_dynamics` replayed through its public calls.
    fn dynamics_replay(&self, tr: &Tracer) -> Res<GapExtraction> {
        let h = &self.chain;
        let p = &self.protocol;
        let initial = probe_state(&h.dims, self.probe)?;
        let rho0 = DensityMatrix::from_pure(&initial);
        let observable = probe_observable(&h.dims, self.probe);
        let mut times = vec![0.0];
        let mut signal =
            vec![tr.span("qudit-circuit.observable", || observable.expectation_density(&rho0))?];
        let sim = DensityMatrixSimulator::new().with_noise(self.noise.clone());
        for k in 1..=p.num_samples {
            let t = p.total_time * k as f64 / p.num_samples as f64;
            let circuit =
                tr.span("lgt.build", || trotter_circuit(h, t, self.steps_at(t), p.order))?;
            let compiled = tr.span("qudit-circuit.compile", || sim.compile(&circuit))?;
            let rho =
                tr.span("qudit-circuit.density", || sim.run_compiled_from(&compiled, &rho0))?;
            times.push(t);
            signal.push(
                tr.span("qudit-circuit.observable", || observable.expectation_density(&rho))?,
            );
        }
        let extracted_frequency = dominant_frequency(&times, &signal);
        Ok(GapExtraction { times, signal, extracted_frequency })
    }
}

impl SolveWorkload for Sqed {
    type Output = SqedOutput;

    fn setup(seed: u64, scale: Scale) -> Res<Self> {
        let w = Self::build(seed, scale)?;
        // Warm the pool and the three back-ends on a tiny instance.
        let mut warm = Self::build(WARM_UP_SEED, Scale::Tiny)?;
        warm.solve()?;
        Ok(w)
    }

    fn solve(&mut self) -> Res<SqedOutput> {
        let dynamics = run_dynamics(&self.chain, self.probe, &self.protocol, &self.noise)?;
        let observable = probe_observable(&self.chain.dims, self.probe);
        let sim = self.trajectory_sim();
        let estimates = self
            .traj_times
            .iter()
            .map(|&t| Ok(sim.expectation(&self.probe_circuit(t, None)?, &observable)?))
            .collect::<Res<Vec<_>>>()?;
        let mut sweep =
            TrotterSweep::new(&self.sweep_chain, self.sweep_steps, TrotterOrder::First)?;
        let states = sweep.states_at(&self.sweep_times, &self.sweep_initial)?;
        Ok(SqedOutput { dynamics, estimates, states })
    }

    fn replay(&mut self, tr: &Tracer) -> Res<SqedOutput> {
        let dynamics = self.dynamics_replay(tr)?;
        let observable = probe_observable(&self.chain.dims, self.probe);
        let sim = self.trajectory_sim();
        let mut estimates = Vec::with_capacity(self.traj_times.len());
        for &t in &self.traj_times {
            let circuit = self.probe_circuit(t, Some(tr))?;
            tr.count("qudit-circuit.trajectory.shots", self.traj_shots as f64);
            estimates.push(
                tr.span("qudit-circuit.trajectory", || sim.expectation(&circuit, &observable))?,
            );
        }
        // `TrotterSweep::new` + `states_at`, through the calls they make.
        let ansatz = tr.span("lgt.build", || {
            trotter_ansatz(&self.sweep_chain, self.sweep_steps, TrotterOrder::First)
        })?;
        let sv = StatevectorSimulator::new();
        let plan = tr.span("qudit-circuit.compile", || sv.compile(&ansatz))?;
        let population: Vec<Vec<f64>> =
            self.sweep_times.iter().map(|&t| vec![t / self.sweep_steps as f64]).collect();
        tr.count("qudit-circuit.ensemble.columns", population.len() as f64);
        let columns = tr.span("qudit-circuit.ensemble", || {
            let batch = plan.bind_batch(&population)?;
            sv.run_ensemble_from(&plan, &batch, &self.sweep_initial)
        })?;
        let states = columns.into_iter().map(|c| Ok(c?.state)).collect::<Res<Vec<_>>>()?;
        Ok(SqedOutput { dynamics, estimates, states })
    }

    fn check(&self, out: &SqedOutput) -> Vec<String> {
        let mut failures = Vec::new();
        let mut fail = |msg: String| failures.push(msg);
        // 1. The dynamics signal against the same circuits on the reference
        //    density path (no fusion, per-term Kraus channels).
        let reference = DensityMatrixSimulator::new()
            .with_noise(self.noise.clone())
            .with_fusion(FusionConfig::disabled())
            .with_superop(SuperopConfig::disabled());
        let observable = probe_observable(&self.chain.dims, self.probe);
        let check_signal = || -> Res<f64> {
            let rho0 = DensityMatrix::from_pure(&probe_state(&self.chain.dims, self.probe)?);
            let mut worst = (observable.expectation_density(&rho0)? - out.dynamics.signal[0]).abs();
            for (k, (&t, &value)) in
                out.dynamics.times.iter().zip(&out.dynamics.signal).enumerate().skip(1)
            {
                let circuit =
                    trotter_circuit(&self.chain, t, self.steps_at(t), self.protocol.order)?;
                let rho = reference.run_from(&circuit, &rho0)?;
                let diff = (observable.expectation_density(&rho)? - value).abs();
                if !diff.is_finite() {
                    return Err(format!("non-finite signal at sample {k}").into());
                }
                worst = worst.max(diff);
            }
            Ok(worst)
        };
        match check_signal() {
            Ok(worst) if worst <= 1e-9 => {}
            Ok(worst) => {
                fail(format!("dynamics signal off the reference density path by {worst:e}"))
            }
            Err(e) => fail(format!("dynamics reference failed: {e}")),
        }
        // 2. Sweep states against per-time concrete circuits.
        let check_sweep = || -> Res<f64> {
            let sv = StatevectorSimulator::new();
            let mut worst: f64 = 1.0;
            for (&t, state) in self.sweep_times.iter().zip(&out.states) {
                let circuit =
                    trotter_circuit(&self.sweep_chain, t, self.sweep_steps, TrotterOrder::First)?;
                let direct = sv.run_from(&circuit, &self.sweep_initial)?.state;
                worst = worst.min(state_fidelity(state, &direct)?);
            }
            Ok(worst)
        };
        if out.states.len() != self.sweep_times.len() {
            fail(format!("{} sweep states for {} times", out.states.len(), self.sweep_times.len()));
        }
        match check_sweep() {
            Ok(f) if f >= 1.0 - 1e-10 => {}
            Ok(f) => fail(format!("sweep fidelity {f} below 1 - 1e-10")),
            Err(e) => fail(format!("sweep reference failed: {e}")),
        }
        // 3. Trajectory estimates within a z-bound of the density value of
        //    the same circuit under the same noise.
        let density = DensityMatrixSimulator::new().with_noise(self.traj_noise.clone());
        for (&t, est) in self.traj_times.iter().zip(&out.estimates) {
            let exact =
                self.probe_circuit(t, None).and_then(|c| Ok(density.expectation(&c, &observable)?));
            match exact {
                Ok(v) if (est.mean - v).abs() <= Z_BOUND * est.std_error + Z_FLOOR => {}
                Ok(v) => fail(format!(
                    "trajectory estimate {} ± {} at t = {t} vs density {v}",
                    est.mean, est.std_error
                )),
                Err(e) => fail(format!("trajectory reference failed: {e}")),
            }
        }
        failures
    }

    fn given_metrics(&self, _out: &SqedOutput, _tr: &Tracer, _replays: f64) -> Res<Vec<Metric>> {
        let mut counts = PlanCounts::default();
        let density = DensityMatrixSimulator::new().with_noise(self.noise.clone());
        for k in 1..=self.protocol.num_samples {
            let t = self.protocol.total_time * k as f64 / self.protocol.num_samples as f64;
            let circuit = trotter_circuit(&self.chain, t, self.steps_at(t), self.protocol.order)?;
            counts.add_density(&density.compile(&circuit)?, 1.0);
        }
        let traj = self.trajectory_sim();
        for &t in &self.traj_times {
            counts.add_statevector(
                &traj.compile(&self.probe_circuit(t, None)?)?,
                self.traj_shots as f64,
            );
        }
        let ansatz = trotter_ansatz(&self.sweep_chain, self.sweep_steps, TrotterOrder::First)?;
        let mut plan = StatevectorSimulator::new().compile(&ansatz)?;
        plan.bind(&[self.sweep_times[0] / self.sweep_steps as f64])?;
        counts.add_statevector(&plan, self.sweep_times.len() as f64);
        Ok(counts.metrics())
    }
}
