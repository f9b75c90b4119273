//! A **digital** (gate-based) realisation of the coupled-oscillator
//! reservoir, built on the parameterized circuit IR.
//!
//! Where [`crate::reservoir::QuantumReservoir`] integrates the Lindblad
//! master equation, the digital reservoir Trotterises one read-out segment
//! into a fixed circuit — drive kick, free evolution, exchange coupling,
//! photon-loss channels per slice — whose **only free parameter is the drive
//! angle** (`θ = g_in · u · dt`, [`qudit_circuit::Param::Free`]`(0)`). The
//! segment is compiled through the density-matrix simulator's fused
//! superoperator pipeline exactly once; every input sample then *rebinds*
//! the compiled plan in place (`CompiledDensityCircuit::bind`) instead of
//! rebuilding and recompiling the circuit, which is the whole per-sample
//! cost of the naive formulation.

use qudit_circuit::noise::KrausChannel;
use qudit_circuit::sim::{CompiledDensityCircuit, DensityMatrixSimulator};
use qudit_circuit::{gates, Circuit, Gate, Param};
use qudit_core::density::DensityMatrix;

use crate::error::Result;
use crate::reservoir::{feature_observables, observable_plans, FeatureObservable, ReservoirParams};

/// The gate-based reservoir: one compiled, rebindable segment circuit plus
/// the observable feature map shared with the analog reservoir.
#[derive(Debug, Clone)]
pub struct DigitalReservoir {
    params: ReservoirParams,
    sim: DensityMatrixSimulator,
    /// The compiled one-segment plan; free parameter 0 is the per-slice
    /// drive angle.
    plan: CompiledDensityCircuit,
    /// Per-slice evolution time (the drive angle per unit input is
    /// `input_gain · dt`).
    slice_dt: f64,
    /// The feature map shared with the analog reservoir.
    observables: Vec<FeatureObservable>,
    dims: Vec<usize>,
}

impl DigitalReservoir {
    /// Builds and compiles the digital reservoir from the same parameter set
    /// the analog reservoir uses.
    ///
    /// # Errors
    /// Returns an error for inconsistent parameters.
    pub fn new(params: ReservoirParams) -> Result<Self> {
        params.validate()?;
        let d = params.levels;
        let dims = vec![d; params.modes];
        let segment_time = params.step_time / params.virtual_nodes as f64;
        let slices = (params.substeps / params.virtual_nodes).max(1);
        let dt = segment_time / slices as f64;

        let a = gates::annihilation(d);
        let quadrature = &a + &a.dagger();
        let n_op = gates::number_operator(d);
        let hop = &a.dagger().kron(&a) + &a.kron(&a.dagger());
        // Per-slice photon loss with rate matched to the continuous damping.
        let loss_gamma = 1.0 - (-params.damping * dt).exp();

        // One read-out segment: `slices` Trotter slices of
        //   drive kick · free evolution · exchange coupling · loss.
        // Gates are slice-invariant, so each is built (and its generator
        // diagonalised / exponentiated) once and cloned per slice.
        let drive = Gate::parameterized("drive", vec![d], &quadrature, Param::Free(0))?;
        let free_evolution: Vec<Gate> = params
            .frequencies
            .iter()
            .enumerate()
            .map(|(i, &omega)| {
                Gate::from_generator(format!("rot{i}"), vec![d], &n_op.scaled_real(omega), dt)
            })
            .collect::<qudit_circuit::Result<_>>()?;
        let couple = (params.modes > 1)
            .then(|| Gate::from_generator("hop", vec![d, d], &hop.scaled_real(params.coupling), dt))
            .transpose()?;
        let loss =
            (loss_gamma > 0.0).then(|| KrausChannel::photon_loss(d, loss_gamma)).transpose()?;
        let mut segment = Circuit::new(dims.clone());
        for _ in 0..slices {
            segment.push(drive.clone(), &[0])?;
            for (i, gate) in free_evolution.iter().enumerate() {
                segment.push(gate.clone(), &[i])?;
            }
            if let Some(couple) = &couple {
                for i in 0..params.modes - 1 {
                    segment.push(couple.clone(), &[i, i + 1])?;
                }
            }
            if let Some(loss) = &loss {
                for i in 0..params.modes {
                    segment.push_channel(loss.clone(), &[i])?;
                }
            }
        }

        let sim = DensityMatrixSimulator::new();
        let plan = sim.compile(&segment)?;
        let observables = feature_observables(params.modes, d);
        Ok(Self { params, sim, plan, slice_dt: dt, observables, dims })
    }

    /// The reservoir parameters.
    pub fn params(&self) -> &ReservoirParams {
        &self.params
    }

    /// Dimension of the feature vector produced at every time step
    /// (observable count × virtual nodes).
    pub fn feature_dim(&self) -> usize {
        self.observables.len() * self.params.virtual_nodes
    }

    /// Labels of the measured observables, in feature order.
    pub fn observable_labels(&self) -> Vec<String> {
        self.observables.iter().map(|(l, _, _)| l.clone()).collect()
    }

    /// Drives the reservoir with the input sequence and returns the feature
    /// vector (exact expectation values) after each read-out segment of each
    /// input sample. Each sample **rebinds** the compiled segment plan to its
    /// drive angle — no per-sample circuit construction or compilation.
    ///
    /// # Errors
    /// Returns an error if simulation fails.
    pub fn run(&mut self, inputs: &[f64]) -> Result<Vec<Vec<f64>>> {
        let mut rho = DensityMatrix::zero(self.dims.clone())?;
        let plans = observable_plans(&self.observables, rho.radix())?;
        let mut features = Vec::with_capacity(inputs.len());
        for &u in inputs {
            // One bind per input sample: the drive angle for every slice of
            // every segment within this sample.
            let theta = self.params.input_gain * u * self.slice_dt;
            self.plan.bind(&[theta])?;
            let mut row = Vec::with_capacity(self.feature_dim());
            for _segment in 0..self.params.virtual_nodes {
                rho = self.sim.run_compiled(&self.plan, Some(&rho))?.0;
                for ((_, op, _), plan) in self.observables.iter().zip(&plans) {
                    row.push(rho.expectation_prepared(plan, op)?.re);
                }
            }
            features.push(row);
        }
        Ok(features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks;

    #[test]
    fn construction_validates_parameters() {
        assert!(DigitalReservoir::new(ReservoirParams { modes: 0, ..ReservoirParams::small() })
            .is_err());
        assert!(DigitalReservoir::new(ReservoirParams { levels: 1, ..ReservoirParams::small() })
            .is_err());
        let r = DigitalReservoir::new(ReservoirParams::small()).unwrap();
        assert_eq!(r.feature_dim(), 27);
        assert_eq!(r.observable_labels().len(), 9);
    }

    #[test]
    fn zero_input_keeps_reservoir_at_vacuum() {
        let mut r = DigitalReservoir::new(ReservoirParams::small()).unwrap();
        let features = r.run(&[0.0, 0.0, 0.0]).unwrap();
        for row in &features {
            assert!(row[0].abs() < 1e-9, "n0 = {}", row[0]);
        }
    }

    #[test]
    fn inputs_excite_and_couple_the_modes() {
        let mut r = DigitalReservoir::new(ReservoirParams::small()).unwrap();
        let features = r.run(&[0.4, 0.4, 0.0, 0.0]).unwrap();
        let labels = r.observable_labels();
        let n0 = labels.iter().position(|l| l == "n0").unwrap();
        let n1 = labels.iter().position(|l| l == "n1").unwrap();
        assert!(features[1][n0] > 1e-3, "driven mode must populate");
        assert!(features[3][n1] > 1e-5, "coupling must excite the second mode");
    }

    #[test]
    fn reservoir_has_fading_memory() {
        let mut r = DigitalReservoir::new(ReservoirParams::small()).unwrap();
        let input_a = vec![0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let input_b = vec![0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let fa = r.run(&input_a).unwrap();
        let fb = r.run(&input_b).unwrap();
        let diff =
            |k: usize| -> f64 { fa[k].iter().zip(fb[k].iter()).map(|(x, y)| (x - y).abs()).sum() };
        assert!(diff(0) > 1e-3);
        assert!(diff(7) < diff(0), "dissipation must wash out the past");
    }

    #[test]
    fn rebinding_matches_rebuilding_the_segment_per_sample() {
        // Reference: rebuild and recompile the bound segment circuit for
        // every input sample — the rebind path must reproduce it at 1e-12.
        let params = ReservoirParams::small();
        let inputs = tasks::narma(2, 5, 9).inputs;
        let mut fast = DigitalReservoir::new(params.clone()).unwrap();
        let fast_features = fast.run(&inputs).unwrap();

        let d = params.levels;
        let dims = vec![d; params.modes];
        let segment_time = params.step_time / params.virtual_nodes as f64;
        let slices = (params.substeps / params.virtual_nodes).max(1);
        let dt = segment_time / slices as f64;
        let a = gates::annihilation(d);
        let quadrature = &a + &a.dagger();
        let n_op = gates::number_operator(d);
        let hop = &a.dagger().kron(&a) + &a.kron(&a.dagger());
        let loss_gamma = 1.0 - (-params.damping * dt).exp();
        let sim = DensityMatrixSimulator::new();
        let observables = DigitalReservoir::new(params.clone()).unwrap().observables;
        let mut rho = DensityMatrix::zero(dims.clone()).unwrap();
        let mut slow_features = Vec::new();
        for &u in &inputs {
            let theta = params.input_gain * u * dt;
            let mut segment = Circuit::new(dims.clone());
            for _ in 0..slices {
                segment
                    .push(
                        Gate::parameterized("drive", vec![d], &quadrature, Param::Bound(theta))
                            .unwrap(),
                        &[0],
                    )
                    .unwrap();
                for (i, &omega) in params.frequencies.iter().enumerate() {
                    segment
                        .push(
                            Gate::from_generator("rot", vec![d], &n_op.scaled_real(omega), dt)
                                .unwrap(),
                            &[i],
                        )
                        .unwrap();
                }
                for i in 0..params.modes - 1 {
                    segment
                        .push(
                            Gate::from_generator(
                                "hop",
                                vec![d, d],
                                &hop.scaled_real(params.coupling),
                                dt,
                            )
                            .unwrap(),
                            &[i, i + 1],
                        )
                        .unwrap();
                }
                for i in 0..params.modes {
                    segment
                        .push_channel(KrausChannel::photon_loss(d, loss_gamma).unwrap(), &[i])
                        .unwrap();
                }
            }
            let mut row = Vec::new();
            for _ in 0..params.virtual_nodes {
                rho = sim.run_compiled(&sim.compile(&segment).unwrap(), Some(&rho)).unwrap().0;
                for (_, op, targets) in &observables {
                    row.push(rho.expectation(op, targets).unwrap().re);
                }
            }
            slow_features.push(row);
        }
        for (fast_row, slow_row) in fast_features.iter().zip(slow_features.iter()) {
            for (x, y) in fast_row.iter().zip(slow_row.iter()) {
                assert!((x - y).abs() < 1e-12, "{x} vs {y}");
            }
        }
    }
}
