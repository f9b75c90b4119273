//! The coupled-oscillator quantum reservoir.
//!
//! Two (or more) dissipative bosonic modes evolve under
//! `H = Σ_i ω_i a†_i a_i + g Σ_i (a†_i a_{i+1} + h.c.)` while the input
//! signal drives the first mode's displacement — the architecture of the
//! paper's reservoir-computing reference. The measured observables
//! (populations, quadratures, photon-number correlations) form the feature
//! vector handed to a trained linear readout; with `d` levels per mode and
//! `m` modes the reservoir exposes on the order of `d^m` "neurons" worth of
//! state space.

use cavity_sim::lindblad::LindbladSystem;
use qudit_circuit::gates;
use qudit_core::apply::ApplyPlan;
use qudit_core::complex::c64;
use qudit_core::density::DensityMatrix;
use qudit_core::matrix::CMatrix;
use qudit_core::radix::Radix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

use crate::error::{QrcError, Result};

/// Parameters of the coupled-oscillator reservoir.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReservoirParams {
    /// Number of bosonic modes.
    pub modes: usize,
    /// Fock truncation (levels) per mode.
    pub levels: usize,
    /// Mode detunings `ω_i` (rad per unit time), one per mode.
    pub frequencies: Vec<f64>,
    /// Nearest-neighbour exchange coupling `g`.
    pub coupling: f64,
    /// Photon-loss rate `κ` per mode.
    pub damping: f64,
    /// Drive amplitude multiplying the input value.
    pub input_gain: f64,
    /// Physical time per input sample.
    pub step_time: f64,
    /// Integrator sub-steps per input sample.
    pub substeps: usize,
    /// Time-multiplexed read-out points ("virtual nodes") per input sample:
    /// the observables are recorded this many times within each step and
    /// concatenated into the feature vector, the standard trick the cited
    /// experiments use to enlarge the effective reservoir.
    pub virtual_nodes: usize,
}

impl ReservoirParams {
    /// The two-mode, nine-level reservoir of the paper's reference study
    /// ("81 neurons" from two oscillators).
    pub fn paper_reference() -> Self {
        Self {
            modes: 2,
            levels: 9,
            frequencies: vec![1.0, 1.3],
            coupling: 0.8,
            damping: 0.15,
            input_gain: 1.2,
            step_time: 1.0,
            substeps: 20,
            virtual_nodes: 4,
        }
    }

    /// A small, fast configuration used in tests.
    pub fn small() -> Self {
        Self {
            modes: 2,
            levels: 3,
            frequencies: vec![1.0, 1.4],
            coupling: 0.9,
            damping: 0.3,
            input_gain: 1.0,
            step_time: 1.0,
            substeps: 8,
            virtual_nodes: 3,
        }
    }

    /// Effective neuron count `levels^modes` quoted in the paper's scaling
    /// argument.
    pub fn effective_neurons(&self) -> usize {
        self.levels.pow(self.modes as u32)
    }

    /// The checks both reservoirs make on construction.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.modes < 1 {
            return Err(QrcError::InvalidConfig("reservoir needs at least one mode".into()));
        }
        if self.levels < 2 {
            return Err(QrcError::InvalidConfig("each mode needs at least 2 levels".into()));
        }
        if self.frequencies.len() != self.modes {
            return Err(QrcError::InvalidConfig(format!(
                "expected {} mode frequencies, got {}",
                self.modes,
                self.frequencies.len()
            )));
        }
        if self.substeps == 0 || self.step_time <= 0.0 || self.virtual_nodes == 0 {
            return Err(QrcError::InvalidConfig(
                "step_time, substeps and virtual_nodes must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// A measured observable: `(label, operator, mode indices)`.
pub(crate) type FeatureObservable = (String, CMatrix, Vec<usize>);

/// The feature map both reservoirs read out, in feature order: per-mode
/// `n`, `x`, `p`, `n²`, then pairwise `n_i n_j`.
pub(crate) fn feature_observables(modes: usize, levels: usize) -> Vec<FeatureObservable> {
    let a = gates::annihilation(levels);
    let n_op = gates::number_operator(levels);
    let x_op = &a + &a.dagger();
    let p_op = (&a.dagger() - &a).scaled(c64(0.0, 1.0));
    let n2_op = n_op.matmul(&n_op).expect("square");
    let mut observables = Vec::new();
    for i in 0..modes {
        observables.push((format!("n{i}"), n_op.clone(), vec![i]));
        observables.push((format!("x{i}"), x_op.clone(), vec![i]));
        observables.push((format!("p{i}"), p_op.clone(), vec![i]));
        observables.push((format!("n{i}^2"), n2_op.clone(), vec![i]));
    }
    for i in 0..modes {
        for j in (i + 1)..modes {
            observables.push((format!("n{i}n{j}"), n_op.kron(&n_op), vec![i, j]));
        }
    }
    observables
}

/// One expectation plan per feature observable, in feature order, on
/// `radix`.
pub(crate) fn observable_plans(
    observables: &[FeatureObservable],
    radix: &Radix,
) -> Result<Vec<ApplyPlan>> {
    observables
        .iter()
        .map(|(_, _, targets)| ApplyPlan::new(radix, targets).map_err(QrcError::Core))
        .collect()
}

/// The quantum reservoir: an open coupled-oscillator system plus the
/// observable set defining its feature map.
#[derive(Debug, Clone)]
pub struct QuantumReservoir {
    params: ReservoirParams,
    system: LindbladSystem,
    /// The feature map (see [`feature_observables`]).
    observables: Vec<FeatureObservable>,
}

impl QuantumReservoir {
    /// Builds the reservoir from its parameters.
    ///
    /// # Errors
    /// Returns an error for inconsistent parameters.
    pub fn new(params: ReservoirParams) -> Result<Self> {
        params.validate()?;
        let d = params.levels;
        let dims = vec![d; params.modes];
        let mut system = LindbladSystem::new(dims).map_err(QrcError::Cavity)?;
        let n_op = gates::number_operator(d);
        let a = gates::annihilation(d);
        for (i, &omega) in params.frequencies.iter().enumerate() {
            system.add_hamiltonian_term(&n_op, &[i], omega).map_err(QrcError::Cavity)?;
            if params.damping > 0.0 {
                system.add_collapse(&a, &[i], params.damping).map_err(QrcError::Cavity)?;
            }
        }
        let hop = &a.dagger().kron(&a) + &a.kron(&a.dagger());
        for i in 0..params.modes.saturating_sub(1) {
            system
                .add_hamiltonian_term(&hop, &[i, i + 1], params.coupling)
                .map_err(QrcError::Cavity)?;
        }
        let observables = feature_observables(params.modes, d);
        Ok(Self { params, system, observables })
    }

    /// The reservoir parameters.
    pub fn params(&self) -> &ReservoirParams {
        &self.params
    }

    /// The open system the reservoir integrates.
    pub fn system(&self) -> &LindbladSystem {
        &self.system
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
    /// vector (exact expectation values) after each input sample.
    ///
    /// # Errors
    /// Returns an error if the open-system integration fails.
    pub fn run(&self, inputs: &[f64]) -> Result<Vec<Vec<f64>>> {
        self.run_internal(inputs, None)
    }

    /// Like [`QuantumReservoir::run`] but with shot noise: every expectation
    /// value is replaced by the mean of `shots` simulated projective
    /// measurements (Gaussian approximation with the exact per-observable
    /// variance).
    ///
    /// # Errors
    /// Returns an error if the open-system integration fails.
    pub fn run_with_shots(&self, inputs: &[f64], shots: usize, seed: u64) -> Result<Vec<Vec<f64>>> {
        if shots == 0 {
            return Err(QrcError::InvalidConfig("shot count must be positive".into()));
        }
        self.run_internal(inputs, Some((shots, seed)))
    }

    fn run_internal(&self, inputs: &[f64], shots: Option<(usize, u64)>) -> Result<Vec<Vec<f64>>> {
        let d = self.params.levels;
        let dims = vec![d; self.params.modes];
        let mut rho = DensityMatrix::zero(dims).map_err(QrcError::Core)?;
        // One plan per observable, and with shot noise each observable's
        // square, serve every read-out of the run.
        let plans = observable_plans(&self.observables, rho.radix())?;
        let mut noise = shots.map(|(shots, seed)| {
            let squares: Vec<CMatrix> =
                self.observables.iter().map(|(_, op, _)| op.matmul(op).expect("square")).collect();
            (shots, StdRng::seed_from_u64(seed), squares)
        });
        let normal = Normal::new(0.0, 1.0).expect("valid normal");

        let a = gates::annihilation(d);
        let drive_quadrature = &a + &a.dagger();

        let segment_time = self.params.step_time / self.params.virtual_nodes as f64;
        let substeps_per_segment = (self.params.substeps / self.params.virtual_nodes).max(1);
        let dt = segment_time / substeps_per_segment as f64;
        let mut features = Vec::with_capacity(inputs.len());
        for &u in inputs {
            // Input encoding: resonant displacement drive on mode 0 with
            // amplitude proportional to the input value, held for the whole
            // input step; the observables are read out after every segment
            // (time multiplexing into virtual nodes).
            let drive_full = qudit_core::radix::embed_operator(
                self.system.radix(),
                &drive_quadrature.scaled_real(self.params.input_gain * u),
                &[0],
            )
            .map_err(QrcError::Core)?;
            let mut row = Vec::with_capacity(self.feature_dim());
            for _segment in 0..self.params.virtual_nodes {
                self.system
                    .evolve_with_drive(&mut rho, segment_time, dt, Some(&drive_full))
                    .map_err(QrcError::Cavity)?;
                for (k, ((_, op, _), plan)) in self.observables.iter().zip(&plans).enumerate() {
                    let mean = rho.expectation_prepared(plan, op)?.re;
                    let value = match noise.as_mut() {
                        Some((shots, rng, squares)) => {
                            let second = rho.expectation_prepared(plan, &squares[k])?.re;
                            let variance = (second - mean * mean).max(0.0);
                            mean + normal.sample(rng) * (variance / *shots as f64).sqrt()
                        }
                        None => mean,
                    };
                    row.push(value);
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
        assert!(QuantumReservoir::new(ReservoirParams { modes: 0, ..ReservoirParams::small() })
            .is_err());
        assert!(QuantumReservoir::new(ReservoirParams { levels: 1, ..ReservoirParams::small() })
            .is_err());
        assert!(QuantumReservoir::new(ReservoirParams {
            frequencies: vec![1.0],
            ..ReservoirParams::small()
        })
        .is_err());
        assert!(QuantumReservoir::new(ReservoirParams { substeps: 0, ..ReservoirParams::small() })
            .is_err());
        assert!(QuantumReservoir::new(ReservoirParams {
            virtual_nodes: 0,
            ..ReservoirParams::small()
        })
        .is_err());
        let r = QuantumReservoir::new(ReservoirParams::small()).unwrap();
        // (2 modes × 4 single-mode observables + 1 pair observable) × 3 virtual nodes.
        assert_eq!(r.feature_dim(), 27);
        assert_eq!(r.observable_labels().len(), 9);
        assert_eq!(ReservoirParams::paper_reference().effective_neurons(), 81);
    }

    #[test]
    fn constant_zero_input_keeps_reservoir_near_vacuum() {
        let r = QuantumReservoir::new(ReservoirParams::small()).unwrap();
        let features = r.run(&[0.0, 0.0, 0.0]).unwrap();
        assert_eq!(features.len(), 3);
        for row in &features {
            // Photon numbers remain at zero without drive.
            assert!(row[0].abs() < 1e-9, "n0 = {}", row[0]);
        }
    }

    #[test]
    fn inputs_excite_and_couple_the_modes() {
        let r = QuantumReservoir::new(ReservoirParams::small()).unwrap();
        let features = r.run(&[0.4, 0.4, 0.0, 0.0]).unwrap();
        let labels = r.observable_labels();
        let n0_idx = labels.iter().position(|l| l == "n0").unwrap();
        let n1_idx = labels.iter().position(|l| l == "n1").unwrap();
        // The driven mode is populated...
        assert!(features[1][n0_idx] > 1e-3);
        // ...and the coupling transfers excitation to the second mode.
        assert!(features[3][n1_idx] > 1e-4);
    }

    #[test]
    fn reservoir_has_fading_memory() {
        // Two different early inputs, identical later inputs: the feature
        // difference must decay with time (dissipation washes out the past).
        let r = QuantumReservoir::new(ReservoirParams::small()).unwrap();
        let mut input_a = vec![0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let input_b = vec![0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        input_a[0] = 0.5;
        let fa = r.run(&input_a).unwrap();
        let fb = r.run(&input_b).unwrap();
        let diff =
            |k: usize| -> f64 { fa[k].iter().zip(fb[k].iter()).map(|(x, y)| (x - y).abs()).sum() };
        assert!(diff(0) > 1e-3);
        assert!(diff(7) < diff(0));
    }

    #[test]
    fn shot_noise_perturbs_features_and_vanishes_for_many_shots() {
        let r = QuantumReservoir::new(ReservoirParams::small()).unwrap();
        let inputs = tasks::narma(2, 6, 3).inputs;
        let exact = r.run(&inputs).unwrap();
        let few = r.run_with_shots(&inputs, 10, 5).unwrap();
        let many = r.run_with_shots(&inputs, 1_000_000, 5).unwrap();
        let rms = |a: &[Vec<f64>], b: &[Vec<f64>]| -> f64 {
            let mut acc = 0.0;
            let mut count = 0;
            for (ra, rb) in a.iter().zip(b.iter()) {
                for (x, y) in ra.iter().zip(rb.iter()) {
                    acc += (x - y).powi(2);
                    count += 1;
                }
            }
            (acc / count as f64).sqrt()
        };
        assert!(rms(&exact, &few) > rms(&exact, &many));
        assert!(rms(&exact, &many) < 1e-2);
        assert!(r.run_with_shots(&inputs, 0, 1).is_err());
    }
}
