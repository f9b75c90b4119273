//! Mass-gap extraction from real-time dynamics.
//!
//! The reference study extracts the mass gap of the gauge theory from
//! real-time quantum simulations: prepare a localised excitation over the
//! strong-coupling vacuum, Trotter-evolve, record a local observable, and
//! read the gap off the dominant frequency of the resulting oscillation.

use qudit_circuit::noise::NoiseModel;
use qudit_circuit::sim::{
    CompiledCircuit, CompiledDensityCircuit, DensityMatrixSimulator, StatevectorSimulator,
};
use qudit_circuit::{Circuit, Observable};
use qudit_core::density::DensityMatrix;
use qudit_core::state::QuditState;
use serde::{Deserialize, Serialize};

use crate::error::{LgtError, Result};
use crate::hamiltonian::LatticeHamiltonian;
use crate::operators;
use crate::trotter::{trotter_circuit, trotter_steps, TrotterOrder};

/// A recorded real-time signal and the frequency extracted from it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GapExtraction {
    /// Sample times.
    pub times: Vec<f64>,
    /// Observable values at each time.
    pub signal: Vec<f64>,
    /// Dominant angular frequency of the (mean-subtracted) signal — the
    /// estimator of the relevant energy gap.
    pub extracted_frequency: f64,
}

/// Parameters of the real-time gap-extraction protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DynamicsProtocol {
    /// Total evolution time.
    pub total_time: f64,
    /// Number of sample times (evenly spaced, excluding t = 0).
    pub num_samples: usize,
    /// Trotter steps per unit time.
    pub steps_per_unit_time: usize,
    /// Trotter order.
    pub order: TrotterOrder,
}

impl Default for DynamicsProtocol {
    fn default() -> Self {
        Self {
            total_time: 6.0,
            num_samples: 12,
            steps_per_unit_time: 4,
            order: TrotterOrder::Second,
        }
    }
}

/// Builds the probe initial state: the strong-coupling vacuum (all sites in
/// the central flux state) with one unit of flux added on `excited_site`.
///
/// # Errors
/// Returns an error for invalid sites or dimensions.
pub fn probe_state(dims: &[usize], excited_site: usize) -> Result<QuditState> {
    if excited_site >= dims.len() {
        return Err(LgtError::InvalidModel(format!(
            "excited site {excited_site} out of range for {} sites",
            dims.len()
        )));
    }
    let mut digits: Vec<usize> = dims.iter().map(|&d| (d - 1) / 2).collect();
    let d_exc = dims[excited_site];
    if digits[excited_site] + 1 >= d_exc {
        return Err(LgtError::InvalidModel(
            "truncation too small to host a flux excitation".into(),
        ));
    }
    digits[excited_site] += 1;
    QuditState::basis(dims.to_vec(), &digits).map_err(LgtError::Core)
}

/// The observable recorded during the dynamics: the electric energy density
/// `L̂z²` on the excited site.
pub fn probe_observable(dims: &[usize], site: usize) -> Observable {
    Observable::single(site, operators::lz_squared(dims[site]))
}

/// A simulator the sampling loop drives: compile a circuit once, run the
/// plan from a state.
pub(crate) trait Evolver {
    type State;
    type Plan;
    fn compile_plan(&self, circuit: &Circuit) -> Result<Self::Plan>;
    fn evolve(&self, plan: &Self::Plan, from: &Self::State) -> Result<Self::State>;
}

impl Evolver for DensityMatrixSimulator {
    type State = DensityMatrix;
    type Plan = CompiledDensityCircuit;
    fn compile_plan(&self, circuit: &Circuit) -> Result<Self::Plan> {
        Ok(self.compile(circuit)?)
    }
    fn evolve(&self, plan: &Self::Plan, from: &DensityMatrix) -> Result<DensityMatrix> {
        Ok(self.run_compiled(plan, Some(from))?.0)
    }
}

impl Evolver for StatevectorSimulator {
    type State = QuditState;
    type Plan = CompiledCircuit;
    fn compile_plan(&self, circuit: &Circuit) -> Result<Self::Plan> {
        Ok(self.compile(circuit)?)
    }
    fn evolve(&self, plan: &Self::Plan, from: &QuditState) -> Result<QuditState> {
        Ok(self.run_compiled(plan, Some(from))?.state)
    }
}

/// Evolves `initial` to each of the protocol's sample times and hands every
/// sample's time and state to `visit`, in order.
///
/// Sample `k` is `steps_k` Trotter steps of `dt_k = t_k / steps_k`. When
/// `dt_k` equals the previous sample's step size bitwise and `steps_k` is
/// not smaller, the loop continues from the previous sample's state with the
/// `steps_k − steps_{k−1}` extra steps, compiling one plan per extra-step
/// count. Otherwise it restarts from `initial` with the sample's own
/// circuit. Every Trotter step ends with a barrier, and density plans are
/// prefix-closed at barriers, so on the density simulator a continued
/// sample is bitwise the state a restart would give. Statevector fusion
/// still reaches across barriers, so there the two agree to rounding.
pub(crate) fn sample_states<E: Evolver>(
    sim: &E,
    h: &LatticeHamiltonian,
    protocol: &DynamicsProtocol,
    initial: &E::State,
    mut visit: impl FnMut(f64, &E::State) -> Result<()>,
) -> Result<()> {
    // (dt, steps, state) of the previous sample, and the continuation
    // plans compiled for that dt, keyed by extra-step count.
    let mut last: Option<(f64, usize, E::State)> = None;
    let mut blocks: Vec<(usize, E::Plan)> = Vec::new();
    for k in 1..=protocol.num_samples {
        let t = protocol.total_time * k as f64 / protocol.num_samples as f64;
        let steps = ((protocol.steps_per_unit_time as f64 * t).ceil() as usize).max(1);
        let dt = t / steps as f64;
        let state = match last.take() {
            Some((prev_dt, prev_steps, prev))
                if prev_dt.to_bits() == dt.to_bits() && steps >= prev_steps =>
            {
                match steps - prev_steps {
                    0 => prev,
                    extra => {
                        let at = match blocks.iter().position(|(n, _)| *n == extra) {
                            Some(at) => at,
                            None => {
                                let block = trotter_steps(h, dt, extra, protocol.order)?;
                                blocks.push((extra, sim.compile_plan(&block)?));
                                blocks.len() - 1
                            }
                        };
                        sim.evolve(&blocks[at].1, &prev)?
                    }
                }
            }
            prev => {
                if prev.is_some_and(|(prev_dt, ..)| prev_dt.to_bits() != dt.to_bits()) {
                    blocks.clear();
                }
                let circuit = trotter_circuit(h, t, steps, protocol.order)?;
                sim.evolve(&sim.compile_plan(&circuit)?, initial)?
            }
        };
        visit(t, &state)?;
        last = Some((dt, steps, state));
    }
    Ok(())
}

/// Runs the Trotterized dynamics of an encoded-or-native lattice Hamiltonian
/// under a circuit-level noise model and records the probe observable.
///
/// The observable and probe excitation live on `probe_site` expressed in
/// *hardware carrier* coordinates (for the native qudit encoding that is just
/// the lattice site).
///
/// Sample `k` is `ceil(steps_per_unit_time · t_k)` Trotter steps (at least
/// one) to `t_k = total_time · k / num_samples`. When consecutive samples
/// share a bitwise-equal step size (the default protocol: `dt = 0.25`, two
/// steps per sample), each sample continues from the previous one's ρ with
/// the extra steps, and the extra-step block compiles once. Other samples
/// restart from ρ0 with their own circuit. The signal is bitwise the same
/// as building, compiling and running every sample's circuit from ρ0,
/// because density plans are prefix-closed at the barrier that ends each
/// Trotter step.
///
/// # Errors
/// Returns an error if simulation fails.
pub fn run_dynamics(
    h: &LatticeHamiltonian,
    probe_site: usize,
    protocol: &DynamicsProtocol,
    noise: &NoiseModel,
) -> Result<GapExtraction> {
    let dims = h.dims.clone();
    let initial = probe_state(&dims, probe_site)?;
    let rho0 = DensityMatrix::from_pure(&initial);
    let observable = probe_observable(&dims, probe_site);

    let mut times = Vec::with_capacity(protocol.num_samples + 1);
    let mut signal = Vec::with_capacity(protocol.num_samples + 1);
    times.push(0.0);
    signal.push(observable.expectation_density(&rho0).map_err(LgtError::Circuit)?);

    let sim = DensityMatrixSimulator::new().with_noise(noise.clone());
    sample_states(&sim, h, protocol, &rho0, |t, rho| {
        times.push(t);
        signal.push(observable.expectation_density(rho).map_err(LgtError::Circuit)?);
        Ok(())
    })?;
    let extracted_frequency = dominant_frequency(&times, &signal);
    Ok(GapExtraction { times, signal, extracted_frequency })
}

/// Dominant angular frequency of a uniformly sampled signal, estimated from
/// the peak of its discrete Fourier transform after mean subtraction.
pub fn dominant_frequency(times: &[f64], signal: &[f64]) -> f64 {
    let n = signal.len();
    if n < 3 {
        return 0.0;
    }
    let mean = signal.iter().sum::<f64>() / n as f64;
    let centred: Vec<f64> = signal.iter().map(|s| s - mean).collect();
    let total_time = times[n - 1] - times[0];
    if total_time <= 0.0 {
        return 0.0;
    }
    let mut best_k = 0usize;
    let mut best_power = 0.0;
    // Evaluate the DFT on a refined frequency grid (zero-padding equivalent),
    // from the fundamental up to the Nyquist frequency.
    let refine = 8;
    for k in 1..(n * refine) / 2 {
        let omega = 2.0 * std::f64::consts::PI * k as f64 / (total_time * refine as f64);
        let mut re = 0.0;
        let mut im = 0.0;
        for (t, s) in times.iter().zip(centred.iter()) {
            re += s * (omega * t).cos();
            im += s * (omega * t).sin();
        }
        let power = re * re + im * im;
        if power > best_power {
            best_power = power;
            best_k = k;
        }
    }
    2.0 * std::f64::consts::PI * best_k as f64 / (total_time * refine as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamiltonian::{sqed_chain, SqedParams};

    fn small_params() -> SqedParams {
        SqedParams {
            sites: 3,
            link_dim: 3,
            coupling_g: 1.0,
            hopping: 0.5,
            mass: 0.2,
            periodic: false,
        }
    }

    /// The per-sample loop `run_dynamics` replaced: every sample's own
    /// circuit, compiled and run from ρ0.
    fn per_sample_signal(
        h: &LatticeHamiltonian,
        probe: usize,
        protocol: &DynamicsProtocol,
        noise: &NoiseModel,
    ) -> Vec<f64> {
        let rho0 = DensityMatrix::from_pure(&probe_state(&h.dims, probe).unwrap());
        let observable = probe_observable(&h.dims, probe);
        let sim = DensityMatrixSimulator::new().with_noise(noise.clone());
        let mut signal = vec![observable.expectation_density(&rho0).unwrap()];
        for k in 1..=protocol.num_samples {
            let t = protocol.total_time * k as f64 / protocol.num_samples as f64;
            let steps = ((protocol.steps_per_unit_time as f64 * t).ceil() as usize).max(1);
            let circuit = trotter_circuit(h, t, steps, protocol.order).unwrap();
            let (rho, _) = sim.run_compiled(&sim.compile(&circuit).unwrap(), Some(&rho0)).unwrap();
            signal.push(observable.expectation_density(&rho).unwrap());
        }
        signal
    }

    fn bits(signal: &[f64]) -> Vec<u64> {
        signal.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn sampled_dynamics_is_bitwise_the_per_sample_loop() {
        let h = sqed_chain(&small_params()).unwrap();
        // The default protocol continues (dt = 0.25 at every sample); 3 steps
        // per unit time sampled every 0.5 changes dt at every sample, so it
        // restarts every time.
        let restarting = DynamicsProtocol {
            total_time: 3.0,
            num_samples: 6,
            steps_per_unit_time: 3,
            order: TrotterOrder::Second,
        };
        let noises = [
            NoiseModel::depolarizing(1e-3, 1e-2),
            NoiseModel::noiseless(),
            NoiseModel::cavity(0.01, 0.02, 0.05),
        ];
        for protocol in [DynamicsProtocol::default(), restarting] {
            for noise in &noises {
                let got = run_dynamics(&h, 1, &protocol, noise).unwrap();
                let want = per_sample_signal(&h, 1, &protocol, noise);
                assert_eq!(bits(&got.signal), bits(&want), "{protocol:?}, {noise:?}");
                assert_eq!(got.extracted_frequency, dominant_frequency(&got.times, &want));
            }
        }
    }

    #[test]
    fn probe_state_adds_one_flux_unit() {
        let s = probe_state(&[3, 3, 3], 1).unwrap();
        assert!((s.amplitude(&[1, 2, 1]).unwrap().abs() - 1.0).abs() < 1e-12);
        assert!(probe_state(&[3, 3, 3], 5).is_err());
        // d = 2 still has room for the excitation above the centred vacuum.
        let s2 = probe_state(&[2, 2], 0).unwrap();
        assert!((s2.amplitude(&[1, 0]).unwrap().abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dominant_frequency_of_pure_cosine() {
        let omega = 1.7;
        let times: Vec<f64> = (0..60).map(|k| k as f64 * 0.15).collect();
        let signal: Vec<f64> = times.iter().map(|&t| 2.0 + 0.8 * (omega * t).cos()).collect();
        let est = dominant_frequency(&times, &signal);
        assert!((est - omega).abs() < 0.15, "estimated {est}");
    }

    #[test]
    fn noiseless_dynamics_oscillates_near_exact_gap_scale() {
        let h = sqed_chain(&small_params()).unwrap();
        let protocol = DynamicsProtocol {
            total_time: 5.0,
            num_samples: 10,
            steps_per_unit_time: 3,
            order: TrotterOrder::Second,
        };
        let result = run_dynamics(&h, 1, &protocol, &NoiseModel::noiseless()).unwrap();
        assert_eq!(result.signal.len(), 11);
        // The signal must actually move (the excitation disperses).
        let spread = result.signal.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - result.signal.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 0.05, "signal spread {spread}");
        // The extracted frequency lands within the span of the exact spectrum.
        let full = h.full_matrix().unwrap();
        let eig = qudit_core::linalg::eigh(&full).unwrap();
        let max_gap = eig.values.last().unwrap() - eig.values[0];
        assert!(result.extracted_frequency > 0.0);
        assert!(result.extracted_frequency < max_gap * 1.2);
    }

    #[test]
    fn noise_distorts_the_signal() {
        let h = sqed_chain(&small_params()).unwrap();
        let protocol = DynamicsProtocol {
            total_time: 3.0,
            num_samples: 6,
            steps_per_unit_time: 2,
            order: TrotterOrder::First,
        };
        let clean = run_dynamics(&h, 1, &protocol, &NoiseModel::noiseless()).unwrap();
        let noisy = run_dynamics(&h, 1, &protocol, &NoiseModel::depolarizing(0.02, 0.02)).unwrap();
        // Relative RMS deviation of the noisy signal from the clean one.
        let mean = clean.signal.iter().sum::<f64>() / clean.signal.len() as f64;
        let num: f64 = clean.signal.iter().zip(&noisy.signal).map(|(a, b)| (a - b).powi(2)).sum();
        let den: f64 = clean.signal.iter().map(|a| (a - mean).powi(2)).sum();
        let deviation = (num / den).sqrt();
        assert!(deviation > 0.01, "deviation {deviation}");
    }
}
