//! Hardware primitive operations with durations and device-calibrated noise.
//!
//! The control toolkit of a cavity qudit consists of a small set of
//! primitives — displacements, SNAP gates, beam-splitter pulses and
//! transmon-mediated entangling interactions. Higher-level gates are
//! *synthesised* from these by the compiler; this module provides the
//! primitives themselves, their durations on a given [`Device`], and the
//! corresponding noisy-circuit construction (ideal primitive followed by the
//! photon-loss / dephasing accumulated over its duration).

use qudit_circuit::noise::KrausChannel;
use qudit_circuit::{Circuit, Gate};
use qudit_core::complex::Complex64;
use serde::{Deserialize, Serialize};

use crate::device::Device;
use crate::error::{CavityError, Result};

/// The primitive operation alphabet of a cavity-qudit processor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Primitive {
    /// Selective number-dependent arbitrary phase gate on one mode.
    Snap {
        /// Per-Fock-level phases.
        phases: Vec<f64>,
    },
    /// Displacement of one mode.
    Displacement {
        /// Real part of the displacement amplitude.
        alpha_re: f64,
        /// Imaginary part of the displacement amplitude.
        alpha_im: f64,
    },
    /// Beam-splitter interaction between two modes.
    BeamSplitter {
        /// Mixing angle (π/2 = full swap of the mode states).
        theta: f64,
        /// Phase of the exchanged excitation.
        phi: f64,
    },
    /// CSUM entangling gate between two modes (compiled natively by the
    /// control system from sideband drives).
    Csum,
    /// Transmon-mediated readout of one mode (photon-number resolved).
    Readout,
}

/// A primitive bound to specific device modes, with its duration resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundPrimitive {
    /// The primitive operation.
    pub primitive: Primitive,
    /// Global mode indices it acts on.
    pub modes: Vec<usize>,
    /// Duration on the bound device (µs).
    pub duration_us: f64,
    /// Estimated error probability on the bound device.
    pub error: f64,
}

impl Primitive {
    /// Number of modes the primitive acts on.
    pub fn arity(&self) -> usize {
        match self {
            Primitive::Snap { .. } | Primitive::Displacement { .. } | Primitive::Readout => 1,
            Primitive::BeamSplitter { .. } | Primitive::Csum => 2,
        }
    }

    /// Duration of this primitive on the given device and modes (µs).
    ///
    /// # Errors
    /// Returns an error if the mode list does not match the arity or modes
    /// are not connected.
    pub fn duration_on(&self, device: &Device, modes: &[usize]) -> Result<f64> {
        if modes.len() != self.arity() {
            return Err(CavityError::InvalidParameter(format!(
                "primitive {:?} needs {} modes, got {}",
                self,
                self.arity(),
                modes.len()
            )));
        }
        Ok(match self {
            Primitive::Snap { .. } => device.durations.snap_us,
            Primitive::Displacement { .. } => device.durations.displacement_us,
            Primitive::Readout => device.durations.readout_us,
            Primitive::BeamSplitter { .. } => device.durations.beam_splitter_us,
            Primitive::Csum => device.csum_duration(modes[0], modes[1])?,
        })
    }

    /// The ideal gate implemented by this primitive for the given mode
    /// dimensions (readout has no unitary and returns `Ok(None)`).
    ///
    /// # Errors
    /// Returns an error if `dims` does not provide one dimension per mode
    /// the primitive acts on.
    pub fn ideal_gate(&self, dims: &[usize]) -> Result<Option<Gate>> {
        if dims.len() != self.arity() {
            return Err(CavityError::InvalidParameter(format!(
                "primitive {:?} acts on {} mode(s), got {} dimension(s)",
                self,
                self.arity(),
                dims.len()
            )));
        }
        Ok(match self {
            Primitive::Snap { phases } => Some(Gate::snap(dims[0], phases)),
            Primitive::Displacement { alpha_re, alpha_im } => {
                Some(Gate::displacement(dims[0], Complex64::new(*alpha_re, *alpha_im)))
            }
            Primitive::BeamSplitter { theta, phi } => {
                Some(Gate::beam_splitter(dims[0], *theta, *phi))
            }
            Primitive::Csum => Some(Gate::csum(dims[0], dims[1])),
            Primitive::Readout => None,
        })
    }

    /// Binds the primitive to device modes, resolving duration and error.
    ///
    /// # Errors
    /// Returns an error for invalid modes.
    pub fn bind(&self, device: &Device, modes: &[usize]) -> Result<BoundPrimitive> {
        let duration = self.duration_on(device, modes)?;
        let error = match modes.len() {
            1 => device.single_mode_error(modes[0], duration)?,
            _ => device.two_mode_error(modes[0], modes[1], duration)?,
        };
        Ok(BoundPrimitive {
            primitive: self.clone(),
            modes: modes.to_vec(),
            duration_us: duration,
            error,
        })
    }
}

/// A schedule of bound primitives with aggregate cost metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PrimitiveSchedule {
    /// The primitives in execution order.
    pub ops: Vec<BoundPrimitive>,
}

impl PrimitiveSchedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Self { ops: Vec::new() }
    }

    /// Appends a bound primitive.
    pub fn push(&mut self, op: BoundPrimitive) {
        self.ops.push(op);
    }

    /// Total (serial) duration in µs.
    pub fn total_duration_us(&self) -> f64 {
        self.ops.iter().map(|o| o.duration_us).sum()
    }

    /// Estimated success probability: product of per-primitive success.
    pub fn success_probability(&self) -> f64 {
        self.ops.iter().map(|o| 1.0 - o.error).product()
    }

    /// Number of two-mode primitives (the expensive ones).
    pub fn two_mode_count(&self) -> usize {
        self.ops.iter().filter(|o| o.modes.len() >= 2).count()
    }

    /// Expands the schedule into a noisy circuit on `register_dims`, using
    /// `mode_to_register` to translate device modes to circuit qudits. Each
    /// primitive becomes its ideal gate followed by photon-loss channels whose
    /// strength reflects the primitive's duration and its modes' T1.
    ///
    /// # Errors
    /// Returns an error if a primitive has no unitary (readout) or mapping is
    /// inconsistent.
    pub fn to_noisy_circuit(
        &self,
        device: &Device,
        register_dims: &[usize],
        mode_to_register: &dyn Fn(usize) -> usize,
    ) -> Result<Circuit> {
        let mut circuit = Circuit::new(register_dims.to_vec());
        for op in &self.ops {
            let targets: Vec<usize> = op.modes.iter().map(|&m| mode_to_register(m)).collect();
            if let Some(&bad) = targets.iter().find(|&&t| t >= register_dims.len()) {
                return Err(CavityError::InvalidIndex(format!(
                    "mode_to_register mapped a mode to qudit {bad}, but the register has \
                     only {} qudits",
                    register_dims.len()
                )));
            }
            let dims: Vec<usize> = targets.iter().map(|&t| register_dims[t]).collect();
            let gate = op.primitive.ideal_gate(&dims)?.ok_or_else(|| {
                CavityError::InvalidParameter(
                    "cannot expand a readout primitive into a unitary circuit".into(),
                )
            })?;
            circuit.push(gate, &targets).map_err(CavityError::Circuit)?;
            for (&mode, &target) in op.modes.iter().zip(targets.iter()) {
                let params = device.mode(mode)?;
                let gamma = params.loss_probability(op.duration_us);
                if gamma > 0.0 {
                    let loss = KrausChannel::photon_loss(register_dims[target], gamma)
                        .map_err(CavityError::Circuit)?;
                    circuit.push_channel(loss, &[target]).map_err(CavityError::Circuit)?;
                }
            }
        }
        Ok(circuit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_circuit::sim::DensityMatrixSimulator;
    use qudit_circuit::Observable;

    #[test]
    fn primitive_arities_and_durations() {
        let dev = Device::testbed();
        let snap = Primitive::Snap { phases: vec![0.0, 0.3, 0.7, 0.1] };
        assert_eq!(snap.arity(), 1);
        assert!((snap.duration_on(&dev, &[0]).unwrap() - 1.0).abs() < 1e-12);
        assert!(snap.duration_on(&dev, &[0, 1]).is_err());

        let bs = Primitive::BeamSplitter { theta: 0.4, phi: 0.0 };
        assert_eq!(bs.arity(), 2);
        assert!((bs.duration_on(&dev, &[0, 1]).unwrap() - 2.0).abs() < 1e-12);

        let csum = Primitive::Csum;
        assert!(
            csum.duration_on(&dev, &[0, 1]).unwrap() < csum.duration_on(&dev, &[1, 2]).unwrap()
        );
    }

    #[test]
    fn bound_primitive_error_reflects_mode_quality() {
        let dev = Device::testbed();
        let snap = Primitive::Snap { phases: vec![0.1; 4] };
        let good = snap.bind(&dev, &[0]).unwrap();
        let bad = snap.bind(&dev, &[3]).unwrap();
        assert!(bad.error > good.error);
        assert!(good.error > 0.0);
    }

    #[test]
    fn schedule_aggregates_cost() {
        let dev = Device::testbed();
        let mut sched = PrimitiveSchedule::new();
        sched.push(
            Primitive::Displacement { alpha_re: 0.5, alpha_im: 0.0 }.bind(&dev, &[0]).unwrap(),
        );
        sched.push(Primitive::Snap { phases: vec![0.0, 0.5, 1.0, 1.5] }.bind(&dev, &[0]).unwrap());
        sched.push(Primitive::Csum.bind(&dev, &[0, 1]).unwrap());
        assert_eq!(sched.ops.len(), 3);
        assert_eq!(sched.two_mode_count(), 1);
        assert!((sched.total_duration_us() - (0.05 + 1.0 + 4.0)).abs() < 1e-9);
        let total_error = 1.0 - sched.success_probability();
        assert!(total_error > 0.0 && total_error < 1.0);
    }

    #[test]
    fn ideal_gates_exist_for_unitary_primitives() {
        assert!(Primitive::Snap { phases: vec![0.0; 4] }.ideal_gate(&[4]).unwrap().is_some());
        assert!(Primitive::Csum.ideal_gate(&[3, 3]).unwrap().is_some());
        assert!(Primitive::Readout.ideal_gate(&[4]).unwrap().is_none());
    }

    #[test]
    fn noisy_circuit_expansion_applies_loss() {
        let dev = Device::testbed();
        let mut sched = PrimitiveSchedule::new();
        // Displace mode 0 then wait through a slow CSUM so loss is visible.
        sched.push(
            Primitive::Displacement { alpha_re: 1.0, alpha_im: 0.0 }.bind(&dev, &[0]).unwrap(),
        );
        sched.push(Primitive::Csum.bind(&dev, &[0, 1]).unwrap());
        let circuit = sched.to_noisy_circuit(&dev, &[4, 4], &|m| m).unwrap();
        assert!(circuit.gate_count() >= 2);
        let rho = DensityMatrixSimulator::new().run(&circuit).unwrap();
        let n = Observable::number(0, 4).expectation_density(&rho).unwrap();
        // Some photons must have been created, and some lost relative to |α|²=1
        // under an ideal displacement.
        assert!(n > 0.5 && n < 1.0, "n = {n}");
    }

    #[test]
    fn readout_primitive_cannot_become_circuit() {
        let dev = Device::testbed();
        let mut sched = PrimitiveSchedule::new();
        sched.push(Primitive::Readout.bind(&dev, &[0]).unwrap());
        assert!(sched.to_noisy_circuit(&dev, &[4, 4], &|m| m).is_err());
    }
}
