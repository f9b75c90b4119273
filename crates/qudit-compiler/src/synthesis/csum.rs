//! CSUM synthesis for cavity qudits.
//!
//! The CSUM gate `|a⟩|b⟩ ↦ |a⟩|(b+a) mod d⟩` is the Clifford extension of
//! CNOT to qudits and — as the paper stresses — the key missing engineering
//! component for nearest-neighbour interactions in all three application
//! domains. This module compiles it into the cavity-native primitive
//! alphabet using the exact Clifford identity
//!
//! `CSUM = (I ⊗ F†) · CZ_d · (I ⊗ F)`
//!
//! where `CZ_d = exp(i 2π/d · n̂⊗n̂)` is generated by the (transmon-mediated)
//! cross-Kerr interaction between the two modes, and the Fourier gates on the
//! target mode are synthesised into adjacent-level rotations / SNAP +
//! displacement pulses via [`crate::synthesis::givens`].

use cavity_sim::device::Device;
use cavity_sim::primitives::{Primitive, PrimitiveSchedule};
use qudit_circuit::gates;
use qudit_core::matrix::CMatrix;
use qudit_core::metrics::process_fidelity;

use crate::error::{CompilerError, Result};
use crate::synthesis::givens::{decompose_unitary, GivensDecomposition};

/// A compiled CSUM gate: the primitive schedule on two device modes plus
/// bookkeeping for resource estimates.
#[derive(Debug, Clone)]
pub struct CsumSynthesis {
    /// Qudit dimension (equal for control and target in this construction).
    pub d: usize,
    /// Device modes `(control, target)` the gate was compiled for.
    pub modes: (usize, usize),
    /// The primitive schedule, in execution order.
    pub schedule: PrimitiveSchedule,
    /// Total duration (µs).
    pub duration_us: f64,
    /// Estimated success probability from the device coherence budget.
    pub estimated_fidelity: f64,
    /// The Givens decomposition used for the Fourier gate on the target mode
    /// (kept for reporting pulse counts).
    pub fourier_decomposition: GivensDecomposition,
}

impl CsumSynthesis {
    /// Number of primitive pulses.
    pub fn pulse_count(&self) -> usize {
        self.schedule.ops.len()
    }

    /// Algebraic check: rebuilds the ideal unitary of the construction and
    /// compares with the exact CSUM.
    ///
    /// # Errors
    /// Returns an error on dimension mismatch.
    pub fn ideal_construction_fidelity(&self) -> Result<f64> {
        let d = self.d;
        let f = gates::fourier(d);
        let id = CMatrix::identity(d);
        let construction = id
            .kron(&f.dagger())
            .matmul(&gates::cphase(d, d))
            .map_err(CompilerError::Core)?
            .matmul(&id.kron(&f))
            .map_err(CompilerError::Core)?;
        process_fidelity(&construction, &gates::csum(d, d)).map_err(CompilerError::Core)
    }
}

/// Compiler for CSUM gates on a specific device.
#[derive(Debug, Clone)]
pub struct CsumCompiler<'a> {
    device: &'a Device,
}

impl<'a> CsumCompiler<'a> {
    /// Creates a compiler bound to a device.
    pub fn new(device: &'a Device) -> Self {
        Self { device }
    }

    /// Compiles a CSUM between two connected device modes of equal dimension.
    ///
    /// # Errors
    /// Returns an error if the modes are not connected, have unequal
    /// dimensions, or primitive binding fails.
    pub fn compile(&self, control: usize, target: usize) -> Result<CsumSynthesis> {
        let d_c = self.device.mode(control).map_err(CompilerError::Cavity)?.dim;
        let d_t = self.device.mode(target).map_err(CompilerError::Cavity)?.dim;
        if d_c != d_t {
            return Err(CompilerError::InvalidTarget(format!(
                "CSUM construction requires equal dimensions, got control d={d_c}, target d={d_t}"
            )));
        }
        if !self.device.are_connected(control, target).map_err(CompilerError::Cavity)? {
            return Err(CompilerError::RoutingFailed(format!(
                "modes {control} and {target} are not connected; route before compiling"
            )));
        }
        let d = d_c;
        let fourier_dec = decompose_unitary(&gates::fourier(d))?;

        let mut schedule = PrimitiveSchedule::new();
        // (I ⊗ F) on the target mode: rotations (as D-SNAP-D sandwiches) then SNAP.
        push_single_mode_decomposition(&mut schedule, self.device, target, &fourier_dec)?;
        // CZ_d via the transmon-mediated cross-Kerr / CSUM-class interaction.
        schedule.push(
            Primitive::Csum.bind(self.device, &[control, target]).map_err(CompilerError::Cavity)?,
        );
        // (I ⊗ F†): same pulse count as F.
        push_single_mode_decomposition(&mut schedule, self.device, target, &fourier_dec)?;

        let duration_us = schedule.total_duration_us();
        let estimated_fidelity = schedule.success_probability();
        Ok(CsumSynthesis {
            d,
            modes: (control, target),
            schedule,
            duration_us,
            estimated_fidelity,
            fourier_decomposition: fourier_dec,
        })
    }
}

/// Expands a Givens decomposition of a single-mode unitary into device
/// primitives: each non-trivial rotation becomes a displacement–SNAP–
/// displacement sandwich, and the final phases one SNAP.
fn push_single_mode_decomposition(
    schedule: &mut PrimitiveSchedule,
    device: &Device,
    mode: usize,
    dec: &GivensDecomposition,
) -> Result<()> {
    for rot in &dec.rotations {
        if rot.theta.abs() <= 1e-9 {
            continue;
        }
        // D(ε) — SNAP(π on the rotated levels, scaled by θ) — D(−ε) sandwich.
        let eps = rot.theta / 2.0;
        schedule.push(
            Primitive::Displacement { alpha_re: eps, alpha_im: 0.0 }
                .bind(device, &[mode])
                .map_err(CompilerError::Cavity)?,
        );
        let mut phases = vec![0.0; dec.d];
        phases[rot.level] = std::f64::consts::PI;
        schedule
            .push(Primitive::Snap { phases }.bind(device, &[mode]).map_err(CompilerError::Cavity)?);
        schedule.push(
            Primitive::Displacement { alpha_re: -eps, alpha_im: 0.0 }
                .bind(device, &[mode])
                .map_err(CompilerError::Cavity)?,
        );
    }
    schedule.push(
        Primitive::Snap { phases: dec.phases.clone() }
            .bind(device, &[mode])
            .map_err(CompilerError::Cavity)?,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clifford_identity_is_exact() {
        let dev = Device::testbed();
        let synth = CsumCompiler::new(&dev).compile(0, 1).unwrap();
        assert!(synth.ideal_construction_fidelity().unwrap() > 1.0 - 1e-9);
    }

    #[test]
    fn compiled_csum_has_reasonable_cost() {
        let dev = Device::testbed();
        let synth = CsumCompiler::new(&dev).compile(0, 1).unwrap();
        assert_eq!(synth.d, 4);
        assert!(synth.pulse_count() > 5);
        assert!(synth.duration_us > dev.durations.csum_intra_us);
        assert!(synth.estimated_fidelity > 0.5 && synth.estimated_fidelity < 1.0);
        assert_eq!(synth.schedule.two_mode_count(), 1);
    }

    #[test]
    fn inter_module_csum_is_slower_and_worse() {
        let dev = Device::testbed();
        let compiler = CsumCompiler::new(&dev);
        let intra = compiler.compile(0, 1).unwrap();
        let inter = compiler.compile(1, 2).unwrap();
        assert!(inter.duration_us > intra.duration_us);
        assert!(inter.estimated_fidelity < intra.estimated_fidelity);
    }

    #[test]
    fn unconnected_modes_are_rejected() {
        let dev = Device::forecast();
        let compiler = CsumCompiler::new(&dev);
        assert!(matches!(compiler.compile(0, 39), Err(CompilerError::RoutingFailed(_))));
    }

    #[test]
    fn fidelity_range_over_device() {
        // Every equal-dimension connected pair compiles to a fidelity in (0, 1).
        let dev = Device::testbed();
        let compiler = CsumCompiler::new(&dev);
        let (mut worst, mut best) = (1.0_f64, 0.0_f64);
        for (a, b) in dev.coupling_graph() {
            if dev.mode(a).unwrap().dim == dev.mode(b).unwrap().dim {
                let f = compiler.compile(a, b).unwrap().estimated_fidelity;
                (worst, best) = (worst.min(f), best.max(f));
            }
        }
        assert!(worst <= best);
        assert!(worst > 0.0);
        assert!(best < 1.0);
    }

    #[test]
    fn fidelity_degrades_with_dimension() {
        // Larger d ⇒ more Fourier pulses ⇒ lower estimated fidelity.
        let small = Device::single_module(2, 3, 1000.0);
        let large = Device::single_module(2, 8, 1000.0);
        let f_small = CsumCompiler::new(&small).compile(0, 1).unwrap().estimated_fidelity;
        let f_large = CsumCompiler::new(&large).compile(0, 1).unwrap().estimated_fidelity;
        assert!(f_small > f_large);
    }
}
