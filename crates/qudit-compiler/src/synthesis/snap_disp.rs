//! Numerical synthesis of single-mode unitaries into alternating
//! displacement / SNAP blocks (the protocol of Refs. \[7\], \[20\], \[24\]
//! in the paper).
//!
//! The ansatz is
//! `U(θ) = D(α_L) · SNAP(φ_L) · D(α_{L-1}) ⋯ SNAP(φ_1) · D(α_0)`,
//! whose parameters are optimised to maximise the average gate fidelity with
//! the target. The optimiser is an adaptive, seeded random-search /
//! coordinate-refinement loop: dependency-free, deterministic, and sufficient
//! for the moderate dimensions (d ≤ 8) and block counts (L ≤ 8) the paper's
//! applications need. The exact constructive alternative is
//! [`crate::synthesis::givens`]; this module exists to reproduce the
//! *numerical-synthesis* experiments and to study fidelity vs. layer count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qudit_circuit::gates;
use qudit_core::complex::c64;
use qudit_core::matrix::CMatrix;
use qudit_core::metrics::average_gate_fidelity;

use crate::error::{CompilerError, Result};

/// Parameters of the SNAP–displacement ansatz.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapDispParams {
    /// Displacement amplitudes `α_0 … α_L` (L+1 of them).
    pub alphas: Vec<(f64, f64)>,
    /// SNAP phase vectors `φ_1 … φ_L`, each of length `d`.
    pub snap_phases: Vec<Vec<f64>>,
}

impl SnapDispParams {
    fn num_parameters(&self) -> usize {
        2 * self.alphas.len() + self.snap_phases.iter().map(Vec::len).sum::<usize>()
    }
}

/// Result of a SNAP–displacement synthesis run.
#[derive(Debug, Clone)]
pub struct SnapDispSynthesis {
    /// Optimised parameters.
    pub params: SnapDispParams,
    /// Average gate fidelity with the target (on the truncated space).
    pub fidelity: f64,
    /// Number of optimiser iterations performed.
    pub iterations: usize,
    /// Qudit dimension of the target.
    pub d: usize,
    /// Fock-space padding used during synthesis to suppress truncation error.
    pub sim_dim: usize,
}

impl SnapDispSynthesis {
    /// Number of SNAP layers.
    pub fn snap_count(&self) -> usize {
        self.params.snap_phases.len()
    }

    /// Number of displacement pulses.
    pub fn displacement_count(&self) -> usize {
        self.params.alphas.len()
    }

    /// Rebuilds the synthesised unitary restricted to the `d × d` target
    /// subspace.
    pub fn reconstruct(&self) -> CMatrix {
        build_ansatz(self.sim_dim, &self.params).truncated(self.d)
    }
}

trait Truncate {
    fn truncated(&self, d: usize) -> CMatrix;
}

impl Truncate for CMatrix {
    fn truncated(&self, d: usize) -> CMatrix {
        CMatrix::from_fn(d, d, |i, j| self.get(i, j))
    }
}

/// Configuration of the synthesiser.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapDispSynthesizer {
    /// Number of SNAP layers `L` in the ansatz (there are `L+1` displacements).
    pub layers: usize,
    /// Maximum optimiser iterations.
    pub max_iterations: usize,
    /// Target average gate fidelity at which optimisation stops early.
    pub target_fidelity: f64,
    /// Random seed.
    pub seed: u64,
    /// Extra Fock levels simulated above `d` to absorb leakage during
    /// intermediate displacements.
    pub padding: usize,
}

impl Default for SnapDispSynthesizer {
    fn default() -> Self {
        Self { layers: 4, max_iterations: 4000, target_fidelity: 0.999, seed: 7, padding: 4 }
    }
}

impl SnapDispSynthesizer {
    /// Creates a synthesiser with `layers` SNAP layers and default budget.
    pub fn new(layers: usize) -> Self {
        Self { layers, ..Self::default() }
    }

    /// Synthesises the target `d × d` unitary.
    ///
    /// The returned fidelity is whatever the budget reached — callers decide
    /// whether it is good enough.
    ///
    /// # Errors
    /// Returns an error if the target is not unitary.
    pub fn synthesize(&self, target: &CMatrix) -> Result<SnapDispSynthesis> {
        if !target.is_square() || !target.is_unitary(1e-8) {
            return Err(CompilerError::InvalidTarget(
                "SNAP-displacement synthesis target must be a unitary matrix".into(),
            ));
        }
        let d = target.rows();
        let sim_dim = d + self.padding;
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Initial parameters: small random displacements, zero SNAP phases.
        let mut params = SnapDispParams {
            alphas: (0..=self.layers)
                .map(|_| (0.3 * (rng.gen::<f64>() - 0.5), 0.3 * (rng.gen::<f64>() - 0.5)))
                .collect(),
            snap_phases: (0..self.layers)
                .map(|_| (0..sim_dim).map(|_| 0.1 * (rng.gen::<f64>() - 0.5)).collect())
                .collect(),
        };
        let mut best_fid = fidelity_of(sim_dim, d, &params, target)?;
        let mut step = 0.5;
        let mut iterations = 0;
        let n_params = params.num_parameters();

        while iterations < self.max_iterations && best_fid < self.target_fidelity {
            iterations += 1;
            // Perturb a random subset of parameters.
            let mut trial = params.clone();
            let n_perturb = 1 + rng.gen_range(0..3.min(n_params));
            for _ in 0..n_perturb {
                perturb(&mut trial, &mut rng, step);
            }
            let fid = fidelity_of(sim_dim, d, &trial, target)?;
            if fid > best_fid {
                best_fid = fid;
                params = trial;
                step = (step * 1.05).min(1.0);
            } else {
                step = (step * 0.995).max(1e-3);
            }
        }
        Ok(SnapDispSynthesis { params, fidelity: best_fid, iterations, d, sim_dim })
    }
}

fn perturb(params: &mut SnapDispParams, rng: &mut StdRng, step: f64) {
    let n_alpha = params.alphas.len();
    let n_snap = params.snap_phases.len();
    let pick = rng.gen_range(0..(n_alpha + n_snap));
    if pick < n_alpha {
        let delta_re = step * (rng.gen::<f64>() - 0.5);
        let delta_im = step * (rng.gen::<f64>() - 0.5);
        params.alphas[pick].0 += delta_re;
        params.alphas[pick].1 += delta_im;
    } else {
        let layer = pick - n_alpha;
        let d = params.snap_phases[layer].len();
        let level = rng.gen_range(0..d);
        params.snap_phases[layer][level] += 2.0 * step * (rng.gen::<f64>() - 0.5);
    }
}

fn build_ansatz(sim_dim: usize, params: &SnapDispParams) -> CMatrix {
    let mut u = gates::displacement(sim_dim, c64(params.alphas[0].0, params.alphas[0].1));
    for (layer, phases) in params.snap_phases.iter().enumerate() {
        let s = gates::snap(sim_dim, phases);
        u = s.matmul(&u).expect("square");
        let (re, im) = params.alphas[layer + 1];
        let d_gate = gates::displacement(sim_dim, c64(re, im));
        u = d_gate.matmul(&u).expect("square");
    }
    u
}

fn fidelity_of(sim_dim: usize, d: usize, params: &SnapDispParams, target: &CMatrix) -> Result<f64> {
    let full = build_ansatz(sim_dim, params);
    let truncated = full.truncated(d);
    // Penalise leakage out of the computational subspace: the truncated block
    // of a leaky unitary has reduced singular values, which already lowers
    // |Tr(U†V)|, so average gate fidelity on the block is the right metric.
    average_gate_fidelity(target, &truncated).map_err(CompilerError::Core)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_synthesised_immediately() {
        let target = CMatrix::identity(3);
        let synth = SnapDispSynthesizer { layers: 1, max_iterations: 200, ..Default::default() };
        let result = synth.synthesize(&target).unwrap();
        assert!(result.fidelity > 0.99, "fidelity {}", result.fidelity);
    }

    #[test]
    fn snap_targets_are_easy() {
        // A pure SNAP target is representable exactly by the ansatz.
        let target = gates::snap(4, &[0.0, 0.4, -0.9, 1.3]);
        let synth = SnapDispSynthesizer { layers: 2, max_iterations: 3000, ..Default::default() };
        let result = synth.synthesize(&target).unwrap();
        assert!(result.fidelity > 0.98, "fidelity {}", result.fidelity);
    }

    #[test]
    fn qutrit_rotation_reaches_high_fidelity() {
        // The paper's B1 claim: single-qudit QAOA rotations synthesise to >99%.
        let target = gates::x_mixer(3, 0.6);
        let synth = SnapDispSynthesizer {
            layers: 5,
            max_iterations: 6000,
            target_fidelity: 0.99,
            ..Default::default()
        };
        let result = synth.synthesize(&target).unwrap();
        assert!(result.fidelity > 0.95, "fidelity {}", result.fidelity);
        assert_eq!(result.displacement_count(), 6);
        assert_eq!(result.snap_count(), 5);
    }

    #[test]
    fn more_layers_do_not_hurt() {
        let target = gates::fourier(3);
        let shallow =
            SnapDispSynthesizer { layers: 1, max_iterations: 1500, seed: 3, ..Default::default() }
                .synthesize(&target)
                .unwrap();
        let deep =
            SnapDispSynthesizer { layers: 6, max_iterations: 1500, seed: 3, ..Default::default() }
                .synthesize(&target)
                .unwrap();
        assert!(deep.fidelity >= shallow.fidelity - 0.05);
    }

    #[test]
    fn rejects_non_unitary_target() {
        let synth = SnapDispSynthesizer::default();
        assert!(synth.synthesize(&CMatrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn reconstruction_matches_reported_fidelity() {
        let target = gates::snap(3, &[0.3, -0.2, 0.9]);
        let synth = SnapDispSynthesizer { layers: 2, max_iterations: 2000, ..Default::default() };
        let result = synth.synthesize(&target).unwrap();
        let rebuilt = result.reconstruct();
        let f = average_gate_fidelity(&target, &rebuilt).unwrap();
        assert!((f - result.fidelity).abs() < 1e-9);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let target = gates::fourier(3);
        let synth =
            SnapDispSynthesizer { layers: 3, max_iterations: 500, seed: 99, ..Default::default() };
        let a = synth.synthesize(&target).unwrap();
        let b = synth.synthesize(&target).unwrap();
        assert_eq!(a.fidelity, b.fidelity);
        assert_eq!(a.iterations, b.iterations);
    }
}
