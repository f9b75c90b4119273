//! Multi-cavity qudit device models with coherence budgets.
//!
//! A device is a linear chain of cavity *modules* (3D multi-cell SRF cavities
//! in the paper's forecast architecture). Each module hosts several long-lived
//! electromagnetic *modes* — the bosonic qudits — all dispersively coupled to
//! one transmon ancilla. Modes within a module interact through the shared
//! transmon; modes in adjacent modules interact through an inter-module
//! coupler. Every mode carries its own truncation and coherence times, which
//! is what makes noise-aware mapping meaningful.

use serde::{Deserialize, Serialize};

use crate::dispersive::DispersiveParams;
use crate::error::{CavityError, Result};
use crate::transmon::TransmonParams;

/// Physical parameters of one cavity mode used as a bosonic qudit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModeParams {
    /// Fock-space truncation (the qudit dimension `d`).
    pub dim: usize,
    /// Single-photon lifetime T1 (µs).
    pub t1_us: f64,
    /// Coherence time T2 (µs).
    pub t2_us: f64,
    /// Mode frequency (GHz), used for addressing and reporting.
    pub frequency_ghz: f64,
}

impl ModeParams {
    /// Photon-loss probability for a single photon over `duration_us`.
    pub fn loss_probability(&self, duration_us: f64) -> f64 {
        1.0 - (-duration_us / self.t1_us).exp()
    }

    /// Pure-dephasing rate `1/Tφ = 1/T2 − 1/(2T1)` in µs⁻¹ (clamped at 0).
    pub fn pure_dephasing_rate(&self) -> f64 {
        (1.0 / self.t2_us - 0.5 / self.t1_us).max(0.0)
    }
}

/// One cavity module: several modes sharing a transmon ancilla.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CavityModule {
    /// The bosonic modes hosted by this cavity.
    pub modes: Vec<ModeParams>,
    /// The ancilla transmon mediating control.
    pub transmon: TransmonParams,
    /// Dispersive coupling parameters (shared across modes of the module).
    pub dispersive: DispersiveParams,
}

/// Durations of the hardware primitive operations (µs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GateDurations {
    /// SNAP gate (one selective phase pulse across the addressed levels).
    pub snap_us: f64,
    /// Cavity displacement pulse.
    pub displacement_us: f64,
    /// Beam-splitter (mode-swap) interaction between two modes.
    pub beam_splitter_us: f64,
    /// CSUM between two modes of the same module.
    pub csum_intra_us: f64,
    /// CSUM between modes of adjacent modules (includes routing through the
    /// coupler).
    pub csum_inter_us: f64,
    /// Transmon-mediated readout of one mode.
    pub readout_us: f64,
}

impl GateDurations {
    /// Durations representative of current cavity-QED control experiments:
    /// SNAP ≈ 1 µs (set by χ), displacement ≈ 50 ns, beam-splitter ≈ 2 µs.
    pub fn typical() -> Self {
        Self {
            snap_us: 1.0,
            displacement_us: 0.05,
            beam_splitter_us: 2.0,
            csum_intra_us: 4.0,
            csum_inter_us: 8.0,
            readout_us: 2.0,
        }
    }
}

impl Default for GateDurations {
    fn default() -> Self {
        Self::typical()
    }
}

/// A linear array of cavity modules.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Device {
    /// The cavity modules, in chain order.
    pub modules: Vec<CavityModule>,
    /// Primitive-gate durations.
    pub durations: GateDurations,
    /// Human-readable device name for reports.
    pub name: String,
}

impl Device {
    /// The paper's five-year forecast device: 10 linearly connected cavities,
    /// 4 modes each, d ≈ 10 photons per mode, millisecond-scale T1.
    ///
    /// Coherence times vary deterministically mode-to-mode (±30%) so that
    /// noise-aware mapping has structure to exploit, mirroring the
    /// fabrication spread seen in real multi-cell cavities.
    pub fn forecast() -> Self {
        let mut modules = Vec::with_capacity(10);
        for m in 0..10 {
            let mut modes = Vec::with_capacity(4);
            for k in 0..4 {
                // Deterministic spread: T1 between 700 µs and 1300 µs.
                let spread = ((m * 4 + k) as f64 * 0.618_033_99).fract();
                let t1 = 700.0 + 600.0 * spread;
                modes.push(ModeParams {
                    dim: 10,
                    t1_us: t1,
                    t2_us: 1.4 * t1,
                    frequency_ghz: 6.0 + 0.1 * k as f64 + 0.001 * m as f64,
                });
            }
            modules.push(CavityModule {
                modes,
                transmon: TransmonParams::forecast(),
                dispersive: DispersiveParams::typical(),
            });
        }
        Self { modules, durations: GateDurations::typical(), name: "forecast-10x4-d10".into() }
    }

    /// A small present-day testbed: 2 cavities × 2 modes, d = 4,
    /// T1 ≈ 500–900 µs.
    pub fn testbed() -> Self {
        let mk =
            |t1: f64, f: f64| ModeParams { dim: 4, t1_us: t1, t2_us: 1.3 * t1, frequency_ghz: f };
        Self {
            modules: vec![
                CavityModule {
                    modes: vec![mk(900.0, 6.0), mk(620.0, 6.1)],
                    transmon: TransmonParams::typical(),
                    dispersive: DispersiveParams::typical(),
                },
                CavityModule {
                    modes: vec![mk(760.0, 6.2), mk(510.0, 6.3)],
                    transmon: TransmonParams::typical(),
                    dispersive: DispersiveParams::typical(),
                },
            ],
            durations: GateDurations::typical(),
            name: "testbed-2x2-d4".into(),
        }
    }

    /// A single-module device with `n_modes` modes of dimension `d` and
    /// uniform coherence `t1_us`.
    pub fn single_module(n_modes: usize, d: usize, t1_us: f64) -> Self {
        let modes = (0..n_modes)
            .map(|k| ModeParams {
                dim: d,
                t1_us,
                t2_us: 1.5 * t1_us,
                frequency_ghz: 6.0 + 0.1 * k as f64,
            })
            .collect();
        Self {
            modules: vec![CavityModule {
                modes,
                transmon: TransmonParams::typical(),
                dispersive: DispersiveParams::typical(),
            }],
            durations: GateDurations::typical(),
            name: format!("single-module-{n_modes}x{d}"),
        }
    }

    /// Total number of bosonic modes (logical qudit slots).
    pub fn num_modes(&self) -> usize {
        self.modules.iter().map(|m| m.modes.len()).sum()
    }

    /// Number of cavity modules.
    pub fn num_modules(&self) -> usize {
        self.modules.len()
    }

    /// Total Hilbert-space dimension of the machine (`Π d_i`), as a log10 so
    /// it does not overflow for the forecast device.
    pub fn log10_hilbert_dim(&self) -> f64 {
        self.modules.iter().flat_map(|m| m.modes.iter()).map(|mode| (mode.dim as f64).log10()).sum()
    }

    /// Equivalent number of qubits: `log2(Π d_i)`.
    pub fn equivalent_qubits(&self) -> f64 {
        self.log10_hilbert_dim() / std::f64::consts::LOG10_2
    }

    /// Converts a `(module, mode-within-module)` pair to a global mode index.
    ///
    /// # Errors
    /// Returns an error if either index is out of range.
    pub fn global_index(&self, module: usize, mode: usize) -> Result<usize> {
        if module >= self.modules.len() || mode >= self.modules[module].modes.len() {
            return Err(CavityError::InvalidIndex(format!(
                "module {module} / mode {mode} out of range"
            )));
        }
        Ok(self.modules[..module].iter().map(|m| m.modes.len()).sum::<usize>() + mode)
    }

    /// Converts a global mode index to `(module, mode-within-module)`.
    ///
    /// # Errors
    /// Returns an error if the index is out of range.
    pub fn module_of(&self, global: usize) -> Result<(usize, usize)> {
        let mut offset = 0;
        for (m, module) in self.modules.iter().enumerate() {
            if global < offset + module.modes.len() {
                return Ok((m, global - offset));
            }
            offset += module.modes.len();
        }
        Err(CavityError::InvalidIndex(format!(
            "global mode index {global} out of range for {} modes",
            self.num_modes()
        )))
    }

    /// The mode parameters of a global mode index.
    ///
    /// # Errors
    /// Returns an error if the index is out of range.
    pub fn mode(&self, global: usize) -> Result<&ModeParams> {
        let (m, k) = self.module_of(global)?;
        Ok(&self.modules[m].modes[k])
    }

    /// Returns `true` if two modes can interact directly: they share a module
    /// (common transmon) or live in adjacent modules of the chain.
    ///
    /// # Errors
    /// Returns an error if either index is out of range.
    pub fn are_connected(&self, a: usize, b: usize) -> Result<bool> {
        if a == b {
            return Ok(false);
        }
        let (ma, _) = self.module_of(a)?;
        let (mb, _) = self.module_of(b)?;
        Ok(ma == mb || ma.abs_diff(mb) == 1)
    }

    /// All connected mode pairs `(a, b)` with `a < b`.
    pub fn coupling_graph(&self) -> Vec<(usize, usize)> {
        let n = self.num_modes();
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                if self.are_connected(a, b).expect("indices in range") {
                    edges.push((a, b));
                }
            }
        }
        edges
    }

    /// Duration of a CSUM between two modes (intra- vs inter-module).
    ///
    /// # Errors
    /// Returns an error if the modes are not connected.
    pub fn csum_duration(&self, a: usize, b: usize) -> Result<f64> {
        if !self.are_connected(a, b)? {
            return Err(CavityError::InvalidIndex(format!(
                "modes {a} and {b} are not connected on device {}",
                self.name
            )));
        }
        let (ma, _) = self.module_of(a)?;
        let (mb, _) = self.module_of(b)?;
        Ok(if ma == mb { self.durations.csum_intra_us } else { self.durations.csum_inter_us })
    }

    /// Estimated error probability of an operation of `duration_us` on mode
    /// `global`, combining photon loss, mode dephasing and the transmon being
    /// active for the whole duration.
    ///
    /// # Errors
    /// Returns an error if the index is out of range.
    pub fn single_mode_error(&self, global: usize, duration_us: f64) -> Result<f64> {
        let (m, k) = self.module_of(global)?;
        let mode = &self.modules[m].modes[k];
        let transmon = &self.modules[m].transmon;
        let loss = mode.loss_probability(duration_us);
        let dephase = 1.0 - (-mode.pure_dephasing_rate() * duration_us).exp();
        let transmon_err = transmon.error_during(duration_us);
        Ok(combine_errors(&[loss, dephase, transmon_err]))
    }

    /// Estimated error probability of a two-mode operation of `duration_us`.
    ///
    /// # Errors
    /// Returns an error if either index is out of range.
    pub fn two_mode_error(&self, a: usize, b: usize, duration_us: f64) -> Result<f64> {
        let ea = self.single_mode_error(a, duration_us)?;
        let eb = self.single_mode_error(b, duration_us)?;
        Ok(combine_errors(&[ea, eb]))
    }
}

/// Combines independent error probabilities: `1 − Π(1 − p_i)`.
pub fn combine_errors(probs: &[f64]) -> f64 {
    1.0 - probs.iter().fold(1.0, |acc, &p| acc * (1.0 - p.clamp(0.0, 1.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forecast_device_matches_paper_parameters() {
        let dev = Device::forecast();
        assert_eq!(dev.num_modules(), 10);
        assert_eq!(dev.num_modes(), 40);
        assert!((0..40).all(|m| dev.mode(m).unwrap().dim == 10));
        // The paper claims the Hilbert space exceeds 100 qubits.
        assert!(dev.equivalent_qubits() > 100.0);
        // Millisecond-scale T1.
        for m in 0..dev.num_modes() {
            let t1 = dev.mode(m).unwrap().t1_us;
            assert!((500.0..2000.0).contains(&t1));
        }
    }

    #[test]
    fn index_conversions_roundtrip() {
        let dev = Device::forecast();
        for g in 0..dev.num_modes() {
            let (m, k) = dev.module_of(g).unwrap();
            assert_eq!(dev.global_index(m, k).unwrap(), g);
        }
        assert!(dev.module_of(40).is_err());
        assert!(dev.global_index(10, 0).is_err());
        assert!(dev.global_index(0, 4).is_err());
    }

    #[test]
    fn connectivity_is_intra_module_plus_adjacent_chain() {
        let dev = Device::testbed();
        // Modes 0,1 share module 0; modes 2,3 share module 1.
        assert!(dev.are_connected(0, 1).unwrap());
        assert!(dev.are_connected(2, 3).unwrap());
        // Adjacent modules connect.
        assert!(dev.are_connected(1, 2).unwrap());
        assert!(dev.are_connected(0, 3).unwrap());
        assert!(!dev.are_connected(0, 0).unwrap());
        // Forecast device: far-apart modules do not connect.
        let big = Device::forecast();
        assert!(!big.are_connected(0, 39).unwrap());
        assert!(big.are_connected(3, 4).unwrap()); // modules 0 and 1
    }

    #[test]
    fn coupling_graph_counts() {
        let dev = Device::testbed();
        let edges = dev.coupling_graph();
        // 4 modes, all pairs connected except none (2 intra + 4 inter): C(4,2)=6.
        assert_eq!(edges.len(), 6);
    }

    #[test]
    fn csum_duration_depends_on_locality() {
        let dev = Device::testbed();
        let intra = dev.csum_duration(0, 1).unwrap();
        let inter = dev.csum_duration(1, 2).unwrap();
        assert!(inter > intra);
        let far = Device::forecast().csum_duration(0, 39);
        assert!(far.is_err());
    }

    #[test]
    fn error_estimates_grow_with_duration_and_combine() {
        let dev = Device::testbed();
        let short = dev.single_mode_error(0, 0.1).unwrap();
        let long = dev.single_mode_error(0, 10.0).unwrap();
        assert!(short < long);
        let two = dev.two_mode_error(0, 1, 1.0).unwrap();
        assert!(two > dev.single_mode_error(0, 1.0).unwrap());
        assert!(two <= 1.0);
        assert!((combine_errors(&[0.5, 0.5]) - 0.75).abs() < 1e-12);
        assert!(combine_errors(&[]) == 0.0);
    }

    #[test]
    fn worse_modes_have_higher_error() {
        let dev = Device::testbed();
        // Mode 0 has T1 = 900 µs, mode 3 has 510 µs.
        let good = dev.single_mode_error(0, 5.0).unwrap();
        let bad = dev.single_mode_error(3, 5.0).unwrap();
        assert!(bad > good);
    }

    #[test]
    fn single_module_constructor() {
        let dev = Device::single_module(3, 5, 1000.0);
        assert_eq!(dev.num_modes(), 3);
        assert!((0..3).all(|m| dev.mode(m).unwrap().dim == 5));
        assert!(dev.are_connected(0, 2).unwrap());
    }
}
