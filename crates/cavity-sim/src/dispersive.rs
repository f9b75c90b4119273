//! Dispersive cavity–transmon Hamiltonians.
//!
//! In the dispersive regime the transmon–cavity interaction reduces to
//! `H = χ a†a · b†b` (a number–number coupling), plus self-Kerr corrections
//! on the cavity. These are the effective Hamiltonians from which SNAP gates
//! and photon-number-resolved measurements derive, and the source of the
//! idling error on spectator modes while a gate addresses another mode.

use qudit_circuit::gates;
use qudit_core::matrix::CMatrix;
use serde::{Deserialize, Serialize};

use crate::transmon::TransmonParams;

/// Parameters of a dispersively coupled cavity mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DispersiveParams {
    /// Dispersive shift χ/2π (MHz) between this mode and the transmon.
    pub chi_mhz: f64,
    /// Cavity self-Kerr K/2π (kHz).
    pub self_kerr_khz: f64,
    /// Detuning of the mode from its rotating frame (MHz); 0 in the frame of
    /// the drive.
    pub detuning_mhz: f64,
}

impl DispersiveParams {
    /// Representative values for an SRF-cavity mode coupled to a transmon
    /// (χ ≈ 1 MHz, K ≈ 1 kHz).
    pub fn typical() -> Self {
        Self { chi_mhz: 1.0, self_kerr_khz: 1.0, detuning_mhz: 0.0 }
    }
}

impl Default for DispersiveParams {
    fn default() -> Self {
        Self::typical()
    }
}

/// Builds the joint cavity ⊗ transmon dispersive Hamiltonian
/// `H/ħ = Δ_c a†a + χ a†a ⊗ b†b + (K/2)(a†a)²` in angular MHz units,
/// ordered `[cavity, transmon]`.
pub fn dispersive_hamiltonian(
    cavity_dim: usize,
    params: &DispersiveParams,
    transmon: &TransmonParams,
) -> CMatrix {
    let tdim = transmon.levels;
    let n_c = gates::number_operator(cavity_dim);
    let n_t = gates::number_operator(tdim);
    let id_t = CMatrix::identity(tdim);

    let two_pi = 2.0 * std::f64::consts::PI;
    // Detuning term.
    let mut h = n_c.kron(&id_t).scaled_real(two_pi * params.detuning_mhz);
    // Dispersive coupling χ n_c ⊗ n_t.
    h.axpy(qudit_core::complex::c64(two_pi * params.chi_mhz, 0.0), &n_c.kron(&n_t))
        .expect("same shape");
    // Self-Kerr (K/2) n_c(n_c - 1).
    let n2 = n_c.matmul(&n_c).expect("square");
    let mut kerr = n2;
    kerr.axpy(qudit_core::complex::c64(-1.0, 0.0), &n_c).expect("same shape");
    h.axpy(
        qudit_core::complex::c64(two_pi * params.self_kerr_khz / 1000.0 / 2.0, 0.0),
        &kerr.kron(&id_t),
    )
    .expect("same shape");
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lindblad::LindbladSystem;
    use qudit_core::density::DensityMatrix;
    use qudit_core::state::QuditState;

    #[test]
    fn dispersive_hamiltonian_is_diagonal_and_hermitian() {
        let t = TransmonParams::typical();
        let h = dispersive_hamiltonian(4, &DispersiveParams::typical(), &t);
        assert!(h.is_hermitian(1e-10));
        for i in 0..h.rows() {
            for j in 0..h.cols() {
                if i != j {
                    assert!(h[(i, j)].abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn dispersive_shift_scales_with_photon_and_transmon_number() {
        let t = TransmonParams { levels: 2, ..TransmonParams::typical() };
        let p = DispersiveParams { chi_mhz: 1.0, self_kerr_khz: 0.0, detuning_mhz: 0.0 };
        let h = dispersive_hamiltonian(3, &p, &t);
        let two_pi = 2.0 * std::f64::consts::PI;
        // Entry for |n_c = 2, n_t = 1⟩ should be 2 · 1 · 2πχ.
        let idx = 2 * 2 + 1;
        assert!((h[(idx, idx)].re - 2.0 * two_pi).abs() < 1e-9);
        // Transmon in ground state: no shift.
        let idx0 = 2 * 2;
        assert!(h[(idx0, idx0)].re.abs() < 1e-9);
    }

    #[test]
    fn cavity_transmon_system_photon_decay_rate() {
        // The dispersive Hamiltonian of a cavity (T1 = 1000 µs) coupled to a
        // relaxing, dephasing transmon, in microseconds.
        let t = TransmonParams::typical();
        let mut sys = LindbladSystem::new(vec![4, t.levels]).unwrap();
        sys.add_full_hamiltonian(&dispersive_hamiltonian(4, &DispersiveParams::typical(), &t), 1.0)
            .unwrap();
        sys.add_collapse(&gates::annihilation(4), &[0], 1.0 / 1000.0).unwrap();
        sys.add_collapse(&gates::annihilation(t.levels), &[1], t.relaxation_rate()).unwrap();
        let dephasing = gates::number_operator(t.levels);
        sys.add_collapse(&dephasing, &[1], 2.0 * t.pure_dephasing_rate()).unwrap();
        // One photon decays with the cavity T1, essentially unaffected by the
        // (idle, ground-state) transmon.
        let psi = QuditState::basis(vec![4, t.levels], &[1, 0]).unwrap();
        let mut rho = DensityMatrix::from_pure(&psi);
        sys.evolve(&mut rho, 100.0, 0.5).unwrap();
        let n = rho.expectation(&gates::number_operator(4), &[0]).unwrap().re;
        let expected = (-100.0_f64 / 1000.0).exp();
        assert!((n - expected).abs() < 2e-3, "n = {n} vs {expected}");
    }
}
