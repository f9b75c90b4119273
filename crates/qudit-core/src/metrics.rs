//! Distance and fidelity measures between quantum states and processes.

use crate::complex::Complex64;
use crate::density::DensityMatrix;
use crate::error::{CoreError, Result};
use crate::linalg::eigh;
use crate::matrix::CMatrix;
use crate::state::QuditState;

/// Fidelity between two pure states, `|⟨a|b⟩|²`.
///
/// # Errors
/// Returns an error if the registers differ.
pub fn state_fidelity(a: &QuditState, b: &QuditState) -> Result<f64> {
    Ok(a.inner(b)?.norm_sqr())
}

/// Uhlmann fidelity between two density matrices,
/// `F(ρ, σ) = (Tr √(√ρ σ √ρ))²`.
///
/// # Errors
/// Returns an error if the registers differ or an eigendecomposition fails.
pub fn density_fidelity(rho: &DensityMatrix, sigma: &DensityMatrix) -> Result<f64> {
    if rho.radix() != sigma.radix() {
        return Err(CoreError::ShapeMismatch {
            expected: format!("register {:?}", rho.radix().dims()),
            found: format!("register {:?}", sigma.radix().dims()),
        });
    }
    let sqrt_rho = matrix_sqrt_psd(rho.matrix())?;
    let inner = sqrt_rho.matmul(sigma.matrix())?.matmul(&sqrt_rho)?;
    let sqrt_inner = matrix_sqrt_psd(&inner)?;
    let t = sqrt_inner.trace().re;
    Ok((t * t).clamp(0.0, 1.0 + 1e-9))
}

/// Trace distance `½ Tr |ρ - σ|` between two density matrices.
///
/// # Errors
/// Returns an error if the registers differ or an eigendecomposition fails.
pub fn trace_distance(rho: &DensityMatrix, sigma: &DensityMatrix) -> Result<f64> {
    if rho.radix() != sigma.radix() {
        return Err(CoreError::ShapeMismatch {
            expected: format!("register {:?}", rho.radix().dims()),
            found: format!("register {:?}", sigma.radix().dims()),
        });
    }
    let diff = rho.matrix() - sigma.matrix();
    let eig = eigh(&diff)?;
    Ok(0.5 * eig.values.iter().map(|l| l.abs()).sum::<f64>())
}

/// Square root of a positive semi-definite Hermitian matrix.
///
/// Small negative eigenvalues from rounding are clamped to zero.
///
/// # Errors
/// Propagates eigendecomposition failures.
pub fn matrix_sqrt_psd(m: &CMatrix) -> Result<CMatrix> {
    let eig = eigh(m)?;
    Ok(eig.apply_function(|l| Complex64::from_real(l.max(0.0).sqrt())))
}

/// Process (gate) fidelity between two unitaries of equal dimension,
/// `F = |Tr(U† V)|² / D²`.
///
/// # Errors
/// Returns an error on dimension mismatch.
pub fn process_fidelity(u: &CMatrix, v: &CMatrix) -> Result<f64> {
    if u.rows() != v.rows() || u.cols() != v.cols() || !u.is_square() {
        return Err(CoreError::ShapeMismatch {
            expected: format!("{}x{} unitary", u.rows(), u.rows()),
            found: format!("{}x{}", v.rows(), v.cols()),
        });
    }
    let d = u.rows() as f64;
    let tr = u.dagger().matmul(v)?.trace();
    Ok((tr.norm_sqr() / (d * d)).clamp(0.0, 1.0 + 1e-9))
}

/// Average gate fidelity between a target unitary and an implemented unitary,
/// `F_avg = (D F_pro + 1) / (D + 1)` where `F_pro` is [`process_fidelity`].
///
/// # Errors
/// Returns an error on dimension mismatch.
pub fn average_gate_fidelity(u: &CMatrix, v: &CMatrix) -> Result<f64> {
    let d = u.rows() as f64;
    let fp = process_fidelity(u, v)?;
    Ok((d * fp + 1.0) / (d + 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use std::f64::consts::FRAC_1_SQRT_2;

    fn bell() -> QuditState {
        QuditState::from_amplitudes(
            vec![2, 2],
            vec![
                c64(FRAC_1_SQRT_2, 0.0),
                Complex64::ZERO,
                Complex64::ZERO,
                c64(FRAC_1_SQRT_2, 0.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn pure_state_fidelity_bounds() {
        let a = QuditState::basis(vec![3], &[0]).unwrap();
        let b = QuditState::basis(vec![3], &[1]).unwrap();
        assert!((state_fidelity(&a, &a).unwrap() - 1.0).abs() < 1e-12);
        assert!(state_fidelity(&a, &b).unwrap() < 1e-12);
    }

    #[test]
    fn density_fidelity_pure_vs_mixed() {
        let bell = bell();
        let pure = DensityMatrix::from_pure(&bell);
        let mixed = DensityMatrix::maximally_mixed(vec![2, 2]).unwrap();
        let f = density_fidelity(&pure, &mixed).unwrap();
        assert!((f - 0.25).abs() < 1e-8);
        let f_self = density_fidelity(&pure, &pure).unwrap();
        assert!((f_self - 1.0).abs() < 1e-8);
    }

    #[test]
    fn trace_distance_extremes() {
        let a = DensityMatrix::from_pure(&QuditState::basis(vec![2], &[0]).unwrap());
        let b = DensityMatrix::from_pure(&QuditState::basis(vec![2], &[1]).unwrap());
        assert!((trace_distance(&a, &b).unwrap() - 1.0).abs() < 1e-10);
        assert!(trace_distance(&a, &a).unwrap() < 1e-10);
    }

    #[test]
    fn fidelity_and_trace_distance_fuchs_van_de_graaf() {
        // 1 - F <= T for any pair of states (one of the Fuchs–van de Graaf inequalities,
        // in the form valid when one state is pure).
        let pure = DensityMatrix::from_pure(&bell());
        let mixed = DensityMatrix::maximally_mixed(vec![2, 2]).unwrap();
        let f = density_fidelity(&pure, &mixed).unwrap();
        let t = trace_distance(&pure, &mixed).unwrap();
        assert!(1.0 - f <= t + 1e-9);
    }

    #[test]
    fn process_fidelity_phase_invariance() {
        let u = CMatrix::identity(3);
        let v = u.scaled(Complex64::cis(0.7));
        assert!((process_fidelity(&u, &v).unwrap() - 1.0).abs() < 1e-12);
        let w = CMatrix::diag(&[Complex64::ONE, Complex64::cis(0.3), Complex64::ONE]);
        assert!(process_fidelity(&u, &w).unwrap() < 1.0);
    }

    #[test]
    fn average_gate_fidelity_identity() {
        let u = CMatrix::identity(4);
        assert!((average_gate_fidelity(&u, &u).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matrix_sqrt_squares_back() {
        let m = CMatrix::diag_real(&[4.0, 9.0, 0.0]);
        let s = matrix_sqrt_psd(&m).unwrap();
        let sq = s.matmul(&s).unwrap();
        assert!((&sq - &m).max_abs() < 1e-9);
    }
}
