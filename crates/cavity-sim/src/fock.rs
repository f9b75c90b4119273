//! Fock-space states of truncated bosonic modes.

use qudit_core::complex::{c64, Complex64};
use qudit_core::error::{CoreError, Result};
use qudit_core::matrix::CMatrix;
use qudit_core::state::QuditState;

/// A Fock (photon-number) basis state `|n⟩` of a mode truncated to `d` levels.
///
/// # Errors
/// Returns an error if `n >= d`.
pub fn fock_state(d: usize, n: usize) -> Result<QuditState> {
    QuditState::basis(vec![d], &[n])
}

/// Amplitudes of a coherent state `|α⟩` truncated to `d` levels and
/// renormalised on the truncated subspace.
pub fn coherent_amplitudes(d: usize, alpha: Complex64) -> Vec<Complex64> {
    let mut amps = Vec::with_capacity(d);
    // amp_n = α^n / sqrt(n!) (global e^{-|α|²/2} restored by normalisation).
    let mut current = Complex64::ONE;
    for n in 0..d {
        if n > 0 {
            current = current * alpha / (n as f64).sqrt();
        }
        amps.push(current);
    }
    let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
    amps.iter().map(|a| *a / norm).collect()
}

/// A coherent state `|α⟩` truncated to `d` levels.
///
/// # Errors
/// Returns an error for invalid dimensions.
pub fn coherent_state(d: usize, alpha: Complex64) -> Result<QuditState> {
    QuditState::from_amplitudes(vec![d], coherent_amplitudes(d, alpha))
}

/// Density matrix of a thermal state with mean photon number `nbar`,
/// truncated to `d` levels and renormalised.
///
/// # Errors
/// Returns an error if `d` is zero or `nbar` is negative.
pub fn thermal_density(d: usize, nbar: f64) -> Result<CMatrix> {
    if d == 0 {
        return Err(CoreError::InvalidDimension(0));
    }
    if nbar < 0.0 {
        return Err(CoreError::InvalidArgument(format!(
            "mean photon number must be non-negative, got {nbar}"
        )));
    }
    if nbar == 0.0 {
        let mut m = CMatrix::zeros(d, d);
        m[(0, 0)] = Complex64::ONE;
        return Ok(m);
    }
    let ratio = nbar / (1.0 + nbar);
    let mut probs: Vec<f64> = (0..d).map(|n| ratio.powi(n as i32)).collect();
    let total: f64 = probs.iter().sum();
    for p in &mut probs {
        *p /= total;
    }
    Ok(CMatrix::diag(&probs.iter().map(|&p| c64(p, 0.0)).collect::<Vec<_>>()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coherent_state_poissonian_statistics() {
        let alpha = c64(1.5, 0.0);
        let d = 30;
        let s = coherent_state(d, alpha).unwrap();
        assert!((s.norm() - 1.0).abs() < 1e-12);
        let n_mean: f64 =
            s.amplitudes().iter().enumerate().map(|(n, a)| n as f64 * a.norm_sqr()).sum();
        assert!((n_mean - alpha.norm_sqr()).abs() < 1e-6);
        // Variance equals the mean for a Poisson distribution.
        let n2: f64 =
            s.amplitudes().iter().enumerate().map(|(n, a)| (n * n) as f64 * a.norm_sqr()).sum();
        let var = n2 - n_mean * n_mean;
        assert!((var - n_mean).abs() < 1e-4);
    }

    #[test]
    fn vacuum_coherent_state_is_fock_zero() {
        let s = coherent_state(5, Complex64::ZERO).unwrap();
        assert!((s.amplitudes()[0].abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cat_states_have_definite_parity() {
        // |α⟩ ± |−α⟩: coherent amplitudes of −α alternate in sign with n.
        let d = 25;
        let alpha = c64(1.2, 0.0);
        let cat = |sign: f64| {
            let (plus, minus) = (coherent_amplitudes(d, alpha), coherent_amplitudes(d, -alpha));
            let amps = plus.iter().zip(&minus).map(|(a, b)| *a + b.scale(sign)).collect();
            let mut state = QuditState::from_amplitudes(vec![d], amps).unwrap();
            state.normalize().unwrap();
            state
        };
        let (even, odd) = (cat(1.0), cat(-1.0));
        for (n, amp) in even.amplitudes().iter().enumerate() {
            if n % 2 == 1 {
                assert!(amp.abs() < 1e-12, "even cat has odd component at n={n}");
            }
        }
        for (n, amp) in odd.amplitudes().iter().enumerate() {
            if n % 2 == 0 {
                assert!(amp.abs() < 1e-12, "odd cat has even component at n={n}");
            }
        }
        assert!(even.inner(&odd).unwrap().abs() < 1e-12);
    }

    #[test]
    fn thermal_state_properties() {
        let d = 40;
        let nbar = 0.8;
        let rho = thermal_density(d, nbar).unwrap();
        assert!((rho.trace().re - 1.0).abs() < 1e-12);
        let n_mean: f64 = (0..d).map(|n| n as f64 * rho[(n, n)].re).sum();
        assert!((n_mean - nbar).abs() < 1e-3);
        assert!(thermal_density(5, -0.1).is_err());
        // Zero-temperature limit is the vacuum.
        let vac = thermal_density(5, 0.0).unwrap();
        assert!((vac[(0, 0)].re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fock_state_bounds() {
        assert!(fock_state(4, 3).is_ok());
        assert!(fock_state(4, 4).is_err());
    }
}
