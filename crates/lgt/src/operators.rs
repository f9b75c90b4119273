//! Truncated gauge-field (angular-momentum / rotor) operators.
//!
//! A U(1) gauge link truncated to `d` electric-flux states is represented by
//! the operators `L̂z |m⟩ = m |m⟩` with `m ∈ {−(d−1)/2, …, +(d−1)/2}` (integer
//! or half-integer spacing 1) and the ladder operators `L̂± |m⟩ = |m ± 1⟩`
//! (truncated at the boundaries). These are exactly the "diagonal and ladder
//! operators" the paper's simulation section builds its Hamiltonians from.

use qudit_core::complex::Complex64;
use qudit_core::matrix::CMatrix;

/// Centred electric-field eigenvalue of level `k` in a `d`-level truncation.
pub fn flux_value(d: usize, k: usize) -> f64 {
    k as f64 - (d as f64 - 1.0) / 2.0
}

/// Diagonal electric-field operator `L̂z = diag(−(d−1)/2, …, +(d−1)/2)`.
pub fn lz(d: usize) -> CMatrix {
    CMatrix::diag_real(&(0..d).map(|k| flux_value(d, k)).collect::<Vec<_>>())
}

/// `L̂z²`, the electric-energy density of a link.
pub fn lz_squared(d: usize) -> CMatrix {
    CMatrix::diag_real(&(0..d).map(|k| flux_value(d, k).powi(2)).collect::<Vec<_>>())
}

/// Truncated raising operator `L̂+ |m⟩ = |m+1⟩` (kills the top level).
pub fn l_plus(d: usize) -> CMatrix {
    let mut m = CMatrix::zeros(d, d);
    for k in 0..d - 1 {
        m[(k + 1, k)] = Complex64::ONE;
    }
    m
}

/// Truncated lowering operator `L̂− = (L̂+)†`.
pub fn l_minus(d: usize) -> CMatrix {
    l_plus(d).dagger()
}

/// Two-site hopping term `L̂+ ⊗ L̂− + L̂− ⊗ L̂+` (Hermitian), the
/// nearest-neighbour interaction of the truncated gauge-matter Hamiltonian.
pub fn hopping(d: usize) -> CMatrix {
    let pm = l_plus(d).kron(&l_minus(d));
    let mp = l_minus(d).kron(&l_plus(d));
    &pm + &mp
}

/// Staggered-mass single-site term `(−1)^site · L̂z` is built by the caller;
/// this helper returns the alternating sign.
pub fn staggered_sign(site: usize) -> f64 {
    if site.is_multiple_of(2) {
        1.0
    } else {
        -1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flux_values_are_centred() {
        assert!((flux_value(3, 0) + 1.0).abs() < 1e-12);
        assert!((flux_value(3, 1)).abs() < 1e-12);
        assert!((flux_value(3, 2) - 1.0).abs() < 1e-12);
        assert!((flux_value(4, 0) + 1.5).abs() < 1e-12);
        assert!((flux_value(4, 3) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn lz_and_lz_squared_are_consistent() {
        for d in [2, 3, 5] {
            let z = lz(d);
            let z2 = lz_squared(d);
            let prod = z.matmul(&z).unwrap();
            assert!((&prod - &z2).max_abs() < 1e-12, "d = {d}");
        }
    }

    #[test]
    fn ladder_operators_shift_flux() {
        let d = 4;
        let plus = l_plus(d);
        let z = lz(d);
        // [Lz, L+] = L+ on the truncated space except at the boundary.
        let comm = &z.matmul(&plus).unwrap() - &plus.matmul(&z).unwrap();
        assert!((&comm - &plus).max_abs() < 1e-12);
        // L+ annihilates the top level.
        let mut top = vec![Complex64::ZERO; d];
        top[d - 1] = Complex64::ONE;
        let out = plus.matvec(&top).unwrap();
        assert!(out.iter().all(|z| z.abs() < 1e-12));
    }

    #[test]
    fn u_cos_and_hopping_are_hermitian() {
        for d in [2, 3, 4, 6] {
            assert!(hopping(d).is_hermitian(1e-12));
        }
    }

    #[test]
    fn hopping_conserves_total_flux() {
        // [L̂z⊗I + I⊗L̂z, hopping] = 0.
        let d = 3;
        let total_z = &lz(d).kron(&CMatrix::identity(d)) + &CMatrix::identity(d).kron(&lz(d));
        let hop = hopping(d);
        let comm = &total_z.matmul(&hop).unwrap() - &hop.matmul(&total_z).unwrap();
        assert!(comm.max_abs() < 1e-12);
    }

    #[test]
    fn staggered_sign_alternates() {
        assert_eq!(staggered_sign(0), 1.0);
        assert_eq!(staggered_sign(1), -1.0);
        assert_eq!(staggered_sign(2), 1.0);
    }
}
