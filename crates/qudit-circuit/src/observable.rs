//! Observables: Hermitian operators expressed as weighted sums of local
//! terms, with expectation values against pure and mixed states.

use qudit_core::complex::Complex64;
use qudit_core::density::DensityMatrix;
use qudit_core::matrix::CMatrix;
use qudit_core::state::QuditState;

use crate::error::{CircuitError, Result};
use crate::gates;

/// One term of an observable: a real coefficient times a product of local
/// operators acting on distinct qudits.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservableTerm {
    /// Real coefficient.
    pub coeff: f64,
    /// Local factors as `(qudit index, operator)` pairs; indices must be
    /// distinct within a term.
    pub factors: Vec<(usize, CMatrix)>,
}

/// A Hermitian observable `O = Σ_t c_t ⊗_k A_{t,k}`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Observable {
    terms: Vec<ObservableTerm>,
}

impl Observable {
    /// The zero observable.
    pub fn new() -> Self {
        Self { terms: Vec::new() }
    }

    /// An observable with a single local operator on one qudit.
    pub fn single(qudit: usize, op: CMatrix) -> Self {
        Self { terms: vec![ObservableTerm { coeff: 1.0, factors: vec![(qudit, op)] }] }
    }

    /// The number operator `n̂` on one qudit of dimension `d`.
    pub fn number(qudit: usize, d: usize) -> Self {
        Self::single(qudit, gates::number_operator(d))
    }

    /// The projector onto `|level⟩` of one qudit of dimension `d`.
    pub fn projector(qudit: usize, d: usize, level: usize) -> Self {
        Self::single(qudit, gates::projector(d, level))
    }

    /// Adds a term.
    pub fn add_term(&mut self, coeff: f64, factors: Vec<(usize, CMatrix)>) -> &mut Self {
        self.terms.push(ObservableTerm { coeff, factors });
        self
    }

    /// Adds every term of another observable, scaled by `scale`.
    pub fn add_scaled(&mut self, other: &Observable, scale: f64) -> &mut Self {
        for t in &other.terms {
            self.terms.push(ObservableTerm { coeff: t.coeff * scale, factors: t.factors.clone() });
        }
        self
    }

    /// The terms of this observable.
    pub fn terms(&self) -> &[ObservableTerm] {
        &self.terms
    }

    /// Expectation value with respect to a pure state.
    ///
    /// # Errors
    /// Returns an error if any factor's dimensions disagree with the state.
    pub fn expectation(&self, state: &QuditState) -> Result<f64> {
        let mut acc = 0.0;
        for term in &self.terms {
            let val = match term.factors.as_slice() {
                // Constant term: ⟨ψ|ψ⟩.
                [] => state.norm_sqr(),
                // Single local factor: stride-plan expectation, no clone.
                [(q, op)] => state.expectation(op, &[*q]).map_err(CircuitError::Core)?.re,
                // Product over distinct qudits: apply the factors to a copy.
                factors => {
                    let mut applied = state.clone();
                    for (q, op) in factors {
                        applied.apply_operator(op, &[*q]).map_err(CircuitError::Core)?;
                    }
                    state.inner(&applied).map_err(CircuitError::Core)?.re
                }
            };
            acc += term.coeff * val;
        }
        Ok(acc)
    }

    /// Expectation value with respect to a density matrix.
    ///
    /// # Errors
    /// Returns an error if any factor's dimensions disagree with the state.
    pub fn expectation_density(&self, rho: &DensityMatrix) -> Result<f64> {
        let mut acc = 0.0;
        for term in &self.terms {
            // Tr(ρ Π_k A_k): apply each factor in sequence via the expectation
            // of the product operator. Build the product on the combined
            // target set term by term using repeated single-qudit application.
            let mut work = rho.clone();
            let mut val = Complex64::ZERO;
            let mut applied_any = false;
            for (q, op) in &term.factors {
                // Left-multiply ρ by each local operator.
                let full_expect = work.expectation(op, &[*q]).map_err(CircuitError::Core)?;
                // For products over distinct qudits the operators commute, so
                // sequential application is correct; implement by applying the
                // operator and deferring the trace to the last factor.
                if term.factors.len() == 1 {
                    val = full_expect;
                    applied_any = true;
                } else {
                    // apply the operator to the state (ρ → A ρ) and keep going
                    work = apply_left_local(&work, op, *q)?;
                    applied_any = true;
                }
            }
            let value = if term.factors.len() == 1 {
                val.re
            } else if applied_any {
                work.matrix().trace().re
            } else {
                // Constant term (no factors): Tr(ρ) = 1.
                rho.trace()
            };
            acc += term.coeff * value;
        }
        Ok(acc)
    }
}

/// Applies a local operator on the ket side of a density matrix: `ρ → A ρ`,
/// returning a new (generally non-physical) matrix used only for computing
/// traces of operator products.
fn apply_left_local(rho: &DensityMatrix, op: &CMatrix, qudit: usize) -> Result<DensityMatrix> {
    let full =
        qudit_core::radix::embed_operator(rho.radix(), op, &[qudit]).map_err(CircuitError::Core)?;
    let m = full.matmul(rho.matrix()).map_err(CircuitError::Core)?;
    DensityMatrix::from_matrix(rho.radix().dims().to_vec(), m).map_err(CircuitError::Core)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_core::complex::c64;

    #[test]
    fn number_expectation_on_basis_state() {
        let obs = Observable::number(0, 5);
        let s = QuditState::basis(vec![5, 2], &[3, 1]).unwrap();
        assert!((obs.expectation(&s).unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn projector_expectation_matches_probability() {
        let s = QuditState::uniform_superposition(vec![4]).unwrap();
        let obs = Observable::projector(0, 4, 2);
        assert!((obs.expectation(&s).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn multi_term_and_scaled_observables() {
        let mut obs = Observable::new();
        obs.add_term(2.0, vec![(0, gates::number_operator(3))]);
        obs.add_term(-1.0, vec![(1, gates::number_operator(3))]);
        let s = QuditState::basis(vec![3, 3], &[2, 1]).unwrap();
        assert!((obs.expectation(&s).unwrap() - (2.0 * 2.0 - 1.0)).abs() < 1e-12);

        let mut combined = Observable::new();
        combined.add_scaled(&obs, 0.5);
        assert!((combined.expectation(&s).unwrap() - 1.5).abs() < 1e-12);
        assert_eq!(combined.terms.len(), 2);
    }

    #[test]
    fn two_qudit_correlator() {
        // ⟨n̂_0 n̂_1⟩ on |2,1⟩ = 2.
        let mut obs = Observable::new();
        obs.add_term(1.0, vec![(0, gates::number_operator(3)), (1, gates::number_operator(3))]);
        let s = QuditState::basis(vec![3, 3], &[2, 1]).unwrap();
        assert!((obs.expectation(&s).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn density_expectation_matches_pure_expectation() {
        let mut obs = Observable::new();
        obs.add_term(1.3, vec![(0, gates::number_operator(3))]);
        obs.add_term(0.7, vec![(0, gates::number_operator(3)), (1, gates::projector(3, 2))]);
        let mut s = QuditState::uniform_superposition(vec![3, 3]).unwrap();
        s.apply_operator(&gates::fourier(3), &[0]).unwrap();
        let rho = DensityMatrix::from_pure(&s);
        let e_pure = obs.expectation(&s).unwrap();
        let e_mixed = obs.expectation_density(&rho).unwrap();
        assert!((e_pure - e_mixed).abs() < 1e-9);
    }

    #[test]
    fn expectation_of_coherence_operator() {
        // ⟨|0⟩⟨1| + |1⟩⟨0|⟩ on (|0⟩+|1⟩)/√2 = 1.
        let mut op = CMatrix::zeros(2, 2);
        op[(0, 1)] = c64(1.0, 0.0);
        op[(1, 0)] = c64(1.0, 0.0);
        let obs = Observable::single(0, op);
        let s = QuditState::from_amplitudes(
            vec![2],
            vec![
                c64(std::f64::consts::FRAC_1_SQRT_2, 0.0),
                c64(std::f64::consts::FRAC_1_SQRT_2, 0.0),
            ],
        )
        .unwrap();
        assert!((obs.expectation(&s).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dimension_mismatch_errors() {
        let obs = Observable::number(0, 5);
        let s = QuditState::zero(vec![3]).unwrap();
        assert!(obs.expectation(&s).is_err());
    }
}
