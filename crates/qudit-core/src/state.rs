//! Pure states of mixed-radix qudit registers.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::apply::{ApplyPlan, OpKind};
use crate::complex::{c64, Complex64};
use crate::error::{CoreError, Result};
use crate::matrix::CMatrix;
use crate::radix::Radix;
use crate::sampling::Cdf;

/// A pure state (state vector) of a mixed-radix qudit register.
///
/// Amplitudes are stored in the big-endian flat-index order defined by
/// [`Radix`]: qudit 0 is the most significant digit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuditState {
    radix: Radix,
    amplitudes: Vec<Complex64>,
}

impl QuditState {
    /// Creates the all-zeros computational basis state `|0...0⟩`.
    ///
    /// # Errors
    /// Returns an error if any dimension is invalid.
    pub fn zero(dims: Vec<usize>) -> Result<Self> {
        let radix = Radix::new(dims)?;
        let mut amplitudes = vec![Complex64::ZERO; radix.total_dim()];
        amplitudes[0] = Complex64::ONE;
        Ok(Self { radix, amplitudes })
    }

    /// Creates a computational basis state `|x_0 x_1 ... x_{n-1}⟩`.
    ///
    /// # Errors
    /// Returns an error if any dimension or digit is invalid.
    pub fn basis(dims: Vec<usize>, digits: &[usize]) -> Result<Self> {
        let radix = Radix::new(dims)?;
        let idx = radix.index_of(digits)?;
        let mut amplitudes = vec![Complex64::ZERO; radix.total_dim()];
        amplitudes[idx] = Complex64::ONE;
        Ok(Self { radix, amplitudes })
    }

    /// Creates a state from explicit amplitudes (not renormalised).
    ///
    /// # Errors
    /// Returns an error if the amplitude count does not match the register
    /// dimension or the vector has (numerically) zero norm.
    pub fn from_amplitudes(dims: Vec<usize>, amplitudes: Vec<Complex64>) -> Result<Self> {
        let radix = Radix::new(dims)?;
        if amplitudes.len() != radix.total_dim() {
            return Err(CoreError::ShapeMismatch {
                expected: format!("{} amplitudes", radix.total_dim()),
                found: format!("{} amplitudes", amplitudes.len()),
            });
        }
        let norm: f64 = amplitudes.iter().map(|a| a.norm_sqr()).sum();
        if norm < 1e-300 {
            return Err(CoreError::InvalidArgument("state vector has zero norm".into()));
        }
        Ok(Self { radix, amplitudes })
    }

    /// Creates the uniform superposition over all basis states.
    ///
    /// # Errors
    /// Returns an error if any dimension is invalid.
    pub fn uniform_superposition(dims: Vec<usize>) -> Result<Self> {
        let radix = Radix::new(dims)?;
        let n = radix.total_dim();
        let amp = c64(1.0 / (n as f64).sqrt(), 0.0);
        Ok(Self { radix, amplitudes: vec![amp; n] })
    }

    /// The register description.
    #[inline]
    pub fn radix(&self) -> &Radix {
        &self.radix
    }

    /// Number of qudits in the register.
    #[inline]
    pub fn num_qudits(&self) -> usize {
        self.radix.len()
    }

    /// Total Hilbert-space dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.amplitudes.len()
    }

    /// Amplitude vector in flat-index order.
    #[inline]
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amplitudes
    }

    /// Mutable access to the amplitude vector. The caller is responsible for
    /// keeping the state normalised if that matters downstream.
    #[inline]
    pub fn amplitudes_mut(&mut self) -> &mut [Complex64] {
        &mut self.amplitudes
    }

    /// Amplitude of a given basis digit string.
    ///
    /// # Errors
    /// Returns an error for invalid digit strings.
    pub fn amplitude(&self, digits: &[usize]) -> Result<Complex64> {
        Ok(self.amplitudes[self.radix.index_of(digits)?])
    }

    /// Squared 2-norm of the state vector.
    pub fn norm_sqr(&self) -> f64 {
        self.amplitudes.iter().map(|a| a.norm_sqr()).sum()
    }

    /// 2-norm of the state vector.
    pub fn norm(&self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Renormalises the state to unit norm.
    ///
    /// # Errors
    /// Returns an error if the norm is numerically zero.
    pub fn normalize(&mut self) -> Result<()> {
        let n = self.norm();
        if n < 1e-300 {
            return Err(CoreError::InvalidArgument("cannot normalise a zero vector".into()));
        }
        let inv = 1.0 / n;
        for a in &mut self.amplitudes {
            *a = a.scale(inv);
        }
        Ok(())
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Errors
    /// Returns an error if the registers differ.
    pub fn inner(&self, other: &QuditState) -> Result<Complex64> {
        if self.radix != other.radix {
            return Err(CoreError::ShapeMismatch {
                expected: format!("register {:?}", self.radix.dims()),
                found: format!("register {:?}", other.radix.dims()),
            });
        }
        Ok(self.amplitudes.iter().zip(other.amplitudes.iter()).map(|(a, b)| a.conj() * *b).sum())
    }

    /// Probability of each computational basis outcome.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amplitudes.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Applies a unitary (or any linear operator) `op` acting on the listed
    /// target qudits, in place. `op` must be a square matrix of dimension
    /// equal to the product of the target dimensions, with index ordering
    /// matching the order of `targets` (first target most significant).
    ///
    /// # Errors
    /// Returns an error if targets or operator dimensions are invalid.
    pub fn apply_operator(&mut self, op: &CMatrix, targets: &[usize]) -> Result<()> {
        let plan = ApplyPlan::new(&self.radix, targets)?;
        let kind = OpKind::classify(op);
        let mut scratch = Vec::new();
        self.apply_prepared(&plan, &kind, op, &mut scratch)
    }

    /// Applies an operator through a precomputed [`ApplyPlan`] and
    /// [`OpKind`], the allocation-free path the circuit simulators use to
    /// reuse plans across instructions, shots and trajectories. `scratch` is
    /// caller-owned working memory (resized as needed).
    ///
    /// # Errors
    /// Returns an error if the plan or operator dimensions do not match this
    /// register.
    pub fn apply_prepared(
        &mut self,
        plan: &ApplyPlan,
        kind: &OpKind,
        op: &CMatrix,
        scratch: &mut Vec<Complex64>,
    ) -> Result<()> {
        plan.apply(kind, op, &mut self.amplitudes, scratch)
    }

    /// Applies an operator defined on the whole register.
    ///
    /// # Errors
    /// Returns an error on dimension mismatch.
    pub fn apply_full_operator(&mut self, op: &CMatrix) -> Result<()> {
        if op.rows() != self.dim() || op.cols() != self.dim() {
            return Err(CoreError::ShapeMismatch {
                expected: format!("{0}x{0} operator", self.dim()),
                found: format!("{}x{}", op.rows(), op.cols()),
            });
        }
        self.amplitudes = op.matvec(&self.amplitudes)?;
        Ok(())
    }

    /// Expectation value `⟨ψ| O |ψ⟩` of an operator acting on the listed
    /// targets (identity elsewhere).
    ///
    /// # Errors
    /// Returns an error if targets or operator dimensions are invalid.
    pub fn expectation(&self, op: &CMatrix, targets: &[usize]) -> Result<Complex64> {
        let plan = ApplyPlan::new(&self.radix, targets)?;
        let kind = OpKind::classify(op);
        let mut scratch = Vec::new();
        plan.expectation(&kind, op, &self.amplitudes, &mut scratch)
    }

    /// Probability distribution of measuring the listed target qudits in the
    /// computational basis (marginal over the rest).
    ///
    /// # Errors
    /// Returns an error for invalid targets.
    pub fn marginal_probabilities(&self, targets: &[usize]) -> Result<Vec<f64>> {
        let plan = ApplyPlan::new(&self.radix, targets)?;
        Ok(plan.marginal_probabilities(&self.amplitudes))
    }

    /// Samples a computational-basis measurement of the full register without
    /// collapsing the state. Returns the observed digit string.
    ///
    /// A zero-mass state (all amplitudes zero, e.g. fully decayed under an
    /// unnormalised lossy map) has no drawable outcome; by convention it
    /// samples the all-zeros (ground) digit string instead of silently
    /// drawing a zero-weight outcome.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<usize> {
        let chosen = self.cdf().try_draw(rng).unwrap_or(0);
        self.radix.digits_of(chosen).expect("index in range")
    }

    /// Cumulative distribution over computational-basis outcomes, for
    /// repeated sampling: build once, then draw shots in `O(log dim)` each
    /// (see [`Cdf`]).
    pub fn cdf(&self) -> Cdf {
        Cdf::from_weights(self.amplitudes.iter().map(|a| a.norm_sqr()))
    }

    /// Samples `shots` computational-basis measurements, returning a count per
    /// flat basis index. Uses a precomputed cumulative distribution with a
    /// binary search per shot instead of the seed's O(dim) scan per shot.
    /// A zero-mass state puts every shot on the ground outcome (the
    /// convention of [`QuditState::sample`]).
    pub fn sample_counts<R: Rng + ?Sized>(&self, rng: &mut R, shots: usize) -> Vec<usize> {
        let cdf = self.cdf();
        let mut counts = vec![0usize; self.dim()];
        for _ in 0..shots {
            counts[cdf.try_draw(rng).unwrap_or(0)] += 1;
        }
        counts
    }

    /// Measures the listed target qudits in the computational basis,
    /// collapsing the state, and returns the observed digits (in target order).
    ///
    /// # Errors
    /// Returns an error for invalid targets, or when the targets' marginal
    /// distribution carries no probability mass (a zero state cannot be
    /// measured — collapsing onto a zero-weight outcome is undefined).
    pub fn measure<R: Rng + ?Sized>(
        &mut self,
        targets: &[usize],
        rng: &mut R,
    ) -> Result<Vec<usize>> {
        let plan = ApplyPlan::new(&self.radix, targets)?;
        let target_radix = Radix::new(targets.iter().map(|&t| self.radix.dims()[t]).collect())?;
        let probs = plan.marginal_probabilities(&self.amplitudes);
        let outcome = Cdf::from_weights(probs).try_draw(rng).ok_or_else(|| {
            CoreError::InvalidProbability(
                "measurement targets carry no probability mass (zero state)".into(),
            )
        })?;
        let outcome_digits = target_radix.digits_of(outcome)?;
        // Project and renormalise.
        plan.collapse(&mut self.amplitudes, outcome);
        self.normalize()?;
        Ok(outcome_digits)
    }

    /// Returns the density matrix `|ψ⟩⟨ψ|` of the full register.
    pub fn to_density_matrix(&self) -> CMatrix {
        let n = self.dim();
        CMatrix::from_fn(n, n, |i, j| self.amplitudes[i] * self.amplitudes[j].conj())
    }

    /// Reduced density matrix of the listed subsystems, obtained by tracing
    /// out every other qudit.
    ///
    /// # Errors
    /// Returns an error for invalid targets.
    pub fn reduced_density_matrix(&self, keep: &[usize]) -> Result<CMatrix> {
        // ρ_keep[i,j] = Σ_env ψ[(i, env)] ψ*[(j, env)]; the plan's spectator
        // blocks are exactly the environment configurations.
        let plan = ApplyPlan::new(&self.radix, keep)?;
        Ok(plan.reduced_density(&self.amplitudes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::FRAC_1_SQRT_2;

    fn qutrit_x() -> CMatrix {
        let mut x = CMatrix::zeros(3, 3);
        for k in 0..3 {
            x[((k + 1) % 3, k)] = c64(1.0, 0.0);
        }
        x
    }

    #[test]
    fn zero_state_is_normalised_basis_state() {
        let s = QuditState::zero(vec![3, 3]).unwrap();
        assert_eq!(s.dim(), 9);
        assert!((s.norm() - 1.0).abs() < 1e-12);
        assert_eq!(s.amplitude(&[0, 0]).unwrap(), Complex64::ONE);
        assert_eq!(s.amplitude(&[1, 2]).unwrap(), Complex64::ZERO);
    }

    #[test]
    fn basis_state_has_correct_support() {
        let s = QuditState::basis(vec![2, 3, 4], &[1, 2, 3]).unwrap();
        assert_eq!(s.amplitude(&[1, 2, 3]).unwrap(), Complex64::ONE);
        assert!((s.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_superposition_probabilities() {
        let s = QuditState::uniform_superposition(vec![3, 3]).unwrap();
        for p in s.probabilities() {
            assert!((p - 1.0 / 9.0).abs() < 1e-12);
        }
    }

    #[test]
    fn apply_single_qudit_operator_shifts_level() {
        let mut s = QuditState::basis(vec![3, 3], &[0, 1]).unwrap();
        s.apply_operator(&qutrit_x(), &[1]).unwrap();
        assert!((s.amplitude(&[0, 2]).unwrap() - Complex64::ONE).abs() < 1e-12);
        s.apply_operator(&qutrit_x(), &[0]).unwrap();
        assert!((s.amplitude(&[1, 2]).unwrap() - Complex64::ONE).abs() < 1e-12);
    }

    #[test]
    fn apply_operator_matches_full_embedding() {
        use crate::radix::embed_operator;
        let dims = vec![2, 3, 2];
        let mut s = QuditState::uniform_superposition(dims.clone()).unwrap();
        // Random-ish two-qudit unitary on qudits (2, 1) built from a Hermitian generator.
        let h =
            CMatrix::from_fn(6, 6, |i, j| c64((i * j) as f64 * 0.1, (i as f64 - j as f64) * 0.05))
                .hermitian_part();
        let u = crate::linalg::expm_hermitian(&h, c64(0.0, -1.0)).unwrap();
        let mut s2 = s.clone();

        s.apply_operator(&u, &[2, 1]).unwrap();

        let full = embed_operator(s2.radix(), &u, &[2, 1]).unwrap();
        s2.apply_full_operator(&full).unwrap();

        for (a, b) in s.amplitudes().iter().zip(s2.amplitudes().iter()) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn operator_application_preserves_norm() {
        let mut s = QuditState::uniform_superposition(vec![4, 4]).unwrap();
        let h = CMatrix::from_fn(4, 4, |i, j| c64((i + j) as f64, i as f64 - j as f64))
            .hermitian_part();
        let u = crate::linalg::expm_hermitian(&h, c64(0.0, -0.3)).unwrap();
        s.apply_operator(&u, &[1]).unwrap();
        assert!((s.norm() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn inner_product_orthogonal_basis_states() {
        let a = QuditState::basis(vec![3], &[0]).unwrap();
        let b = QuditState::basis(vec![3], &[1]).unwrap();
        assert!(a.inner(&b).unwrap().abs() < 1e-12);
        assert!((a.inner(&a).unwrap() - Complex64::ONE).abs() < 1e-12);
    }

    #[test]
    fn inner_product_register_mismatch_errors() {
        let a = QuditState::zero(vec![2]).unwrap();
        let b = QuditState::zero(vec![3]).unwrap();
        assert!(a.inner(&b).is_err());
    }

    #[test]
    fn marginal_probabilities_of_product_state() {
        // |+⟩ ⊗ |0⟩ on a qubit and a qutrit.
        let h = c64(FRAC_1_SQRT_2, 0.0);
        let z = Complex64::ZERO;
        let s = QuditState::from_amplitudes(vec![2, 3], vec![h, z, z, h, z, z]).unwrap();
        let marg = s.marginal_probabilities(&[0]).unwrap();
        assert!((marg[0] - 0.5).abs() < 1e-12);
        assert!((marg[1] - 0.5).abs() < 1e-12);
        let marg1 = s.marginal_probabilities(&[1]).unwrap();
        assert!((marg1[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measurement_collapses_state() {
        // GHZ-like qutrit state (|00> + |11> + |22>)/sqrt(3).
        let inv = 1.0 / 3f64.sqrt();
        let mut amps = vec![Complex64::ZERO; 9];
        amps[0] = c64(inv, 0.0);
        amps[4] = c64(inv, 0.0);
        amps[8] = c64(inv, 0.0);
        let mut s = QuditState::from_amplitudes(vec![3, 3], amps).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let outcome = s.measure(&[0], &mut rng).unwrap();
        // After measuring qudit 0, qudit 1 must agree with it.
        let probs = s.marginal_probabilities(&[1]).unwrap();
        assert!((probs[outcome[0]] - 1.0).abs() < 1e-10);
        assert!((s.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_distribution() {
        let s = QuditState::from_amplitudes(
            vec![2],
            vec![c64(0.8f64.sqrt(), 0.0), c64(0.2f64.sqrt(), 0.0)],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let counts = s.sample_counts(&mut rng, 20_000);
        let p0 = counts[0] as f64 / 20_000.0;
        assert!((p0 - 0.8).abs() < 0.02);
    }

    #[test]
    fn expectation_of_number_operator() {
        let s = QuditState::basis(vec![4], &[2]).unwrap();
        let n_op = CMatrix::diag_real(&[0.0, 1.0, 2.0, 3.0]);
        let e = s.expectation(&n_op, &[0]).unwrap();
        assert!((e.re - 2.0).abs() < 1e-12);
        assert!(e.im.abs() < 1e-12);
    }

    #[test]
    fn reduced_density_matrix_of_entangled_state() {
        // Bell state on two qubits: reduced state is maximally mixed.
        let amps = vec![
            c64(FRAC_1_SQRT_2, 0.0),
            Complex64::ZERO,
            Complex64::ZERO,
            c64(FRAC_1_SQRT_2, 0.0),
        ];
        let s = QuditState::from_amplitudes(vec![2, 2], amps).unwrap();
        let rho = s.reduced_density_matrix(&[0]).unwrap();
        assert!((rho[(0, 0)].re - 0.5).abs() < 1e-12);
        assert!((rho[(1, 1)].re - 0.5).abs() < 1e-12);
        assert!(rho[(0, 1)].abs() < 1e-12);
    }

    #[test]
    fn reduced_density_matrix_of_product_state_is_pure() {
        // |1⟩ ⊗ |+⟩ on a qutrit and a qubit.
        let h = c64(FRAC_1_SQRT_2, 0.0);
        let z = Complex64::ZERO;
        let s = QuditState::from_amplitudes(vec![3, 2], vec![z, z, h, h, z, z]).unwrap();
        let rho = s.reduced_density_matrix(&[1]).unwrap();
        // Purity of the reduced state should be 1 for a product state.
        let purity = rho.matmul(&rho).unwrap().trace().re;
        assert!((purity - 1.0).abs() < 1e-10);
    }

    #[test]
    fn from_amplitudes_rejects_bad_input() {
        assert!(QuditState::from_amplitudes(vec![2], vec![Complex64::ZERO; 3]).is_err());
        assert!(QuditState::from_amplitudes(vec![2], vec![Complex64::ZERO; 2]).is_err());
    }

    /// A fully-decayed state: apply the Kraus operator `|0⟩⟨0|` to `|1⟩`,
    /// which annihilates the vector without renormalisation.
    fn zero_mass_state() -> QuditState {
        let mut s = QuditState::basis(vec![2, 2], &[1, 0]).unwrap();
        let mut k = CMatrix::zeros(2, 2);
        k[(0, 0)] = Complex64::ONE;
        s.apply_operator(&k, &[0]).unwrap();
        assert!(s.norm() < 1e-300);
        s
    }

    #[test]
    fn measuring_a_zero_mass_state_errors_instead_of_drawing() {
        // Regression: the zero-total CDF used to hand back the last outcome
        // (weight zero), collapsing onto an impossible measurement result.
        let mut s = zero_mass_state();
        let mut rng = StdRng::seed_from_u64(2);
        assert!(s.measure(&[0], &mut rng).is_err());
    }

    #[test]
    fn sampling_a_zero_mass_state_falls_back_to_ground() {
        let s = zero_mass_state();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(s.sample(&mut rng), vec![0, 0]);
        let counts = s.sample_counts(&mut rng, 25);
        assert_eq!(counts[0], 25, "every shot lands on the ground outcome");
    }
}
