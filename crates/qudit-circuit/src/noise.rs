//! Kraus noise channels and circuit-level noise models for qudit processors.
//!
//! The channels here are the discrete-time counterparts of the dominant
//! error mechanisms in cavity-transmon qudit hardware:
//!
//! * **photon loss / amplitude damping** — the dominant cavity error, with
//!   level-dependent rates (`|n⟩` decays `n` times faster than `|1⟩`);
//! * **dephasing** — transmon-induced phase noise on the cavity;
//! * **depolarising** — a standard worst-case model built from qudit Weyl
//!   operators, used for encoding-comparison studies.

use qudit_core::complex::c64;
use qudit_core::matrix::CMatrix;
use serde::{Deserialize, Serialize};

use crate::error::{CircuitError, Result};
use crate::gates;

/// A completely-positive trace-preserving map given by Kraus operators.
#[derive(Debug, Clone, PartialEq)]
pub struct KrausChannel {
    name: String,
    dims: Vec<usize>,
    operators: Vec<CMatrix>,
    /// Completeness-relation tolerance the channel was validated against at
    /// construction. `1e-8` for [`KrausChannel::new`]; larger for channels
    /// admitted through [`KrausChannel::new_with_tolerance`]. The density
    /// compiler widens its fold-time trace-preservation allowance by this
    /// amount so intentionally lossy channels stay legal.
    tol: f64,
}

impl KrausChannel {
    /// Creates a channel from explicit Kraus operators.
    ///
    /// # Errors
    /// Returns an error if the list is empty, shapes are inconsistent, or the
    /// completeness relation `Σ K†K = I` fails to hold within `1e-8`.
    pub fn new(name: impl Into<String>, dims: Vec<usize>, operators: Vec<CMatrix>) -> Result<Self> {
        Self::new_with_tolerance(name, dims, operators, 1e-8)
    }

    /// Creates a channel from explicit Kraus operators, validating the
    /// completeness relation against a caller-chosen tolerance.
    ///
    /// This is the escape hatch for intentionally lossy maps (for example a
    /// leakage-to-environment model whose Kraus sum is deliberately
    /// sub-normalised): pass the amount of trace loss you accept as `tol` and
    /// every downstream trace-preservation check — compile-time fold
    /// validation and runtime [`qudit_core::guard`] superoperator checks —
    /// widens its allowance by the same amount.
    ///
    /// # Errors
    /// Returns an error if the list is empty, shapes are inconsistent, `tol`
    /// is not finite and non-negative, or `Σ K†K = I` fails within `tol`.
    pub fn new_with_tolerance(
        name: impl Into<String>,
        dims: Vec<usize>,
        operators: Vec<CMatrix>,
        tol: f64,
    ) -> Result<Self> {
        if !tol.is_finite() || tol < 0.0 {
            return Err(CircuitError::InvalidChannel(format!(
                "channel tolerance must be finite and non-negative, got {tol}"
            )));
        }
        let total: usize = dims.iter().product();
        if operators.is_empty() {
            return Err(CircuitError::InvalidChannel("empty Kraus operator list".into()));
        }
        for k in &operators {
            if k.rows() != total || k.cols() != total {
                return Err(CircuitError::InvalidChannel(format!(
                    "Kraus operator is {}x{}, expected {total}x{total}",
                    k.rows(),
                    k.cols()
                )));
            }
        }
        let channel = Self { name: name.into(), dims, operators, tol };
        if !channel.is_trace_preserving(tol) {
            return Err(CircuitError::InvalidChannel(
                "Kraus operators do not satisfy the completeness relation".into(),
            ));
        }
        Ok(channel)
    }

    /// The identity channel on a `d`-level qudit.
    pub fn identity(d: usize) -> Self {
        Self { name: "id".into(), dims: vec![d], operators: vec![CMatrix::identity(d)], tol: 1e-8 }
    }

    /// Qudit depolarising channel: with probability `p` a uniformly random
    /// non-identity Weyl operator `X^a Z^b` is applied.
    ///
    /// # Errors
    /// Returns an error if `p` is outside `[0, 1]`.
    pub fn depolarizing(d: usize, p: f64) -> Result<Self> {
        check_probability(p)?;
        let mut operators = vec![CMatrix::identity(d).scaled_real((1.0 - p).sqrt())];
        let weight = (p / ((d * d - 1) as f64)).sqrt();
        for a in 0..d {
            for b in 0..d {
                if a == 0 && b == 0 {
                    continue;
                }
                operators.push(gates::weyl(d, a, b).scaled_real(weight));
            }
        }
        Self::new(format!("depol({p:.2e})"), vec![d], operators)
    }

    /// Qudit dephasing channel: off-diagonal coherences decay by `1 - γ`.
    ///
    /// # Errors
    /// Returns an error if `γ` is outside `[0, 1]`.
    pub fn dephasing(d: usize, gamma: f64) -> Result<Self> {
        check_probability(gamma)?;
        let mut operators = vec![CMatrix::identity(d).scaled_real((1.0 - gamma).sqrt())];
        for n in 0..d {
            operators.push(gates::projector(d, n).scaled_real(gamma.sqrt()));
        }
        Self::new(format!("dephase({gamma:.2e})"), vec![d], operators)
    }

    /// Bosonic photon-loss (qudit amplitude-damping) channel with
    /// single-photon loss probability `γ` over the time step.
    ///
    /// Kraus operators `K_k = Σ_n √(C(n,k) (1-γ)^{n-k} γ^k) |n-k⟩⟨n|`,
    /// the exact finite-time solution of the lossy-cavity master equation.
    ///
    /// # Errors
    /// Returns an error if `γ` is outside `[0, 1]`.
    pub fn photon_loss(d: usize, gamma: f64) -> Result<Self> {
        check_probability(gamma)?;
        let mut operators = Vec::with_capacity(d);
        for k in 0..d {
            let mut op = CMatrix::zeros(d, d);
            for n in k..d {
                let coeff =
                    (binomial(n, k) * (1.0 - gamma).powi((n - k) as i32) * gamma.powi(k as i32))
                        .sqrt();
                op[(n - k, n)] = c64(coeff, 0.0);
            }
            operators.push(op);
        }
        Self::new(format!("loss({gamma:.2e})"), vec![d], operators)
    }

    /// Thermal excitation channel: with probability `p_up`, one excitation is
    /// added (truncated at the top level). Models residual thermal photons.
    ///
    /// # Errors
    /// Returns an error if `p_up` is outside `[0, 1]`.
    pub fn thermal_excitation(d: usize, p_up: f64) -> Result<Self> {
        check_probability(p_up)?;
        // K1 raises each level with amplitude sqrt(p_up) (top level saturates).
        let mut k1 = CMatrix::zeros(d, d);
        for n in 0..d - 1 {
            k1[(n + 1, n)] = c64(p_up.sqrt(), 0.0);
        }
        // K0 chosen diagonally so that K0†K0 + K1†K1 = I.
        let mut k0 = CMatrix::zeros(d, d);
        for n in 0..d {
            let leak = if n < d - 1 { p_up } else { 0.0 };
            k0[(n, n)] = c64((1.0 - leak).sqrt(), 0.0);
        }
        Self::new(format!("thermal({p_up:.2e})"), vec![d], vec![k0, k1])
    }

    /// Two-qudit depolarising channel built from tensor products of Weyl
    /// operators; the standard error model attached to entangling gates.
    ///
    /// # Errors
    /// Returns an error if `p` is outside `[0, 1]`.
    pub fn two_qudit_depolarizing(d1: usize, d2: usize, p: f64) -> Result<Self> {
        check_probability(p)?;
        let dim = d1 * d2;
        let n_paulis = (d1 * d1) * (d2 * d2) - 1;
        let mut operators = vec![CMatrix::identity(dim).scaled_real((1.0 - p).sqrt())];
        let weight = (p / n_paulis as f64).sqrt();
        for a1 in 0..d1 {
            for b1 in 0..d1 {
                for a2 in 0..d2 {
                    for b2 in 0..d2 {
                        if a1 == 0 && b1 == 0 && a2 == 0 && b2 == 0 {
                            continue;
                        }
                        let op = gates::weyl(d1, a1, b1).kron(&gates::weyl(d2, a2, b2));
                        operators.push(op.scaled_real(weight));
                    }
                }
            }
        }
        Self::new(format!("depol2({p:.2e})"), vec![d1, d2], operators)
    }

    /// Channel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dimensions of the qudits the channel acts on.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The Kraus operators.
    pub fn operators(&self) -> &[CMatrix] {
        &self.operators
    }

    /// Completeness-relation tolerance the channel was validated against at
    /// construction (see [`KrausChannel::new_with_tolerance`]).
    pub fn tolerance(&self) -> f64 {
        self.tol
    }

    /// Checks the completeness relation `Σ K†K = I` within `tol`.
    pub fn is_trace_preserving(&self, tol: f64) -> bool {
        let total: usize = self.dims.iter().product();
        let mut acc = CMatrix::zeros(total, total);
        for k in &self.operators {
            let kk = k.dagger().matmul(k).expect("square");
            acc += &kk;
        }
        (&acc - &CMatrix::identity(total)).max_abs() <= tol
    }
}

/// Rejects a probability outside `[0, 1]` (NaN included) with
/// [`CircuitError::InvalidChannel`].
pub(crate) fn check_probability(p: f64) -> Result<()> {
    if !(0.0..=1.0).contains(&p) {
        return Err(CircuitError::InvalidChannel(format!("probability {p} outside [0, 1]")));
    }
    Ok(())
}

fn binomial(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let mut acc = 1.0;
    for i in 0..k {
        acc *= (n - i) as f64 / (i + 1) as f64;
    }
    acc
}

/// The family of single-qudit error channels a [`NoiseModel`] can attach to
/// gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NoiseKind {
    /// Weyl-operator depolarising noise.
    Depolarizing,
    /// Computational-basis dephasing.
    Dephasing,
    /// Bosonic photon loss (amplitude damping).
    PhotonLoss,
}

impl NoiseKind {
    /// Builds the corresponding single-qudit channel.
    ///
    /// # Errors
    /// Returns an error for invalid strengths.
    pub fn channel(self, d: usize, strength: f64) -> Result<KrausChannel> {
        match self {
            NoiseKind::Depolarizing => KrausChannel::depolarizing(d, strength),
            NoiseKind::Dephasing => KrausChannel::dephasing(d, strength),
            NoiseKind::PhotonLoss => KrausChannel::photon_loss(d, strength),
        }
    }
}

/// A circuit-level noise model: error channels attached to every gate
/// according to its arity, plus optional readout error.
///
/// This is the abstraction the encoding-comparison and NDAR experiments sweep
/// over; the `cavity-sim` crate provides the device-calibrated construction
/// from coherence times and gate durations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    /// Error applied to each qudit touched by a single-qudit gate.
    pub single_qudit: Option<(NoiseKind, f64)>,
    /// Error applied to each qudit touched by a multi-qudit gate.
    pub two_qudit: Option<(NoiseKind, f64)>,
    /// Probability that a measured digit is replaced by a uniformly random
    /// other level (readout error).
    pub readout_flip: f64,
    /// Idle error strength applied per circuit layer to every qudit
    /// (photon-loss kind); 0 disables idle noise.
    pub idle_photon_loss: f64,
}

impl NoiseModel {
    /// The noiseless model.
    pub fn noiseless() -> Self {
        Self { single_qudit: None, two_qudit: None, readout_flip: 0.0, idle_photon_loss: 0.0 }
    }

    /// Uniform depolarising noise with the given 1- and 2-qudit strengths.
    pub fn depolarizing(p1: f64, p2: f64) -> Self {
        Self {
            single_qudit: Some((NoiseKind::Depolarizing, p1)),
            two_qudit: Some((NoiseKind::Depolarizing, p2)),
            readout_flip: 0.0,
            idle_photon_loss: 0.0,
        }
    }

    /// Cavity-style noise: photon loss after every gate plus dephasing-like
    /// two-qudit error.
    pub fn cavity(loss_1q: f64, loss_2q: f64, idle_loss: f64) -> Self {
        Self {
            single_qudit: Some((NoiseKind::PhotonLoss, loss_1q)),
            two_qudit: Some((NoiseKind::PhotonLoss, loss_2q)),
            readout_flip: 0.0,
            idle_photon_loss: idle_loss,
        }
    }

    /// Returns `true` if no error channel is configured anywhere.
    pub fn is_noiseless(&self) -> bool {
        self.single_qudit.is_none()
            && self.two_qudit.is_none()
            && self.readout_flip == 0.0
            && self.idle_photon_loss == 0.0
    }

    /// Builder: sets the readout flip probability. A value outside
    /// `[0, 1]` (or NaN) is rejected when a simulator compiles or samples a
    /// circuit under this model.
    #[must_use]
    pub fn with_readout_flip(mut self, p: f64) -> Self {
        self.readout_flip = p;
        self
    }

    /// The single-qudit channels to apply to each target after a gate of the
    /// given arity, as `(channel, qudit index)` pairs.
    ///
    /// # Errors
    /// Returns an error for invalid channel strengths.
    pub fn channels_after_gate(
        &self,
        targets: &[usize],
        dims: &[usize],
    ) -> Result<Vec<(KrausChannel, usize)>> {
        let spec = if targets.len() >= 2 { self.two_qudit } else { self.single_qudit };
        let Some((kind, strength)) = spec else {
            return Ok(Vec::new());
        };
        if strength == 0.0 {
            return Ok(Vec::new());
        }
        let mut out = Vec::with_capacity(targets.len());
        for &t in targets {
            out.push((kind.channel(dims[t], strength)?, t));
        }
        Ok(out)
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        Self::noiseless()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_core::density::DensityMatrix;
    use qudit_core::state::QuditState;

    #[test]
    fn all_standard_channels_are_trace_preserving() {
        for d in [2, 3, 5] {
            assert!(KrausChannel::depolarizing(d, 0.2).unwrap().is_trace_preserving(1e-9));
            assert!(KrausChannel::dephasing(d, 0.3).unwrap().is_trace_preserving(1e-9));
            assert!(KrausChannel::photon_loss(d, 0.15).unwrap().is_trace_preserving(1e-9));
            assert!(KrausChannel::thermal_excitation(d, 0.05).unwrap().is_trace_preserving(1e-9));
        }
        assert!(KrausChannel::two_qudit_depolarizing(3, 3, 0.1).unwrap().is_trace_preserving(1e-9));
    }

    #[test]
    fn rejects_invalid_probabilities() {
        assert!(KrausChannel::depolarizing(3, 1.5).is_err());
        assert!(KrausChannel::photon_loss(3, -0.1).is_err());
    }

    #[test]
    fn rejects_non_trace_preserving_kraus_set() {
        let ops = vec![CMatrix::identity(2).scaled_real(0.5)];
        assert!(KrausChannel::new("bad", vec![2], ops).is_err());
    }

    #[test]
    fn depolarizing_drives_towards_maximally_mixed() {
        let ch = KrausChannel::depolarizing(3, 1.0).unwrap();
        let mut rho = DensityMatrix::zero(vec![3]).unwrap();
        rho.apply_kraus(ch.operators(), &[0]).unwrap();
        // Full-strength depolarising leaves 1/d^2 of the original plus uniform mix;
        // for p = 1 the diagonal should be close to uniform.
        let probs = rho.probabilities();
        for p in probs {
            assert!((p - 1.0 / 3.0).abs() < 0.34);
        }
        assert!((rho.trace() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn photon_loss_reduces_mean_photon_number() {
        let d = 6;
        let gamma = 0.25;
        let ch = KrausChannel::photon_loss(d, gamma).unwrap();
        let fock4 = QuditState::basis(vec![d], &[4]).unwrap();
        let mut rho = DensityMatrix::from_pure(&fock4);
        rho.apply_kraus(ch.operators(), &[0]).unwrap();
        let n_op = gates::number_operator(d);
        let n_avg = rho.expectation(&n_op, &[0]).unwrap().re;
        // ⟨n⟩ decays exactly to n(1-γ) under the exact loss channel.
        assert!((n_avg - 4.0 * (1.0 - gamma)).abs() < 1e-9);
    }

    #[test]
    fn dephasing_damps_coherences_but_not_populations() {
        let d = 3;
        let ch = KrausChannel::dephasing(d, 0.4).unwrap();
        let plus = QuditState::uniform_superposition(vec![d]).unwrap();
        let mut rho = DensityMatrix::from_pure(&plus);
        let pops_before = rho.probabilities();
        rho.apply_kraus(ch.operators(), &[0]).unwrap();
        let pops_after = rho.probabilities();
        for (a, b) in pops_before.iter().zip(pops_after.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
        assert!((rho.matrix()[(0, 1)].abs() - (1.0 - 0.4) / 3.0).abs() < 1e-10);
    }

    #[test]
    fn thermal_excitation_raises_population() {
        let d = 4;
        let ch = KrausChannel::thermal_excitation(d, 0.2).unwrap();
        let mut rho = DensityMatrix::zero(vec![d]).unwrap();
        rho.apply_kraus(ch.operators(), &[0]).unwrap();
        let probs = rho.probabilities();
        assert!((probs[1] - 0.2).abs() < 1e-10);
        assert!((probs[0] - 0.8).abs() < 1e-10);
    }

    #[test]
    fn noise_model_attaches_channels_by_arity() {
        let nm = NoiseModel::depolarizing(1e-3, 1e-2);
        let dims = vec![3, 3, 3];
        let one = nm.channels_after_gate(&[1], &dims).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].1, 1);
        let two = nm.channels_after_gate(&[0, 2], &dims).unwrap();
        assert_eq!(two.len(), 2);
        assert!(NoiseModel::noiseless().channels_after_gate(&[0], &dims).unwrap().is_empty());
    }

    #[test]
    fn noise_model_flags() {
        assert!(NoiseModel::noiseless().is_noiseless());
        assert!(!NoiseModel::depolarizing(0.01, 0.02).is_noiseless());
        let nm = NoiseModel::noiseless().with_readout_flip(0.01);
        assert!(!nm.is_noiseless());
    }
}
