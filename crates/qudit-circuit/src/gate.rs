//! The [`Gate`] type: a named unitary with explicit per-qudit dimensions,
//! optionally carrying a symbolic parameter (see [`Param`]).

use qudit_core::apply::OpKind;
use qudit_core::complex::{c64, Complex64};
use qudit_core::linalg::{eigh, expm_hermitian, HermitianEig};
use qudit_core::matrix::CMatrix;

use crate::error::{CircuitError, Result};
use crate::gates;

/// A symbolic gate parameter: either a concrete value or a reference into a
/// parameter vector supplied later (at [`Gate::bound`] /
/// [`crate::Circuit::with_bound`] / `CompiledCircuit::bind` time).
///
/// Parameterized gates realize their matrix as `exp(-i θ G)` from a fixed
/// Hermitian generator `G` (see [`Gate::parameterized`]); only the angle `θ`
/// is symbolic, so the circuit *structure* — targets, fusion decisions,
/// stride plans — is independent of the binding and a compiled plan can be
/// rebound in place.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Param {
    /// A concrete angle.
    Bound(f64),
    /// The angle at this index of the parameter vector.
    Free(usize),
}

impl Param {
    /// The parameter-vector index for a free parameter, `None` when bound.
    pub fn free_index(&self) -> Option<usize> {
        match self {
            Param::Free(idx) => Some(*idx),
            Param::Bound(_) => None,
        }
    }

    /// Resolves the angle under `params`.
    ///
    /// # Errors
    /// Returns an error if a free index is out of range.
    pub fn resolve(&self, params: &[f64]) -> Result<f64> {
        match self {
            Param::Bound(v) => Ok(*v),
            Param::Free(idx) => params.get(*idx).copied().ok_or_else(|| {
                CircuitError::InvalidGate(format!(
                    "free parameter {idx} out of range for a binding of length {}",
                    params.len()
                ))
            }),
        }
    }
}

/// The spectral form of a parameterized gate's generator, precomputed once so
/// every realization `exp(-i θ G) = V diag(e^{-i θ λ}) V†` costs two small
/// matrix products (or `O(d)` when the generator is diagonal) instead of an
/// eigendecomposition.
#[derive(Debug, Clone, PartialEq)]
struct GateForm {
    spectrum: Spectrum,
    /// The symbolic angle.
    param: Param,
}

/// Generator spectrum of a [`GateForm`].
#[derive(Debug, Clone)]
enum Spectrum {
    /// Diagonal generator: the diagonal entries in their original order (not
    /// sorted), so realization preserves the per-level structure exactly.
    Diagonal(Vec<f64>),
    /// General Hermitian generator, diagonalised once at construction.
    Dense(HermitianEig),
}

impl PartialEq for Spectrum {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Spectrum::Diagonal(a), Spectrum::Diagonal(b)) => a == b,
            (Spectrum::Dense(a), Spectrum::Dense(b)) => {
                a.values == b.values && a.vectors == b.vectors
            }
            _ => false,
        }
    }
}

impl GateForm {
    /// Materializes `exp(-i θ G)` at the given angle, allocation-lean: this
    /// runs on every plan rebind. For the dense case it is exactly the
    /// [`expm_hermitian`] computation with the eigendecomposition amortised
    /// away, so a gate realized here is bitwise identical to one built by
    /// [`Gate::from_generator`] at the same angle.
    fn realize(&self, theta: f64) -> CMatrix {
        // Both arms evaluate the per-eigenvalue phase with the exact
        // expression `expm_hermitian` uses, so realized matrices are bitwise
        // reproducible across realizations and construction paths.
        let phase = |l: f64| (c64(0.0, -theta) * l).exp();
        match &self.spectrum {
            Spectrum::Diagonal(eigvals) => {
                CMatrix::diag(&eigvals.iter().map(|&l| phase(l)).collect::<Vec<_>>())
            }
            Spectrum::Dense(eig) => eig.apply_function(phase),
        }
    }

    /// The spectrum with every eigenvalue negated (`G → -G`), for daggering.
    fn negated(&self) -> Spectrum {
        match &self.spectrum {
            Spectrum::Diagonal(eigvals) => Spectrum::Diagonal(eigvals.iter().map(|l| -l).collect()),
            Spectrum::Dense(eig) => Spectrum::Dense(HermitianEig {
                values: eig.values.iter().map(|l| -l).collect(),
                vectors: eig.vectors.clone(),
            }),
        }
    }
}

/// A gate: a unitary operator together with the dimensions of the qudits it
/// acts on and a human-readable name.
///
/// The matrix is indexed with the **first** acted-on qudit as the most
/// significant digit, matching the order of the `targets` slice passed to
/// [`crate::Circuit::push`].
///
/// A gate may additionally carry a symbolic parameter ([`Param`]) with a
/// generator-based realization; see [`Gate::parameterized`].
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    name: String,
    dims: Vec<usize>,
    matrix: CMatrix,
    /// Present for parameterized gates: the generator's spectral form.
    form: Option<GateForm>,
}

impl Gate {
    /// Creates a gate from an explicit matrix.
    ///
    /// # Errors
    /// Returns an error if the matrix is not square, its dimension does not
    /// equal the product of `dims`, or it is not unitary to `1e-8`.
    pub fn custom(name: impl Into<String>, dims: Vec<usize>, matrix: CMatrix) -> Result<Self> {
        let total: usize = dims.iter().product();
        if !matrix.is_square() || matrix.rows() != total {
            return Err(CircuitError::InvalidGate(format!(
                "matrix is {}x{} but dims {:?} require {total}x{total}",
                matrix.rows(),
                matrix.cols(),
                dims
            )));
        }
        if !matrix.is_unitary(1e-8) {
            return Err(CircuitError::InvalidGate("matrix is not unitary".into()));
        }
        Ok(Self { name: name.into(), dims, matrix, form: None })
    }

    /// Creates the gate `exp(-i H t)` from a Hermitian generator.
    ///
    /// # Errors
    /// Returns an error if the generator is not Hermitian or has the wrong
    /// dimension.
    pub fn from_generator(
        name: impl Into<String>,
        dims: Vec<usize>,
        h: &CMatrix,
        t: f64,
    ) -> Result<Self> {
        let total: usize = dims.iter().product();
        if h.rows() != total || !h.is_square() {
            return Err(CircuitError::InvalidGate(format!(
                "generator is {}x{} but dims {:?} require {total}x{total}",
                h.rows(),
                h.cols(),
                dims
            )));
        }
        if !h.is_hermitian(1e-8) {
            return Err(CircuitError::InvalidGate("generator is not Hermitian".into()));
        }
        let u = expm_hermitian(h, c64(0.0, -t))
            .map_err(|e| CircuitError::InvalidGate(e.to_string()))?;
        Ok(Self { name: name.into(), dims, matrix: u, form: None })
    }

    /// Creates a **parameterized** gate `exp(-i θ G)` from a Hermitian
    /// generator `G`, where the angle `θ` is symbolic (see [`Param`]).
    ///
    /// The generator's eigendecomposition is computed once here; every later
    /// realization — [`Gate::bound`], [`crate::Circuit::with_bound`], or an
    /// in-place `CompiledCircuit::bind` — reuses it, so rebinding a circuit
    /// never re-diagonalises. A gate with `Param::Bound(t)` is bitwise
    /// identical to [`Gate::from_generator`] at `t`; a gate with
    /// `Param::Free(i)` stores the matrix realized at `θ = 0` (the identity)
    /// until it is bound.
    ///
    /// # Errors
    /// Returns an error if the generator is not Hermitian, has the wrong
    /// dimension, or fails to diagonalise.
    pub fn parameterized(
        name: impl Into<String>,
        dims: Vec<usize>,
        generator: &CMatrix,
        param: Param,
    ) -> Result<Self> {
        let total: usize = dims.iter().product();
        if generator.rows() != total || !generator.is_square() {
            return Err(CircuitError::InvalidGate(format!(
                "generator is {}x{} but dims {:?} require {total}x{total}",
                generator.rows(),
                generator.cols(),
                dims
            )));
        }
        if !generator.is_hermitian(1e-8) {
            return Err(CircuitError::InvalidGate("generator is not Hermitian".into()));
        }
        // Diagonal generators skip the eigensolver and keep their per-level
        // order, so realized matrices are exactly diagonal at every angle
        // (and classify as such in the simulators' fast paths).
        let form = if matches!(OpKind::classify(generator), OpKind::Diagonal(_)) {
            GateForm {
                spectrum: Spectrum::Diagonal((0..total).map(|i| generator.get(i, i).re).collect()),
                param,
            }
        } else {
            let eig = eigh(generator).map_err(|e| CircuitError::InvalidGate(e.to_string()))?;
            GateForm { spectrum: Spectrum::Dense(eig), param }
        };
        let matrix = match param {
            Param::Bound(t) => form.realize(t),
            Param::Free(_) => form.realize(0.0),
        };
        Ok(Self { name: name.into(), dims, matrix, form: Some(form) })
    }

    // ----- single-qudit constructors -----

    /// Identity gate on a `d`-level qudit.
    pub fn identity(d: usize) -> Self {
        Self { name: format!("I{d}"), dims: vec![d], matrix: gates::identity(d), form: None }
    }

    /// Generalised Pauli-X (cyclic shift).
    pub fn shift_x(d: usize) -> Self {
        Self { name: format!("X{d}"), dims: vec![d], matrix: gates::shift_x(d), form: None }
    }

    /// Generalised Pauli-Z (clock).
    pub fn clock_z(d: usize) -> Self {
        Self { name: format!("Z{d}"), dims: vec![d], matrix: gates::clock_z(d), form: None }
    }

    /// Weyl operator `X^a Z^b`.
    pub fn weyl(d: usize, a: usize, b: usize) -> Self {
        Self {
            name: format!("W{d}({a},{b})"),
            dims: vec![d],
            matrix: gates::weyl(d, a, b),
            form: None,
        }
    }

    /// Discrete Fourier transform (qudit Hadamard).
    pub fn fourier(d: usize) -> Self {
        Self { name: format!("F{d}"), dims: vec![d], matrix: gates::fourier(d), form: None }
    }

    /// SNAP gate with the given per-level phases.
    pub fn snap(d: usize, phases: &[f64]) -> Self {
        Self { name: format!("SNAP{d}"), dims: vec![d], matrix: gates::snap(d, phases), form: None }
    }

    /// Truncated displacement gate `D(α)`.
    pub fn displacement(d: usize, alpha: Complex64) -> Self {
        Self {
            name: format!("D({:.3}{:+.3}i)", alpha.re, alpha.im),
            dims: vec![d],
            matrix: gates::displacement(d, alpha),
            form: None,
        }
    }

    /// Rotation in the `{|j⟩, |k⟩}` subspace.
    pub fn rot_subspace(d: usize, j: usize, k: usize, theta: f64, phi: f64) -> Self {
        Self {
            name: format!("R{j}{k}({theta:.3},{phi:.3})"),
            dims: vec![d],
            matrix: gates::rot_subspace(d, j, k, theta, phi),
            form: None,
        }
    }

    /// Phase on a single level.
    pub fn phase_on_level(d: usize, level: usize, theta: f64) -> Self {
        Self {
            name: format!("P{level}({theta:.3})"),
            dims: vec![d],
            matrix: gates::phase_on_level(d, level, theta),
            form: None,
        }
    }

    /// QAOA nearest-level mixer `exp(-iβ Σ|k⟩⟨k+1| + h.c.)`.
    pub fn x_mixer(d: usize, beta: f64) -> Self {
        Self {
            name: format!("Mix({beta:.3})"),
            dims: vec![d],
            matrix: gates::x_mixer(d, beta),
            form: None,
        }
    }

    /// QAOA fully-connected mixer.
    pub fn full_mixer(d: usize, beta: f64) -> Self {
        Self {
            name: format!("FullMix({beta:.3})"),
            dims: vec![d],
            matrix: gates::full_mixer(d, beta),
            form: None,
        }
    }

    /// Diagonal phase gate `exp(-iγ diag(w))`.
    pub fn diagonal_phase(weights: &[f64], gamma: f64) -> Self {
        Self {
            name: format!("Diag({gamma:.3})"),
            dims: vec![weights.len()],
            matrix: gates::diagonal_phase(weights, gamma),
            form: None,
        }
    }

    // ----- two-qudit constructors -----

    /// CSUM gate `|a⟩|b⟩ ↦ |a⟩|(b+a) mod d_t⟩` (control first).
    pub fn csum(d_control: usize, d_target: usize) -> Self {
        Self {
            name: format!("CSUM{d_control},{d_target}"),
            dims: vec![d_control, d_target],
            matrix: gates::csum(d_control, d_target),
            form: None,
        }
    }

    /// Inverse CSUM.
    pub fn csum_inverse(d_control: usize, d_target: usize) -> Self {
        Self {
            name: format!("CSUM†{d_control},{d_target}"),
            dims: vec![d_control, d_target],
            matrix: gates::csum_inverse(d_control, d_target),
            form: None,
        }
    }

    /// Controlled-phase gate `CZ_d`.
    pub fn cphase(d_control: usize, d_target: usize) -> Self {
        Self {
            name: format!("CZ{d_control},{d_target}"),
            dims: vec![d_control, d_target],
            matrix: gates::cphase(d_control, d_target),
            form: None,
        }
    }

    /// Weighted controlled phase `exp(-iγ a·b)`.
    pub fn cphase_weighted(d_control: usize, d_target: usize, gamma: f64) -> Self {
        Self {
            name: format!("CZZ({gamma:.3})"),
            dims: vec![d_control, d_target],
            matrix: gates::cphase_weighted(d_control, d_target, gamma),
            form: None,
        }
    }

    /// SWAP of two `d`-level qudits.
    pub fn swap(d: usize) -> Self {
        Self { name: format!("SWAP{d}"), dims: vec![d, d], matrix: gates::swap(d), form: None }
    }

    /// Beam-splitter interaction between two `d`-level bosonic modes.
    pub fn beam_splitter(d: usize, theta: f64, phi: f64) -> Self {
        Self {
            name: format!("BS({theta:.3},{phi:.3})"),
            dims: vec![d, d],
            matrix: gates::beam_splitter(d, theta, phi),
            form: None,
        }
    }

    /// Cross-Kerr interaction `exp(-iχt n̂⊗n̂)`.
    pub fn cross_kerr(d1: usize, d2: usize, chi_t: f64) -> Self {
        Self {
            name: format!("XKerr({chi_t:.3})"),
            dims: vec![d1, d2],
            matrix: gates::cross_kerr(d1, d2, chi_t),
            form: None,
        }
    }

    /// Controlled unitary triggered on a specific control level.
    pub fn controlled_on_level(d_control: usize, trigger: usize, u: &Gate) -> Self {
        let d_t = u.matrix.rows();
        let name = format!("C[{trigger}]{}", u.name);
        // A parameterized inner gate stays parameterized:
        // `C[t] exp(-iθG) = exp(-iθ · |t⟩⟨t| ⊗ G)`, so the controlled gate
        // carries the same symbolic angle instead of silently freezing the
        // inner gate at its current matrix. The controlled generator's
        // spectrum is derived directly from the inner gate's — the inner
        // eigenvalues in the trigger block, zeros elsewhere, eigenvectors
        // block-embedded into the identity — so no re-diagonalisation (and
        // no convergence/Hermiticity failure path) is involved.
        if let (Some(form), true) = (&u.form, trigger < d_control) {
            let dim = d_control * d_t;
            let block = trigger * d_t;
            let spectrum = match &form.spectrum {
                Spectrum::Diagonal(inner) => {
                    let mut eigvals = vec![0.0; dim];
                    eigvals[block..block + d_t].copy_from_slice(inner);
                    Spectrum::Diagonal(eigvals)
                }
                Spectrum::Dense(eig) => {
                    let mut values = vec![0.0; dim];
                    values[block..block + d_t].copy_from_slice(&eig.values);
                    let mut vectors = CMatrix::identity(dim);
                    for i in 0..d_t {
                        for j in 0..d_t {
                            vectors[(block + i, block + j)] = eig.vectors.get(i, j);
                        }
                    }
                    Spectrum::Dense(HermitianEig { values, vectors })
                }
            };
            let controlled_form = GateForm { spectrum, param: form.param };
            let matrix = match form.param {
                Param::Bound(t) => controlled_form.realize(t),
                Param::Free(_) => controlled_form.realize(0.0),
            };
            return Self { name, dims: vec![d_control, d_t], matrix, form: Some(controlled_form) };
        }
        Self {
            name,
            dims: vec![d_control, d_t],
            matrix: gates::controlled_on_level(d_control, trigger, &u.matrix),
            form: None,
        }
    }

    // ----- accessors -----

    /// Gate name (for reports and debugging).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dimensions of the qudits this gate acts on, in target order.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of qudits the gate acts on.
    pub fn num_qudits(&self) -> usize {
        self.dims.len()
    }

    /// The unitary matrix. For a gate with a free parameter this is the
    /// matrix realized at `θ = 0` (the identity); use [`Gate::bound_matrix`]
    /// or [`Gate::bound`] to realize it at a concrete binding.
    pub fn matrix(&self) -> &CMatrix {
        &self.matrix
    }

    /// The gate's symbolic parameter, if it is parameterized.
    pub fn param(&self) -> Option<Param> {
        self.form.as_ref().map(|f| f.param)
    }

    /// The parameter-vector index this gate reads, if it carries a free
    /// parameter.
    pub fn free_param(&self) -> Option<usize> {
        self.form.as_ref().and_then(|f| f.param.free_index())
    }

    /// `true` if the gate's generator is diagonal, in which case the realized
    /// matrix is diagonal at **every** binding. Always `false` for
    /// non-parameterized gates (whose structure is read off their matrix
    /// directly). Used by the compilers' parameter-independent cost models.
    pub fn has_diagonal_generator(&self) -> bool {
        self.form.as_ref().is_some_and(|f| matches!(f.spectrum, Spectrum::Diagonal(_)))
    }

    /// The matrix under a parameter binding: a free parameter is realized at
    /// `params[index]`; bound and non-parameterized gates return their stored
    /// matrix. Realizing the same binding twice is bitwise reproducible.
    ///
    /// # Errors
    /// Returns an error if the gate's free index is out of range for
    /// `params`.
    pub fn bound_matrix(&self, params: &[f64]) -> Result<CMatrix> {
        match &self.form {
            Some(form) if form.param.free_index().is_some() => {
                Ok(form.realize(form.param.resolve(params)?))
            }
            _ => Ok(self.matrix.clone()),
        }
    }

    /// Returns the gate with its free parameter (if any) bound to the value
    /// `params` supplies; bound and non-parameterized gates are returned
    /// unchanged. The result keeps its spectral form, so it can be inspected
    /// or re-used, but carries no free parameters.
    ///
    /// # Errors
    /// Returns an error if the gate's free index is out of range for
    /// `params`.
    pub fn bound(&self, params: &[f64]) -> Result<Gate> {
        let Some(form) = &self.form else {
            return Ok(self.clone());
        };
        let Some(_) = form.param.free_index() else {
            return Ok(self.clone());
        };
        let theta = form.param.resolve(params)?;
        let mut bound_form = form.clone();
        bound_form.param = Param::Bound(theta);
        let matrix = bound_form.realize(theta);
        Ok(Gate {
            name: self.name.clone(),
            dims: self.dims.clone(),
            matrix,
            form: Some(bound_form),
        })
    }

    /// The inverse (adjoint) gate. A parameterized gate stays parameterized:
    /// `exp(-i θ G)† = exp(-i θ (-G))`, so the form's eigenvalues are
    /// negated and the same symbolic angle is kept.
    pub fn dagger(&self) -> Gate {
        let form = self.form.as_ref().map(|f| GateForm { spectrum: f.negated(), param: f.param });
        Gate {
            name: format!("{}†", self.name),
            dims: self.dims.clone(),
            matrix: self.matrix.dagger(),
            form,
        }
    }

    /// Returns `true` if the matrix is unitary to the given tolerance.
    pub fn is_unitary(&self, tol: f64) -> bool {
        self.matrix.is_unitary(tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_core::matrix::CMatrix;

    #[test]
    fn custom_gate_validation() {
        let ok = Gate::custom("id", vec![2, 2], CMatrix::identity(4));
        assert!(ok.is_ok());
        let wrong_dim = Gate::custom("id", vec![2, 2], CMatrix::identity(3));
        assert!(wrong_dim.is_err());
        let not_unitary = Gate::custom("bad", vec![2], CMatrix::zeros(2, 2));
        assert!(not_unitary.is_err());
    }

    #[test]
    fn from_generator_builds_unitary() {
        let h = gates::number_operator(4);
        let g = Gate::from_generator("exp", vec![4], &h, 0.3).unwrap();
        assert!(g.is_unitary(1e-10));
        assert!((g.matrix()[(2, 2)] - Complex64::cis(-0.6)).abs() < 1e-10);
    }

    #[test]
    fn from_generator_rejects_non_hermitian() {
        let m = gates::annihilation(3);
        assert!(Gate::from_generator("bad", vec![3], &m, 1.0).is_err());
    }

    #[test]
    fn dagger_inverts_gate() {
        let g = Gate::fourier(5);
        let prod = g.matrix().matmul(g.dagger().matrix()).unwrap();
        assert!((&prod - &CMatrix::identity(5)).max_abs() < 1e-10);
        assert!(g.dagger().name().contains('†'));
    }

    #[test]
    fn constructors_set_dims() {
        assert_eq!(Gate::csum(3, 4).dims(), &[3, 4]);
        assert_eq!(Gate::csum(3, 4).num_qudits(), 2);
        assert_eq!(Gate::snap(6, &[0.1; 6]).dims(), &[6]);
        assert_eq!(Gate::beam_splitter(5, 0.3, 0.0).dims(), &[5, 5]);
    }

    #[test]
    fn all_standard_gates_are_unitary() {
        let tol = 1e-9;
        for d in [2, 3, 5] {
            assert!(Gate::shift_x(d).is_unitary(tol));
            assert!(Gate::clock_z(d).is_unitary(tol));
            assert!(Gate::fourier(d).is_unitary(tol));
            assert!(Gate::x_mixer(d, 0.7).is_unitary(tol));
            assert!(Gate::full_mixer(d, 0.7).is_unitary(tol));
            assert!(Gate::csum(d, d).is_unitary(tol));
            assert!(Gate::cphase(d, d).is_unitary(tol));
            assert!(Gate::swap(d).is_unitary(tol));
            assert!(Gate::displacement(d, c64(0.3, 0.1)).is_unitary(tol));
        }
    }

    #[test]
    fn parameterized_bound_matches_from_generator_bitwise() {
        // Dense generator (the QAOA ring mixer Hamiltonian).
        let mut h = CMatrix::zeros(4, 4);
        for k in 0..3 {
            h[(k, k + 1)] = Complex64::ONE;
            h[(k + 1, k)] = Complex64::ONE;
        }
        for t in [0.0, 0.37, -1.2] {
            let p = Gate::parameterized("mix", vec![4], &h, Param::Bound(t)).unwrap();
            let g = Gate::from_generator("mix", vec![4], &h, t).unwrap();
            assert_eq!(p.matrix().as_slice(), g.matrix().as_slice(), "t = {t}");
        }
    }

    #[test]
    fn free_parameter_realizes_identity_until_bound() {
        let h = gates::number_operator(3);
        let g = Gate::parameterized("phase", vec![3], &h, Param::Free(2)).unwrap();
        assert!(g.form.is_some());
        assert!(g.has_diagonal_generator());
        assert_eq!(g.free_param(), Some(2));
        assert!((g.matrix() - &CMatrix::identity(3)).max_abs() < 1e-15);
        // Binding realizes at params[2] and clears the free index.
        let params = [0.0, 0.0, 0.8];
        let bound = g.bound(&params).unwrap();
        assert_eq!(bound.free_param(), None);
        assert_eq!(bound.param(), Some(Param::Bound(0.8)));
        assert!((bound.matrix()[(2, 2)] - Complex64::cis(-1.6)).abs() < 1e-12);
        // bound_matrix realizes without constructing a gate, bitwise equal.
        let m = g.bound_matrix(&params).unwrap();
        assert_eq!(m.as_slice(), bound.matrix().as_slice());
        // Realizing the same binding twice is bitwise reproducible.
        assert_eq!(
            g.bound_matrix(&params).unwrap().as_slice(),
            g.bound_matrix(&params).unwrap().as_slice()
        );
        // Out-of-range bindings are rejected.
        assert!(g.bound(&[0.1]).is_err());
        assert!(g.bound_matrix(&[0.1, 0.2]).is_err());
    }

    #[test]
    fn diagonal_generator_stays_exactly_diagonal_at_every_binding() {
        use qudit_core::apply::OpKind;
        let weights = CMatrix::diag_real(&[0.0, 1.0, 0.0, 2.5]);
        let g = Gate::parameterized("sep", vec![4], &weights, Param::Free(0)).unwrap();
        for theta in [0.0, 0.3, 2.0, -0.7] {
            let m = g.bound_matrix(&[theta]).unwrap();
            assert!(matches!(OpKind::classify(&m), OpKind::Diagonal(_)), "theta = {theta}");
            assert!((m[(1, 1)] - Complex64::cis(-theta)).abs() < 1e-12);
        }
    }

    #[test]
    fn parameterized_dagger_negates_the_generator() {
        let mut h = CMatrix::zeros(3, 3);
        h[(0, 1)] = Complex64::ONE;
        h[(1, 0)] = Complex64::ONE;
        let g = Gate::parameterized("rot", vec![3], &h, Param::Free(0)).unwrap();
        let inv = g.dagger();
        assert_eq!(inv.free_param(), Some(0));
        let theta = 0.63;
        let forward = g.bound_matrix(&[theta]).unwrap();
        let backward = inv.bound_matrix(&[theta]).unwrap();
        let prod = forward.matmul(&backward).unwrap();
        assert!((&prod - &CMatrix::identity(3)).max_abs() < 1e-10);
    }

    #[test]
    fn controlled_on_level_propagates_free_parameters() {
        let h = gates::number_operator(3);
        let inner = Gate::parameterized("phase", vec![3], &h, Param::Free(0)).unwrap();
        let controlled = Gate::controlled_on_level(2, 1, &inner);
        assert_eq!(controlled.free_param(), Some(0), "the symbolic angle must survive");
        assert!(controlled.has_diagonal_generator());
        let theta = 0.9;
        let bound = controlled.bound_matrix(&[theta]).unwrap();
        let expected = gates::controlled_on_level(2, 1, inner.bound(&[theta]).unwrap().matrix());
        assert!((&bound - &expected).max_abs() < 1e-10);
        // Dense inner generators propagate too.
        let dense =
            Gate::parameterized("mix", vec![3], &gates::x_mixer_generator(3), Param::Free(0))
                .unwrap();
        let cdense = Gate::controlled_on_level(2, 0, &dense);
        assert_eq!(cdense.free_param(), Some(0));
        let bound = cdense.bound_matrix(&[theta]).unwrap();
        let expected = gates::controlled_on_level(2, 0, dense.bound(&[theta]).unwrap().matrix());
        assert!((&bound - &expected).max_abs() < 1e-9);
    }

    #[test]
    fn parameterized_rejects_bad_generators() {
        assert!(
            Gate::parameterized("bad", vec![3], &gates::annihilation(3), Param::Free(0)).is_err()
        );
        assert!(Gate::parameterized("bad", vec![2], &CMatrix::identity(3), Param::Free(0)).is_err());
    }
}
