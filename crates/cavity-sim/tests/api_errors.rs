//! Regression tests for the cavity-sim public-API panic audit: every
//! user-reachable degenerate input (zero-dimensional Fock spaces, empty or
//! too-short mode lists, mismatched or non-Hermitian drives, out-of-range
//! register mappings) must return a typed error, never panic. The `expect`s that
//! remain in the crate guard internal invariants that validated constructors
//! make unreachable.

use cavity_sim::device::Device;
use cavity_sim::error::CavityError;
use cavity_sim::fock::{fock_state, thermal_density};
use cavity_sim::lindblad::LindbladSystem;
use cavity_sim::primitives::{Primitive, PrimitiveSchedule};
use qudit_circuit::gates;
use qudit_core::complex::c64;
use qudit_core::density::DensityMatrix;
use qudit_core::error::CoreError;
use qudit_core::matrix::CMatrix;
use qudit_core::state::QuditState;

// --- Fock-space constructors -------------------------------------------------

#[test]
fn thermal_density_rejects_zero_dimensional_fock_space() {
    // Both branches (exact vacuum and finite temperature) must error rather
    // than index into — or silently return — an empty matrix.
    assert!(matches!(thermal_density(0, 0.0), Err(CoreError::InvalidDimension(0))));
    assert!(matches!(thermal_density(0, 0.5), Err(CoreError::InvalidDimension(0))));
}

#[test]
fn thermal_density_rejects_negative_mean_photon_number() {
    assert!(thermal_density(4, -0.1).is_err());
}

#[test]
fn fock_state_rejects_level_outside_truncation() {
    assert!(fock_state(3, 3).is_err());
    assert!(fock_state(3, 2).is_ok());
}

// --- Lindblad integrator -----------------------------------------------------

#[test]
fn lindblad_system_rejects_degenerate_registers() {
    assert!(LindbladSystem::new(vec![0]).is_err());
    assert!(LindbladSystem::new(vec![3, 1]).is_err());
}

#[test]
fn wrong_shape_drive_term_errors_instead_of_panicking() {
    let d = 3;
    let sys = LindbladSystem::new(vec![d]).unwrap();
    let mut rho = DensityMatrix::from_pure(&QuditState::basis(vec![d], &[0]).unwrap());
    // The drive must be a full-space (3x3) term, not 2x2.
    let err = sys.evolve_with_drive(&mut rho, 0.1, 0.01, Some(&CMatrix::zeros(2, 2))).unwrap_err();
    assert!(matches!(err, CavityError::Core(CoreError::ShapeMismatch { .. })), "got {err:?}");
}

#[test]
fn correctly_shaped_drive_term_is_still_accepted() {
    let d = 3;
    let sys = LindbladSystem::new(vec![d]).unwrap();
    let mut rho = DensityMatrix::from_pure(&QuditState::basis(vec![d], &[0]).unwrap());
    let n = gates::number_operator(d);
    sys.evolve_with_drive(&mut rho, 0.1, 0.01, Some(&n)).unwrap();
    rho.validate(1e-9).unwrap();
}

#[test]
fn non_hermitian_drive_is_a_typed_error_and_leaves_rho_unchanged() {
    let d = 3;
    let sys = LindbladSystem::new(vec![d]).unwrap();
    let mut rho = DensityMatrix::from_pure(&QuditState::basis(vec![d], &[1]).unwrap());
    let before = rho.matrix().clone();
    let drive = gates::annihilation(d);
    let err = sys.evolve_with_drive(&mut rho, 0.1, 0.01, Some(&drive)).unwrap_err();
    assert!(matches!(err, CavityError::Core(CoreError::NotStructured(_))), "got {err:?}");
    assert_eq!(rho.matrix(), &before);
}

#[test]
fn drive_hermitian_within_tolerance_is_accepted() {
    // Off by 1e-10 from Hermitian: inside the 1e-8 check the Hamiltonian
    // registration uses too, so the drive runs through its Hermitian part.
    let d = 3;
    let sys = LindbladSystem::new(vec![d]).unwrap();
    let mut rho = DensityMatrix::from_pure(&QuditState::basis(vec![d], &[1]).unwrap());
    let a = gates::annihilation(d);
    let mut drive = &a + &a.dagger();
    drive[(0, 1)] += c64(1e-10, 0.0);
    sys.evolve_with_drive(&mut rho, 0.1, 0.01, Some(&drive)).unwrap();
    rho.validate(1e-9).unwrap();
}

#[test]
fn evolution_rejects_non_positive_timestep() {
    let d = 2;
    let sys = LindbladSystem::new(vec![d]).unwrap();
    let mut rho = DensityMatrix::from_pure(&QuditState::basis(vec![d], &[0]).unwrap());
    assert!(sys.evolve(&mut rho, 1.0, 0.0).is_err());
    assert!(sys.evolve(&mut rho, -1.0, 0.01).is_err());
}

#[test]
fn collapse_operator_rejects_negative_rate() {
    let d = 3;
    let mut sys = LindbladSystem::new(vec![d]).unwrap();
    assert!(sys.add_collapse(&gates::annihilation(d), &[0], -1.0).is_err());
}

#[test]
fn collapse_operator_rejects_non_finite_rates() {
    let d = 3;
    let mut sys = LindbladSystem::new(vec![d]).unwrap();
    for rate in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let err = sys.add_collapse(&gates::annihilation(d), &[0], rate).unwrap_err();
        assert!(matches!(err, CavityError::InvalidParameter(_)), "rate {rate}: got {err:?}");
    }
    // Nothing was added: the generator still evolves ρ unitarily (here, not
    // at all), so a Fock state keeps its populations.
    let mut rho = DensityMatrix::from_pure(&QuditState::basis(vec![d], &[2]).unwrap());
    sys.evolve(&mut rho, 0.5, 0.01).unwrap();
    assert_eq!(rho.matrix()[(2, 2)].re, 1.0);
}

#[test]
fn zero_rate_collapse_still_validates_its_operator_and_targets() {
    let d = 3;
    let mut sys = LindbladSystem::new(vec![d, d]).unwrap();
    // A 2x2 operator on a d = 3 mode is a shape error, even at rate 0.
    let err = sys.add_collapse(&CMatrix::identity(2), &[0], 0.0).unwrap_err();
    assert!(matches!(err, CavityError::Core(CoreError::ShapeMismatch { .. })), "got {err:?}");
    // An out-of-range or repeated target is a subsystem error, even at rate 0.
    let err = sys.add_collapse(&gates::annihilation(d), &[2], 0.0).unwrap_err();
    assert!(
        matches!(err, CavityError::Core(CoreError::InvalidSubsystem { index: 2, count: 2 })),
        "got {err:?}"
    );
    let pair = CMatrix::identity(d * d);
    let err = sys.add_collapse(&pair, &[1, 1], 0.0).unwrap_err();
    assert!(matches!(err, CavityError::Core(CoreError::InvalidArgument(_))), "got {err:?}");
    // A valid operator at rate 0 is accepted and adds nothing.
    sys.add_collapse(&gates::annihilation(d), &[1], 0.0).unwrap();
}

#[test]
fn non_hermitian_full_hamiltonian_is_a_typed_error_and_changes_nothing() {
    let d = 3;
    let mut sys = LindbladSystem::new(vec![d]).unwrap();
    sys.add_full_hamiltonian(&gates::number_operator(d), 1.0).unwrap();
    let before = sys.hamiltonian().clone();
    let err = sys.add_full_hamiltonian(&gates::annihilation(d), 0.5).unwrap_err();
    assert!(matches!(err, CavityError::Core(CoreError::NotStructured(_))), "got {err:?}");
    assert_eq!(sys.hamiltonian(), &before);
    // A wrong-shape term is still a shape error, also leaving H as it was.
    let err = sys.add_full_hamiltonian(&CMatrix::identity(2), 1.0).unwrap_err();
    assert!(matches!(err, CavityError::Core(CoreError::ShapeMismatch { .. })), "got {err:?}");
    assert_eq!(sys.hamiltonian(), &before);
}

// --- Primitive schedules -----------------------------------------------------

#[test]
fn ideal_gate_rejects_mismatched_dimension_lists() {
    // Empty and too-short dimension lists must error, not index out of range.
    assert!(Primitive::Snap { phases: vec![0.0; 4] }.ideal_gate(&[]).is_err());
    assert!(Primitive::Csum.ideal_gate(&[3]).is_err());
    assert!(Primitive::Csum.ideal_gate(&[]).is_err());
    assert!(Primitive::Readout.ideal_gate(&[]).is_err());
    // Correct arity still works.
    assert!(Primitive::Csum.ideal_gate(&[3, 3]).unwrap().is_some());
}

#[test]
fn primitive_bind_rejects_wrong_mode_count() {
    let dev = Device::testbed();
    assert!(Primitive::Csum.bind(&dev, &[0]).is_err());
    assert!(Primitive::Displacement { alpha_re: 1.0, alpha_im: 0.0 }.bind(&dev, &[]).is_err());
}

#[test]
fn noisy_circuit_expansion_rejects_out_of_range_register_mapping() {
    let dev = Device::testbed();
    let mut sched = PrimitiveSchedule::new();
    sched.push(Primitive::Displacement { alpha_re: 1.0, alpha_im: 0.0 }.bind(&dev, &[0]).unwrap());
    // The mapping sends every mode past the end of a 2-qudit register.
    let err = sched.to_noisy_circuit(&dev, &[4, 4], &|m| m + 7).unwrap_err();
    assert!(matches!(err, CavityError::InvalidIndex(_)), "got {err:?}");
}
