//! # cavity-sim
//!
//! cQED hardware substrate for cavity-based qudit processors: Fock-space
//! states, transmon ancilla models, dispersive cavity–transmon Hamiltonians,
//! a Lindblad master-equation integrator for open-system dynamics, hardware
//! primitive operations (SNAP, displacement, beam-splitter, CSUM) with
//! durations and device-calibrated error rates, and multi-cavity device
//! models with per-mode coherence budgets.
//!
//! The Lindblad integrator ([`lindblad`]) folds the Hamiltonian, the drive
//! and every `L†L` into one generator `G = −i(H + D) − ½ Σ γ L†L` and keeps
//! it and the collapse operators row-compressed. Each RK4 right-hand side is
//! `X + X†` for `X = Gρ + ½ Σ γ (Lρ)L†`, formed with `O(nnz · N)` sparse ×
//! dense products instead of dense `O(N³)` matrix products, so ρ stays
//! exactly Hermitian and the step loop allocates nothing.
//!
//! This crate plays the role of the hardware the paper forecasts (≈10
//! linearly connected SRF cavities × 4 modes × d ≈ 10 photons with
//! millisecond T1): since that machine does not exist yet, every experiment
//! in the workspace runs against these models instead.
//!
//! ## Example: photon decay in a lossy cavity
//!
//! ```
//! use cavity_sim::lindblad::LindbladSystem;
//! use cavity_sim::fock::fock_state;
//! use qudit_circuit::gates;
//! use qudit_core::density::DensityMatrix;
//!
//! let d = 6;
//! let mut sys = LindbladSystem::new(vec![d]).unwrap();
//! sys.add_collapse(&gates::annihilation(d), &[0], 0.1).unwrap();
//! let mut rho = DensityMatrix::from_pure(&fock_state(d, 2).unwrap());
//! sys.evolve(&mut rho, 1.0, 0.01).unwrap();
//! let n = rho.expectation(&gates::number_operator(d), &[0]).unwrap().re;
//! assert!((n - 2.0 * (-0.1_f64).exp()).abs() < 1e-2);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod dispersive;
pub mod error;
pub mod fock;
pub mod lindblad;
pub mod primitives;
pub mod transmon;

pub use device::{CavityModule, Device, GateDurations, ModeParams};
pub use dispersive::DispersiveParams;
pub use error::{CavityError, Result};
pub use lindblad::LindbladSystem;
pub use primitives::{BoundPrimitive, Primitive, PrimitiveSchedule};
pub use transmon::TransmonParams;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::device::{Device, GateDurations, ModeParams};
    pub use crate::dispersive::DispersiveParams;
    pub use crate::error::{CavityError, Result};
    pub use crate::fock::{coherent_state, fock_state, thermal_density};
    pub use crate::lindblad::LindbladSystem;
    pub use crate::primitives::{Primitive, PrimitiveSchedule};
    pub use crate::transmon::TransmonParams;
}
