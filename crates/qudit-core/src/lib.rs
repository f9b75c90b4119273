//! # qudit-core
//!
//! Numerics substrate for the `qudit-cavity` workspace: complex scalars and
//! dense matrices, mixed-radix index arithmetic for heterogeneous qudit
//! registers, pure states and density matrices, measurement, distance
//! metrics, and seeded random quantum objects.
//!
//! The crate is deliberately dependency-light: all linear algebra is
//! implemented here (Jacobi Hermitian eigendecomposition, Padé matrix
//! exponential, LU solves, Gram–Schmidt QR), sized for the Hilbert-space
//! dimensions that near-term qudit processors — and therefore this
//! workspace's simulators — actually reach.
//!
//! ## Hot-path architecture (PR 1, extended in PRs 2–3)
//!
//! Every simulation kernel routes through two building blocks:
//!
//! * [`apply::ApplyPlan`] — the stride geometry of "operator on a
//!   sub-register" (target sub-offsets plus spectator-block enumeration),
//!   computed once per `(register, targets)` pair and reused across
//!   instructions, shots and trajectories. Together with
//!   [`apply::OpKind`] (diagonal / monomial / dense operator
//!   classification) it powers `apply_operator`, expectation values,
//!   marginals, measurement collapse, reduced density matrices, Kraus-branch
//!   norms and the density-matrix superoperator kernels — with no
//!   per-amplitude digit decompositions anywhere. Plans for consecutive
//!   ascending targets detect their **uniform-stride layout** and run dense
//!   blocks as tight matrix–panel products on contiguous memory instead of
//!   through the offset-table gather/scatter (the layout gate fusion
//!   produces); dense inner products use a four-accumulator reduction, so
//!   their floating-point summation order is a fixed interleaving rather
//!   than a left fold.
//! * [`par`] — a dependency-free **persistent worker pool** (lazily spawned,
//!   channel-fed contiguous chunks) whose maps preserve index order,
//!   so the circuit simulators' trajectory chunks and population columns
//!   parallelise with results bitwise identical to the serial order, at any
//!   thread count, without per-call thread spawn/join overhead. `QUDIT_NUM_THREADS`
//!   overrides the default worker count.
//!
//! On the density-matrix side, [`superop::SuperPlan`] lifts the same stride
//! machinery to vectorised ρ: row-major ρ is read as the state of a
//! *doubled* register, a channel on targets `T` becomes an operator on the
//! `2k` doubled targets, and the whole Kraus sum applies as **one** sweep of
//! the superoperator `Σ K ⊗ conj(K)` — with the diagonal/monomial fast
//! paths inherited from [`apply::OpKind`] classification of the
//! superoperator itself. A mostly-zero dense superoperator can instead run
//! as a row-compressed sweep ([`sparse::RowCompressed`], the one sparse
//! operator type, which the Lindblad integrator in `cavity-sim` also uses).
//!
//! Repeated shot sampling goes through [`sampling::Cdf`], a cumulative
//! distribution with O(log dim) binary-search draws. In-place integrator
//! loops use [`matrix::CMatrix::matmul_into`] / [`matrix::CMatrix::copy_from`]
//! to stay allocation-free.
//!
//! ## Conventions
//!
//! * Basis ordering is **big-endian**: qudit 0 is the most significant digit
//!   of the flat index (see [`radix::Radix`]).
//! * Operators acting on a subset of qudits are indexed with the *first*
//!   listed target as the most significant digit.
//! * All randomness flows through caller-provided [`rand::Rng`] instances so
//!   experiments are reproducible from a seed.
//!
//! ## Example
//!
//! ```
//! use qudit_core::prelude::*;
//!
//! // A qutrit–qutrit register in |1, 2⟩.
//! let mut state = QuditState::basis(vec![3, 3], &[1, 2]).unwrap();
//!
//! // Apply the generalised Fourier gate to qudit 0 and inspect probabilities.
//! let f = qudit_core::matrix::CMatrix::from_fn(3, 3, |j, k| {
//!     Complex64::cis(2.0 * std::f64::consts::PI * (j * k) as f64 / 3.0)
//!         .scale(1.0 / 3.0_f64.sqrt())
//! });
//! state.apply_operator(&f, &[0]).unwrap();
//! let probs = state.marginal_probabilities(&[0]).unwrap();
//! assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
//! ```
// Two documented exceptions: the pool's lifetime erasure in `par`, and the
// disjoint-block shared pointer in `apply::ApplyPlan::apply_parallel`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod apply;
pub mod cancel;
pub mod complex;
pub mod density;
pub mod error;
pub mod guard;
pub mod linalg;
pub mod matrix;
pub mod metrics;
pub mod par;
pub mod radix;
pub mod random;
pub mod sampling;
pub mod sparse;
pub mod state;
pub mod superop;

pub use apply::{ApplyPlan, OpKind};
pub use cancel::{CancelReason, CancelToken};
pub use complex::{c64, Complex64};
pub use density::DensityMatrix;
pub use error::{CoreError, Result};
pub use guard::{GuardConfig, GuardPolicy, HealthMetric, RunHealth};
pub use matrix::CMatrix;
pub use radix::Radix;
pub use sampling::Cdf;
pub use sparse::RowCompressed;
pub use state::QuditState;
pub use superop::{SandwichPlan, SuperPlan};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::apply::{ApplyPlan, OpKind};
    pub use crate::cancel::{CancelReason, CancelToken};
    pub use crate::complex::{c64, Complex64};
    pub use crate::density::DensityMatrix;
    pub use crate::error::{CoreError, Result};
    pub use crate::guard::{GuardConfig, GuardPolicy, HealthMetric, RunHealth};
    pub use crate::linalg::{eigh, expm, expm_hermitian};
    pub use crate::matrix::CMatrix;
    pub use crate::metrics::{
        average_gate_fidelity, density_fidelity, process_fidelity, state_fidelity, trace_distance,
    };
    pub use crate::radix::{embed_operator, Radix};
    pub use crate::random::{haar_state, haar_unitary};
    pub use crate::state::QuditState;
    pub use crate::superop::{SandwichPlan, SuperPlan};
}
