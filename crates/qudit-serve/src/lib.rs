//! Resilient serving layer for the qudit simulators: a cancellable job
//! engine with per-job deadlines, bounded FIFO-queue backpressure,
//! retry escalation for transient numerical faults, per-job panic isolation,
//! graceful shutdown, and a shared single-flight plan cache.
//!
//! The engine builds directly on the reliability plumbing of the lower
//! layers: every job carries a [`CancelToken`]
//! that the simulators poll at their guard-cadence checkpoints, so a
//! cancellation or deadline stops a running sweep within one cadence
//! interval — bitwise-reproducibly up to the cancellation point. Compiled
//! execution plans are shared across requests through a
//! [`PlanCache`] keyed by the circuit's
//! [`structural hash`](qudit_circuit::Circuit::structural_hash): identical
//! topologies (including the same circuit under *different* parameter
//! bindings) compile once and rebind per request.
//!
//! # Quickstart
//!
//! ```
//! use qudit_circuit::{Circuit, Gate};
//! use qudit_serve::{JobOutcome, JobSpec, ServeConfig, ServeEngine};
//!
//! let mut circuit = Circuit::new(vec![3, 3]);
//! circuit.push(Gate::fourier(3), &[0]).unwrap();
//! circuit.push(Gate::csum(3, 3), &[0, 1]).unwrap();
//!
//! let engine = ServeEngine::start(ServeConfig::default());
//! let handle = engine.submit(JobSpec::statevector(circuit)).unwrap();
//! match handle.wait() {
//!     JobOutcome::Completed(probs) => {
//!         assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
//!     }
//!     other => panic!("unexpected outcome: {other:?}"),
//! }
//! engine.join();
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod engine;
mod queue;

pub use cache::{CacheStats, PlanCache};
pub use engine::{
    Backpressure, JobHandle, JobKind, JobOutcome, JobSpec, ServeConfig, ServeEngine, ServeStats,
    SubmitError,
};

// Re-exported so clients can configure guards and inspect cancellation
// reasons without a direct qudit-core dependency.
pub use qudit_circuit::sim::{CancelReason, CancelToken, GuardConfig, GuardPolicy};
