//! # qrc — quantum reservoir computing on coupled cavity modes
//!
//! Application C of the paper: an analog quantum reservoir built from
//! coherently coupled, dissipative bosonic modes, trained only through a
//! classical linear readout.
//!
//! * [`reservoir`] — the coupled-oscillator reservoir (Lindblad dynamics,
//!   displacement input encoding, observable feature map, shot-limited
//!   read-out).
//! * [`digital`] — the gate-based realisation of the same reservoir: one
//!   compiled parameterized segment circuit, rebound per input sample.
//! * [`tasks`] — NARMA, Mackey–Glass, waveform-classification and memory
//!   benchmark tasks.
//! * [`train`] — ridge-regression readout.
//! * [`esn`] — the classical echo-state-network baseline.
//! * [`pipeline`] — end-to-end evaluation (drive → train → test NMSE).
//!
//! ## Example
//!
//! ```
//! use qrc::pipeline::evaluate_quantum;
//! use qrc::reservoir::ReservoirParams;
//! use qrc::tasks::memory_task;
//!
//! let task = memory_task(40, 1, 7);
//! let eval = evaluate_quantum(&ReservoirParams::small(), &task, 0.7, 1e-6).unwrap();
//! assert!(eval.test_nmse.is_finite());
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digital;
pub mod error;
pub mod esn;
pub mod pipeline;
pub mod reservoir;
pub mod tasks;
pub mod train;

pub use digital::DigitalReservoir;
pub use error::{QrcError, Result};
pub use esn::{EchoStateNetwork, EsnParams};
pub use pipeline::{
    evaluate_esn, evaluate_quantum, evaluate_quantum_digital, evaluate_quantum_with_shots,
    Evaluation,
};
pub use reservoir::{QuantumReservoir, ReservoirParams};
pub use tasks::{mackey_glass, memory_task, narma, nmse, TimeSeriesTask};
pub use train::{fit_ridge, LinearReadout};
