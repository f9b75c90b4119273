//! The step driver: the one loop behind statevector runs, density runs and
//! trajectory chunks.
//!
//! Every back-end walks a compiled plan step by step under the same
//! checkpoint rules, and [`StepDriver::run`] is the only place they live.
//! A back-end supplies its per-step arms and its guard checkpoint; the
//! driver
//!
//! 1. polls the cancel token once on entry (`Cancelled { step: 0 }`);
//! 2. after every step, applies the `fault-inject` state faults addressed to
//!    that step;
//! 3. at every cadence boundary — after step `s` with
//!    `(s + 1) % cadence == 0`, cadence clamped to 1 — runs the guard
//!    checkpoint when the guard is enabled, *then* polls the token, so a
//!    guard failure wins at a shared boundary;
//! 4. runs one final checkpoint, at step index `steps.len()`, when the guard
//!    is enabled.
//!
//! The boundaries depend only on the step index, so a budget-armed token
//! trips at the same step at every thread count, and `checks_run` is
//! exactly `steps / cadence + 1` per monitor.

use qudit_core::cancel::CancelToken;
use qudit_core::density::DensityMatrix;
use qudit_core::guard::GuardConfig;
use qudit_core::state::QuditState;
#[cfg(feature = "fault-inject")]
use qudit_core::Complex64;

use crate::error::{CircuitError, Result};
use crate::noise::NoiseModel;

/// The checkpoint settings of one run: the guard configuration (its cadence
/// also paces cancellation) and the optional cancel token.
pub(crate) struct StepDriver<'a> {
    pub guard: GuardConfig,
    pub cancel: Option<&'a CancelToken>,
}

/// A run's evolving state as the `fault-inject` harness sees it: the flat
/// buffer that state faults poison after each step.
pub(crate) trait FaultTarget {
    #[cfg(feature = "fault-inject")]
    fn flat_mut(&mut self) -> &mut [Complex64];
}

impl FaultTarget for QuditState {
    #[cfg(feature = "fault-inject")]
    fn flat_mut(&mut self) -> &mut [Complex64] {
        self.amplitudes_mut()
    }
}

impl FaultTarget for DensityMatrix {
    #[cfg(feature = "fault-inject")]
    fn flat_mut(&mut self) -> &mut [Complex64] {
        self.matrix_mut().as_mut_slice()
    }
}

impl StepDriver<'_> {
    /// Runs `steps` over `state`. `step(index, step, state, monitors)`
    /// executes one plan step; `checkpoint(index, state, monitors)` runs the
    /// back-end's guard checks. Both receive the same `monitors`, so a step
    /// arm can consult or update the health monitor it shares with the
    /// checkpoint (the density `FallBack` path does).
    pub(crate) fn run<T, S: FaultTarget, M>(
        &self,
        steps: &[T],
        state: &mut S,
        monitors: &mut M,
        mut step: impl FnMut(usize, &T, &mut S, &mut M) -> Result<()>,
        mut checkpoint: impl FnMut(usize, &mut S, &mut M) -> qudit_core::error::Result<()>,
    ) -> Result<()> {
        let core = CircuitError::Core;
        if let Some(token) = self.cancel {
            token.check(0).map_err(core)?;
        }
        let cadence = self.guard.cadence.max(1);
        for (index, plan_step) in steps.iter().enumerate() {
            step(index, plan_step, state, monitors)?;
            #[cfg(feature = "fault-inject")]
            qudit_core::guard::inject::apply_state_faults(index, state.flat_mut());
            if (index + 1) % cadence == 0 {
                if self.guard.enabled {
                    checkpoint(index, state, monitors).map_err(core)?;
                }
                if let Some(token) = self.cancel {
                    token.check(index).map_err(core)?;
                }
            }
        }
        // The final checkpoint guarantees at least one check per guarded run
        // and catches damage introduced after the last cadence boundary.
        if self.guard.enabled {
            checkpoint(steps.len(), state, monitors).map_err(core)?;
        }
        Ok(())
    }
}

/// Rejects an initial state whose register differs from the plan's.
pub(crate) fn check_register(initial: &[usize], circuit: &[usize]) -> Result<()> {
    if initial != circuit {
        return Err(CircuitError::InvalidTargets(format!(
            "initial state register {initial:?} does not match circuit register {circuit:?}"
        )));
    }
    Ok(())
}

/// Rejects a plan compiled under another noise model than the simulator's:
/// gate-level channels are baked into the plan, so running it under another
/// model would silently mix the two.
pub(crate) fn check_noise(compiled: &NoiseModel, simulator: &NoiseModel) -> Result<()> {
    if compiled != simulator {
        return Err(CircuitError::Unsupported(
            "compiled circuit was built under a different noise model; recompile with this \
             simulator's model"
                .into(),
        ));
    }
    Ok(())
}
