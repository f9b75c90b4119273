//! Runtime numerical-health guards: invariant checkpoints, degradation
//! policies, and (behind the `fault-inject` feature) a deterministic
//! fault-injection harness.
//!
//! Long simulations accumulate floating-point error, and a single NaN
//! amplitude, a norm-drifting channel, or a corrupted superoperator silently
//! poisons every downstream shot. The guard subsystem turns those silent
//! corruptions into **detected, reported, and optionally repaired** events:
//!
//! * [`GuardConfig`] — cadence, tolerance and policy, threaded into the
//!   `run_compiled`-family entry points of all three circuit simulators.
//! * [`HealthMonitor`] — the per-run checkpoint engine. Every `cadence`
//!   execution steps (and always once at the end of a run) it scans the
//!   evolving state for non-finite values and checks the backend's
//!   conservation law: statevector norm `‖ψ‖ ≈ 1`, density-matrix trace
//!   `tr ρ ≈ 1` and hermiticity `ρ = ρ†`.
//! * [`GuardPolicy`] — what happens on detection: fail with a typed
//!   [`CoreError::NumericalHealth`], repair-and-count, or degrade to a
//!   slower-but-sound execution path.
//! * [`RunHealth`] — the report every guarded run returns: checks run,
//!   worst drift observed, repairs, retries, and fallbacks.
//!
//! ## Cost model
//!
//! A statevector checkpoint is one fused pass over the amplitudes (a single
//! `Σ |a|²` reduction detects NaN/Inf *and* norm drift, since a sum of
//! non-negative terms propagates non-finite values). A density checkpoint is
//! one upper-triangle pass (finiteness + hermiticity defect) plus a diagonal
//! trace. At the default cadence of one check per
//! [`GuardConfig::DEFAULT_CADENCE`] steps the overhead is a few percent of a
//! dense gate application on the same state.
//!
//! ## Bitwise cleanliness
//!
//! Checkpoints are **read-only on healthy states**: repairs only execute when
//! drift exceeds `tol`, so a guarded run of a healthy circuit produces
//! amplitudes bitwise identical to the unguarded run.

use crate::complex::Complex64;
use crate::error::{CoreError, Result};
use crate::matrix::CMatrix;

/// The invariant that a failed health check violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum HealthMetric {
    /// A NaN or infinity appeared in the state.
    NonFinite,
    /// The statevector norm drifted from 1 beyond tolerance.
    Norm,
    /// The density-matrix trace drifted from 1 beyond tolerance.
    Trace,
    /// The density matrix lost hermiticity beyond tolerance.
    Hermiticity,
    /// A folded superoperator failed the trace-preservation condition.
    Superop,
}

impl std::fmt::Display for HealthMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            HealthMetric::NonFinite => "non-finite value",
            HealthMetric::Norm => "statevector norm",
            HealthMetric::Trace => "density-matrix trace",
            HealthMetric::Hermiticity => "density-matrix hermiticity",
            HealthMetric::Superop => "superoperator trace preservation",
        };
        f.write_str(name)
    }
}

/// What a guarded run does when a health check fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GuardPolicy {
    /// Abort the run with [`CoreError::NumericalHealth`]. Non-finite values
    /// always abort regardless of policy — there is nothing to repair.
    #[default]
    Fail,
    /// Repair the drift in place (renormalise the state; hermitise and
    /// renormalise the density matrix) and count the repair in
    /// [`RunHealth::renormalizations`].
    RenormalizeAndCount,
    /// Everything `RenormalizeAndCount` does, plus: a folded superoperator
    /// sweep whose matrix fails the trace-preservation check is dropped to
    /// the per-term Kraus path ([`RunHealth::fallbacks`]), and a panicked
    /// worker-pool chunk is retried once serially
    /// ([`RunHealth::retries`]).
    FallBack,
}

/// Configuration for runtime health checkpoints.
///
/// The default configuration is **disabled** (zero overhead); use
/// [`GuardConfig::enabled`] for the standard guarded configuration, then
/// adjust with the `with_*` builders:
///
/// ```
/// use qudit_core::guard::{GuardConfig, GuardPolicy};
/// let guard = GuardConfig::enabled()
///     .with_cadence(4)
///     .with_tol(1e-9)
///     .with_policy(GuardPolicy::RenormalizeAndCount);
/// assert!(guard.enabled);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Whether checkpoints run at all. When `false` the other fields are
    /// ignored and guarded entry points behave exactly like unguarded ones.
    pub enabled: bool,
    /// Check every `cadence` execution steps. A final check always runs at
    /// the end of a guarded run, so every run performs at least one check.
    pub cadence: usize,
    /// Maximum tolerated drift of the conservation law (norm / trace /
    /// hermiticity defect) before the policy engages.
    pub tol: f64,
    /// What to do when a check fails.
    pub policy: GuardPolicy,
}

impl GuardConfig {
    /// Default checkpoint cadence (steps between checks).
    pub const DEFAULT_CADENCE: usize = 8;
    /// Default drift tolerance.
    pub const DEFAULT_TOL: f64 = 1e-6;

    /// The disabled configuration: no checks, zero overhead.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            cadence: Self::DEFAULT_CADENCE,
            tol: Self::DEFAULT_TOL,
            policy: GuardPolicy::Fail,
        }
    }

    /// The standard guarded configuration: checks every
    /// [`GuardConfig::DEFAULT_CADENCE`] steps with tolerance
    /// [`GuardConfig::DEFAULT_TOL`] and the [`GuardPolicy::Fail`] policy.
    pub fn enabled() -> Self {
        Self { enabled: true, ..Self::disabled() }
    }

    /// Builder: sets the checkpoint cadence.
    ///
    /// A cadence of `0` is **clamped to 1** (a checkpoint after every step)
    /// rather than erroring: the builder chain stays infallible and the
    /// clamped value is the closest meaningful interpretation of "check as
    /// often as possible". A cadence larger than the run's step count means
    /// [`HealthMonitor::due`] never fires mid-run; the run loops still
    /// execute exactly one final checkpoint, so every guarded run reports
    /// `checks_run >= 1`.
    #[must_use]
    pub fn with_cadence(mut self, cadence: usize) -> Self {
        self.cadence = cadence.max(1);
        self
    }

    /// Builder: sets the drift tolerance.
    #[must_use]
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Builder: sets the degradation policy.
    #[must_use]
    pub fn with_policy(mut self, policy: GuardPolicy) -> Self {
        self.policy = policy;
        self
    }
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Health report returned by every guarded run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunHealth {
    /// Number of invariant checkpoints executed.
    pub checks_run: usize,
    /// Worst conservation-law drift observed across all checkpoints (norm /
    /// trace distance from 1, or hermiticity defect), whether or not it
    /// exceeded tolerance.
    pub max_drift: f64,
    /// Number of in-place repairs performed (renormalisations and
    /// hermitisations) under [`GuardPolicy::RenormalizeAndCount`] or
    /// [`GuardPolicy::FallBack`].
    pub renormalizations: usize,
    /// Number of worker-pool chunks that panicked and were retried serially.
    pub retries: usize,
    /// Number of folded superoperator sweeps that degraded to the per-term
    /// Kraus path.
    pub fallbacks: usize,
}

impl RunHealth {
    /// Accumulates another report into this one (used when aggregating
    /// per-trajectory health into a run-level report).
    ///
    /// Counters accumulate with saturating arithmetic: a long-lived serving
    /// process folds millions of per-job reports into one aggregate, and a
    /// counter pinned at `usize::MAX` is more useful than an overflow panic
    /// (or a silent debug/release divergence). `max_drift` propagates as the
    /// maximum of the two reports.
    pub fn merge(&mut self, other: &RunHealth) {
        self.checks_run = self.checks_run.saturating_add(other.checks_run);
        if other.max_drift > self.max_drift {
            self.max_drift = other.max_drift;
        }
        self.renormalizations = self.renormalizations.saturating_add(other.renormalizations);
        self.retries = self.retries.saturating_add(other.retries);
        self.fallbacks = self.fallbacks.saturating_add(other.fallbacks);
    }

    /// Scales every counter by `n` (saturating), leaving `max_drift` as is.
    ///
    /// Batched trajectory execution runs one checkpoint per panel *group*
    /// rather than per trajectory; a group of `n` identical members accounts
    /// for `n` serial trajectories' worth of checks and repairs, so scaling
    /// the group report by its multiplicity keeps the aggregated
    /// [`RunHealth`] identical to the serial loop's.
    #[must_use]
    pub fn scaled_by(&self, n: usize) -> RunHealth {
        RunHealth {
            checks_run: self.checks_run.saturating_mul(n),
            max_drift: self.max_drift,
            renormalizations: self.renormalizations.saturating_mul(n),
            retries: self.retries.saturating_mul(n),
            fallbacks: self.fallbacks.saturating_mul(n),
        }
    }
}

/// The per-run checkpoint engine: counts steps, runs the invariant checks at
/// the configured cadence, applies the repair policy, and accumulates the
/// [`RunHealth`] report.
///
/// Simulators create one monitor per run, call [`HealthMonitor::due`] after
/// each execution step, and run the matching `check_*` method when it
/// returns `true` (plus one final check at the end of the run).
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    config: GuardConfig,
    since_last: usize,
    health: RunHealth,
}

impl HealthMonitor {
    /// Creates a monitor for one run under the given configuration.
    pub fn new(config: GuardConfig) -> Self {
        Self { config, since_last: 0, health: RunHealth::default() }
    }

    /// Whether checkpoints are enabled at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.config.enabled
    }

    /// The active configuration.
    #[inline]
    pub fn config(&self) -> &GuardConfig {
        &self.config
    }

    /// Advances the step counter; returns `true` when a checkpoint is due.
    /// Always `false` when the guard is disabled.
    #[inline]
    pub fn due(&mut self) -> bool {
        if !self.config.enabled {
            return false;
        }
        self.since_last += 1;
        if self.since_last >= self.config.cadence.max(1) {
            self.since_last = 0;
            true
        } else {
            false
        }
    }

    /// The accumulated health report.
    #[inline]
    pub fn health(&self) -> RunHealth {
        self.health
    }

    /// Records a superoperator-sweep fallback.
    pub fn record_fallback(&mut self) {
        self.health.fallbacks += 1;
    }

    /// Statevector checkpoint: one fused pass computing `Σ |a|²` detects both
    /// non-finite amplitudes (the sum of non-negative terms propagates
    /// NaN/Inf) and norm drift `|‖ψ‖ − 1| > tol`.
    ///
    /// Under [`GuardPolicy::RenormalizeAndCount`] / [`GuardPolicy::FallBack`]
    /// a drifted (finite, non-zero) state is renormalised in place and the
    /// repair counted. Healthy states are never mutated.
    ///
    /// # Errors
    /// [`CoreError::NumericalHealth`] on a non-finite or zero state, or on
    /// drift beyond tolerance under [`GuardPolicy::Fail`].
    pub fn check_statevector(&mut self, step: usize, amplitudes: &mut [Complex64]) -> Result<()> {
        self.health.checks_run += 1;
        let norm_sqr: f64 = amplitudes.iter().map(|a| a.norm_sqr()).sum();
        if !norm_sqr.is_finite() {
            return Err(CoreError::NumericalHealth {
                step,
                metric: HealthMetric::NonFinite,
                value: norm_sqr,
            });
        }
        let norm = norm_sqr.sqrt();
        let drift = (norm - 1.0).abs();
        if drift > self.health.max_drift {
            self.health.max_drift = drift;
        }
        if drift <= self.config.tol {
            return Ok(());
        }
        if matches!(self.config.policy, GuardPolicy::Fail) || norm < 1e-300 {
            return Err(CoreError::NumericalHealth {
                step,
                metric: HealthMetric::Norm,
                value: norm,
            });
        }
        let inv = 1.0 / norm;
        for a in amplitudes.iter_mut() {
            *a *= inv;
        }
        self.health.renormalizations += 1;
        Ok(())
    }

    /// Per-column statevector checkpoint on an interleaved ensemble panel
    /// (register index `i` of column `col` at `data[i * width + col]`).
    ///
    /// The scan, drift accounting, repair policy, and error surface are
    /// exactly those of [`HealthMonitor::check_statevector`] restricted to
    /// one column — same ascending-index accumulation order, same `*= inv`
    /// repair — so guarded ensemble runs report bitwise-identical
    /// [`RunHealth`] to the serial per-state loop, and a fault in one column
    /// is detected and attributed without touching its batch-mates.
    ///
    /// # Errors
    /// [`CoreError::NumericalHealth`] on a non-finite or zero column, or on
    /// drift beyond tolerance under [`GuardPolicy::Fail`].
    pub fn check_statevector_col(
        &mut self,
        step: usize,
        data: &mut [Complex64],
        width: usize,
        col: usize,
    ) -> Result<()> {
        self.health.checks_run += 1;
        let norm_sqr: f64 = data[col..].iter().step_by(width).map(|a| a.norm_sqr()).sum();
        if !norm_sqr.is_finite() {
            return Err(CoreError::NumericalHealth {
                step,
                metric: HealthMetric::NonFinite,
                value: norm_sqr,
            });
        }
        let norm = norm_sqr.sqrt();
        let drift = (norm - 1.0).abs();
        if drift > self.health.max_drift {
            self.health.max_drift = drift;
        }
        if drift <= self.config.tol {
            return Ok(());
        }
        if matches!(self.config.policy, GuardPolicy::Fail) || norm < 1e-300 {
            return Err(CoreError::NumericalHealth {
                step,
                metric: HealthMetric::Norm,
                value: norm,
            });
        }
        let inv = 1.0 / norm;
        for a in data[col..].iter_mut().step_by(width) {
            *a *= inv;
        }
        self.health.renormalizations += 1;
        Ok(())
    }

    /// Density-matrix checkpoint: a diagonal pass for the trace plus one
    /// upper-triangle pass measuring the hermiticity defect
    /// `max |ρ[i,j] − conj(ρ[j,i])|` (which also detects non-finite entries,
    /// since every entry feeds at least one defect term).
    ///
    /// Under [`GuardPolicy::RenormalizeAndCount`] / [`GuardPolicy::FallBack`]
    /// a drifted matrix is hermitised (`(ρ + ρ†)/2`) and trace-renormalised
    /// in place, counted as one repair. Healthy matrices are never mutated.
    ///
    /// # Errors
    /// [`CoreError::NumericalHealth`] on non-finite entries or a zero trace,
    /// or on drift beyond tolerance under [`GuardPolicy::Fail`].
    pub fn check_density(&mut self, step: usize, matrix: &mut CMatrix) -> Result<()> {
        self.health.checks_run += 1;
        let n = matrix.rows();
        let mut trace = 0.0f64;
        for i in 0..n {
            trace += matrix[(i, i)].re;
        }
        let mut defect = 0.0f64;
        for i in 0..n {
            for j in i..n {
                let d = (matrix[(i, j)] - matrix[(j, i)].conj()).abs();
                // `>`-comparison with NaN is false, so carry NaN explicitly.
                if d > defect || d.is_nan() {
                    defect = d;
                }
            }
        }
        if !trace.is_finite() || !defect.is_finite() {
            return Err(CoreError::NumericalHealth {
                step,
                metric: HealthMetric::NonFinite,
                value: if trace.is_finite() { defect } else { trace },
            });
        }
        let trace_drift = (trace - 1.0).abs();
        let worst = trace_drift.max(defect);
        if worst > self.health.max_drift {
            self.health.max_drift = worst;
        }
        if worst <= self.config.tol {
            return Ok(());
        }
        if matches!(self.config.policy, GuardPolicy::Fail) {
            let (metric, value) = if defect > self.config.tol {
                (HealthMetric::Hermiticity, defect)
            } else {
                (HealthMetric::Trace, trace)
            };
            return Err(CoreError::NumericalHealth { step, metric, value });
        }
        if trace.abs() < 1e-300 {
            return Err(CoreError::NumericalHealth {
                step,
                metric: HealthMetric::Trace,
                value: trace,
            });
        }
        // Hermitise, then renormalise to unit trace.
        for i in 0..n {
            for j in i..n {
                let avg = (matrix[(i, j)] + matrix[(j, i)].conj()).scale(0.5);
                matrix[(i, j)] = avg;
                matrix[(j, i)] = avg.conj();
            }
        }
        let inv = crate::complex::c64(1.0 / trace, 0.0);
        matrix.scale_inplace(inv);
        self.health.renormalizations += 1;
        Ok(())
    }
}

/// Deterministic fault injectors for the guard test-suite, compiled only
/// under the `fault-inject` cargo feature.
///
/// Faults are **armed on the current thread** ([`inject::arm`]) and consulted
/// by the simulators' run loops (state faults, addressed by execution-step
/// index) and by the worker pool's dispatch loop (chunk faults, addressed by
/// chunk index, consumed once so a serial retry observes the fault-free
/// computation). Tests must disarm with [`inject::disarm_all`] when done.
///
/// State faults fire on the thread that runs the simulation loop; pool-chunk
/// faults are evaluated on the dispatching (caller) thread, so they work at
/// any thread count.
#[cfg(feature = "fault-inject")]
pub mod inject {
    use crate::complex::{c64, Complex64};
    use std::cell::RefCell;

    /// A deterministic fault, addressable by execution-step or pool-chunk
    /// index.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum Fault {
        /// Overwrite entry `index` (mod length) of the state with NaN after
        /// execution step `step`.
        NanPoke {
            /// Execution-step index after which the fault fires.
            step: usize,
            /// Flat state index to poison (taken modulo the state length).
            index: usize,
        },
        /// Add `delta` to the real part of entry `index` (mod length) after
        /// execution step `step`.
        AmplitudePerturb {
            /// Execution-step index after which the fault fires.
            step: usize,
            /// Flat state index to perturb (taken modulo the state length).
            index: usize,
            /// Real offset added to the entry.
            delta: f64,
        },
        /// Scale the whole state by `factor` after execution step `step`
        /// (norm / trace drift).
        NormScale {
            /// Execution-step index after which the fault fires.
            step: usize,
            /// Scale factor applied to every entry.
            factor: f64,
        },
        /// Corrupt the folded superoperator applied at execution step `step`
        /// by adding `delta` to its `(0, 0)` entry.
        SuperopCorrupt {
            /// Execution-step index whose superoperator sweep is corrupted.
            step: usize,
            /// Real offset added to the superoperator's `(0, 0)` entry.
            delta: f64,
        },
        /// Panic the worker-pool chunk with the given index (consumed once,
        /// so the serial retry runs clean).
        ChunkPanic {
            /// Chunk index to panic.
            chunk: usize,
        },
        /// Delay the worker-pool chunk with the given index, forcing
        /// out-of-order completion.
        ChunkSlow {
            /// Chunk index to delay.
            chunk: usize,
            /// Delay in milliseconds.
            millis: u64,
        },
        /// Snapshot the flat state after execution step `step` into the
        /// thread-local capture buffer (readable via [`captured`]). Purely
        /// observational — the state itself is untouched — so tests can
        /// assert bitwise properties of a *mid-sweep* state, e.g. that a run
        /// cancelled at a checkpoint evolved identically at every thread
        /// count up to the cancellation point.
        CaptureState {
            /// Execution-step index after which the snapshot is taken.
            step: usize,
        },
    }

    thread_local! {
        static FAULTS: RefCell<Vec<Fault>> = const { RefCell::new(Vec::new()) };
        static CAPTURE: RefCell<Option<Vec<Complex64>>> = const { RefCell::new(None) };
    }

    /// Arms a fault on the current thread.
    pub fn arm(fault: Fault) {
        FAULTS.with(|f| f.borrow_mut().push(fault));
    }

    /// Disarms every fault on the current thread and clears the capture
    /// buffer.
    pub fn disarm_all() {
        FAULTS.with(|f| f.borrow_mut().clear());
        CAPTURE.with(|c| *c.borrow_mut() = None);
    }

    /// Takes the state snapshot recorded by [`Fault::CaptureState`], if one
    /// has fired on this thread since the last [`disarm_all`].
    pub fn take_captured() -> Option<Vec<Complex64>> {
        CAPTURE.with(|c| c.borrow_mut().take())
    }

    /// Number of faults currently armed on this thread.
    pub fn armed() -> usize {
        FAULTS.with(|f| f.borrow().len())
    }

    /// Applies every armed state fault addressed to `step` to the flat state
    /// data (statevector amplitudes or vectorised density matrix).
    pub fn apply_state_faults(step: usize, data: &mut [Complex64]) {
        if data.is_empty() {
            return;
        }
        FAULTS.with(|faults| {
            for fault in faults.borrow().iter() {
                match *fault {
                    Fault::NanPoke { step: s, index } if s == step => {
                        data[index % data.len()] = c64(f64::NAN, f64::NAN);
                    }
                    Fault::AmplitudePerturb { step: s, index, delta } if s == step => {
                        data[index % data.len()] += c64(delta, 0.0);
                    }
                    Fault::NormScale { step: s, factor } if s == step => {
                        for a in data.iter_mut() {
                            *a *= factor;
                        }
                    }
                    Fault::CaptureState { step: s } if s == step => {
                        CAPTURE.with(|c| *c.borrow_mut() = Some(data.to_vec()));
                    }
                    _ => {}
                }
            }
        });
    }

    /// The superoperator corruption delta armed for `step`, if any.
    pub fn superop_corruption(step: usize) -> Option<f64> {
        FAULTS.with(|faults| {
            faults.borrow().iter().find_map(|fault| match *fault {
                Fault::SuperopCorrupt { step: s, delta } if s == step => Some(delta),
                _ => None,
            })
        })
    }

    /// Consumes an armed panic for pool chunk `chunk`: returns `true` at most
    /// once per arming, so the guard's serial retry observes the clean
    /// computation.
    pub fn take_chunk_panic(chunk: usize) -> bool {
        FAULTS.with(|faults| {
            let mut faults = faults.borrow_mut();
            let pos = faults
                .iter()
                .position(|f| matches!(*f, Fault::ChunkPanic { chunk: c } if c == chunk));
            match pos {
                Some(i) => {
                    faults.remove(i);
                    true
                }
                None => false,
            }
        })
    }

    /// The delay armed for pool chunk `chunk`, if any.
    pub fn chunk_slow_millis(chunk: usize) -> Option<u64> {
        FAULTS.with(|faults| {
            faults.borrow().iter().find_map(|fault| match *fault {
                Fault::ChunkSlow { chunk: c, millis } if c == chunk => Some(millis),
                _ => None,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn unit_state(n: usize) -> Vec<Complex64> {
        let amp = 1.0 / (n as f64).sqrt();
        vec![c64(amp, 0.0); n]
    }

    #[test]
    fn default_config_is_disabled_and_checkpoints_never_fire() {
        let mut monitor = HealthMonitor::new(GuardConfig::default());
        assert!(!monitor.is_enabled());
        for _ in 0..100 {
            assert!(!monitor.due());
        }
        assert_eq!(monitor.health(), RunHealth::default());
    }

    #[test]
    fn cadence_counts_steps() {
        let mut monitor = HealthMonitor::new(GuardConfig::enabled().with_cadence(3));
        let fired: Vec<bool> = (0..9).map(|_| monitor.due()).collect();
        assert_eq!(fired, vec![false, false, true, false, false, true, false, false, true]);
    }

    #[test]
    fn healthy_statevector_passes_and_is_untouched() {
        let mut monitor = HealthMonitor::new(GuardConfig::enabled());
        let mut amps = unit_state(8);
        let before = amps.clone();
        monitor.check_statevector(0, &mut amps).unwrap();
        assert_eq!(amps, before, "healthy state must not be mutated");
        let health = monitor.health();
        assert_eq!(health.checks_run, 1);
        assert!(health.max_drift < 1e-12);
        assert_eq!(health.renormalizations, 0);
    }

    #[test]
    fn nan_amplitude_fails_under_every_policy() {
        for policy in [GuardPolicy::Fail, GuardPolicy::RenormalizeAndCount, GuardPolicy::FallBack] {
            let mut monitor = HealthMonitor::new(GuardConfig::enabled().with_policy(policy));
            let mut amps = unit_state(4);
            amps[2] = c64(f64::NAN, 0.0);
            let err = monitor.check_statevector(3, &mut amps).unwrap_err();
            match err {
                CoreError::NumericalHealth { step, metric, .. } => {
                    assert_eq!(step, 3);
                    assert_eq!(metric, HealthMetric::NonFinite);
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn norm_drift_fails_or_repairs_by_policy() {
        let mut amps = unit_state(4);
        for a in amps.iter_mut() {
            *a *= 1.5;
        }
        let mut failing = HealthMonitor::new(GuardConfig::enabled());
        let err = failing.check_statevector(1, &mut amps.clone()).unwrap_err();
        assert!(matches!(err, CoreError::NumericalHealth { metric: HealthMetric::Norm, .. }));

        let mut repairing = HealthMonitor::new(
            GuardConfig::enabled().with_policy(GuardPolicy::RenormalizeAndCount),
        );
        repairing.check_statevector(1, &mut amps).unwrap();
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-12);
        let health = repairing.health();
        assert_eq!(health.renormalizations, 1);
        assert!((health.max_drift - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_state_fails_even_under_repair_policy() {
        let mut monitor = HealthMonitor::new(
            GuardConfig::enabled().with_policy(GuardPolicy::RenormalizeAndCount),
        );
        let mut amps = vec![c64(0.0, 0.0); 4];
        assert!(matches!(
            monitor.check_statevector(0, &mut amps),
            Err(CoreError::NumericalHealth { metric: HealthMetric::Norm, .. })
        ));
    }

    #[test]
    fn density_trace_drift_fails_or_repairs_by_policy() {
        let mut rho = CMatrix::identity(3).scaled_real(1.2 / 3.0);
        let mut failing = HealthMonitor::new(GuardConfig::enabled());
        assert!(matches!(
            failing.check_density(2, &mut rho.clone()),
            Err(CoreError::NumericalHealth { metric: HealthMetric::Trace, .. })
        ));

        let mut repairing = HealthMonitor::new(
            GuardConfig::enabled().with_policy(GuardPolicy::RenormalizeAndCount),
        );
        repairing.check_density(2, &mut rho).unwrap();
        assert!((rho.trace().re - 1.0).abs() < 1e-12);
        assert_eq!(repairing.health().renormalizations, 1);
    }

    #[test]
    fn density_hermiticity_defect_detected_and_repaired() {
        let mut rho = CMatrix::identity(2).scaled_real(0.5);
        rho[(0, 1)] = c64(0.3, 0.0);
        rho[(1, 0)] = c64(0.0, 0.0);
        let mut failing = HealthMonitor::new(GuardConfig::enabled());
        assert!(matches!(
            failing.check_density(0, &mut rho.clone()),
            Err(CoreError::NumericalHealth { metric: HealthMetric::Hermiticity, .. })
        ));

        let mut repairing =
            HealthMonitor::new(GuardConfig::enabled().with_policy(GuardPolicy::FallBack));
        repairing.check_density(0, &mut rho).unwrap();
        assert!((rho[(0, 1)] - rho[(1, 0)].conj()).abs() < 1e-15);
        assert!((rho.trace().re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn density_nan_entry_fails_under_every_policy() {
        for policy in [GuardPolicy::Fail, GuardPolicy::FallBack] {
            let mut monitor = HealthMonitor::new(GuardConfig::enabled().with_policy(policy));
            let mut rho = CMatrix::identity(2).scaled_real(0.5);
            rho[(1, 1)] = c64(f64::NAN, 0.0);
            assert!(matches!(
                monitor.check_density(5, &mut rho),
                Err(CoreError::NumericalHealth { metric: HealthMetric::NonFinite, step: 5, .. })
            ));
        }
    }

    #[test]
    fn run_health_merge_accumulates() {
        let mut a = RunHealth {
            checks_run: 2,
            max_drift: 1e-9,
            renormalizations: 1,
            retries: 0,
            fallbacks: 1,
        };
        let b = RunHealth {
            checks_run: 3,
            max_drift: 1e-7,
            renormalizations: 0,
            retries: 2,
            fallbacks: 0,
        };
        a.merge(&b);
        assert_eq!(a.checks_run, 5);
        assert_eq!(a.max_drift, 1e-7);
        assert_eq!(a.renormalizations, 1);
        assert_eq!(a.retries, 2);
        assert_eq!(a.fallbacks, 1);
    }

    #[test]
    fn run_health_merge_saturates_instead_of_overflowing() {
        let mut a = RunHealth {
            checks_run: usize::MAX - 1,
            max_drift: 0.0,
            renormalizations: usize::MAX,
            retries: usize::MAX - 2,
            fallbacks: 3,
        };
        let b = RunHealth {
            checks_run: 5,
            max_drift: 0.0,
            renormalizations: 1,
            retries: 7,
            fallbacks: usize::MAX,
        };
        a.merge(&b);
        assert_eq!(a.checks_run, usize::MAX);
        assert_eq!(a.renormalizations, usize::MAX);
        assert_eq!(a.retries, usize::MAX);
        assert_eq!(a.fallbacks, usize::MAX);
    }

    #[test]
    fn run_health_merge_propagates_max_drift_in_both_directions() {
        let mut a = RunHealth { max_drift: 1e-3, ..RunHealth::default() };
        a.merge(&RunHealth { max_drift: 1e-9, ..RunHealth::default() });
        assert_eq!(a.max_drift, 1e-3, "smaller incoming drift must not lower the max");
        a.merge(&RunHealth { max_drift: 2.5, ..RunHealth::default() });
        assert_eq!(a.max_drift, 2.5, "larger incoming drift must win");
    }

    #[test]
    fn zero_cadence_is_clamped_to_every_step() {
        let config = GuardConfig::enabled().with_cadence(0);
        assert_eq!(config.cadence, 1, "with_cadence(0) documents clamping to 1");
        let mut monitor = HealthMonitor::new(config);
        assert!(monitor.due(), "cadence 1 fires after every step");
        assert!(monitor.due());
    }

    #[test]
    fn cadence_beyond_step_count_never_fires_mid_run() {
        // The run loops guarantee the complementary half of the contract:
        // one final checkpoint always executes when the guard is enabled,
        // so `checks_run >= 1` even here (covered by the simulator tests).
        let mut monitor = HealthMonitor::new(GuardConfig::enabled().with_cadence(1000));
        for _ in 0..5 {
            assert!(!monitor.due());
        }
        let mut amps = unit_state(4);
        monitor.check_statevector(5, &mut amps).unwrap();
        assert_eq!(monitor.health().checks_run, 1);
    }

    #[cfg(feature = "fault-inject")]
    mod inject_tests {
        use super::super::inject::{self, Fault};
        use crate::complex::c64;

        #[test]
        fn state_faults_fire_only_on_their_step() {
            inject::disarm_all();
            inject::arm(Fault::NanPoke { step: 2, index: 1 });
            let mut data = vec![c64(1.0, 0.0); 4];
            inject::apply_state_faults(1, &mut data);
            assert!(data.iter().all(|a| a.re.is_finite()));
            inject::apply_state_faults(2, &mut data);
            assert!(data[1].re.is_nan());
            inject::disarm_all();
        }

        #[test]
        fn capture_state_snapshots_without_mutating() {
            inject::disarm_all();
            inject::arm(Fault::CaptureState { step: 1 });
            let mut data = vec![c64(0.5, -0.25); 4];
            let before = data.clone();
            inject::apply_state_faults(0, &mut data);
            assert!(inject::take_captured().is_none(), "wrong step must not capture");
            inject::apply_state_faults(1, &mut data);
            assert_eq!(data, before, "capture is observational");
            assert_eq!(inject::take_captured().unwrap(), before);
            assert!(inject::take_captured().is_none(), "capture buffer is taken once");
            inject::disarm_all();
        }

        #[test]
        fn chunk_panic_is_consumed_once() {
            inject::disarm_all();
            inject::arm(Fault::ChunkPanic { chunk: 3 });
            assert!(!inject::take_chunk_panic(2));
            assert!(inject::take_chunk_panic(3));
            assert!(!inject::take_chunk_panic(3), "panic fault must be consumed");
            inject::disarm_all();
        }
    }
}
