//! Cooperative cancellation for long-running simulation sweeps.
//!
//! A [`CancelToken`] is a cheaply cloneable handle (an `Arc`'d atomic flag
//! plus an optional deadline) that a caller hands to a simulator or to the
//! worker pool. The execution stack polls it at well-defined checkpoints —
//! on entry and at every guard-cadence boundary of the circuit simulators'
//! one step driver (`qudit_circuit::sim`), and between chunks in the pool's
//! counted map — and surfaces a trip as
//! [`CoreError::Cancelled`]. Checkpoints never mutate numerical state, so a
//! run is bitwise identical to an uncancelled run right up to the step at
//! which it stops.
//!
//! Three things can trip a token:
//!
//! 1. an explicit [`CancelToken::cancel`] call from any thread,
//! 2. an expired deadline ([`CancelToken::with_deadline`]), and
//! 3. an exhausted *check budget* ([`CancelToken::with_check_budget`]) —
//!    a deterministic trigger for tests that must cancel at an exact
//!    checkpoint regardless of wall-clock timing.

use crate::error::{CoreError, Result};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a [`CancelToken`] tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called (or a deterministic check budget
    /// ran out).
    Requested,
    /// The token's deadline passed before the run completed.
    DeadlineExceeded,
}

impl fmt::Display for CancelReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CancelReason::Requested => write!(f, "cancellation requested"),
            CancelReason::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

/// Check budgets are stored biased by one in an `AtomicU64` so that zero can
/// mean "no budget armed" without an `Option` around the atomic.
const NO_BUDGET: u64 = 0;

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    /// Remaining checks before the token self-trips, biased by one
    /// (`NO_BUDGET` = unarmed). Used only by deterministic tests.
    budget: AtomicU64,
}

/// A cloneable cooperative-cancellation handle.
///
/// Clones share state: cancelling any clone trips them all. The token is
/// `Send + Sync`; hold one on the submitting thread and hand a clone to the
/// run.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A token with no deadline; trips only via [`cancel`](Self::cancel).
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
                budget: AtomicU64::new(NO_BUDGET),
            }),
        }
    }

    /// A token that additionally trips once `timeout` has elapsed from now.
    pub fn with_deadline(timeout: Duration) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + timeout),
                budget: AtomicU64::new(NO_BUDGET),
            }),
        }
    }

    /// Arm a deterministic *check budget*: the next `checks` calls to
    /// [`check`](Self::check) succeed, and every call after that trips the
    /// token with [`CancelReason::Requested`].
    ///
    /// Because simulator checkpoints occur at deterministic step indices,
    /// this cancels at an exact, reproducible point in the sweep — the
    /// mechanism the mid-sweep reproducibility tests use. Returns `self` for
    /// builder-style chaining.
    pub fn with_check_budget(self, checks: u64) -> Self {
        self.inner.budget.store(checks.saturating_add(1), Ordering::Relaxed);
        self
    }

    /// Trip the token explicitly.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether [`cancel`](Self::cancel) has been called (does not consult
    /// the deadline).
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// The instant at which this token's deadline expires, if it has one.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Non-consuming poll: why the token is currently tripped, if it is.
    ///
    /// An explicit cancel takes precedence over an expired deadline. Does
    /// not touch the check budget.
    pub fn status(&self) -> Option<CancelReason> {
        if self.is_cancelled() {
            return Some(CancelReason::Requested);
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => Some(CancelReason::DeadlineExceeded),
            _ => None,
        }
    }

    /// Checkpoint: return `Err(CoreError::Cancelled { step, .. })` if the
    /// token has tripped, consuming one unit of check budget if armed.
    pub fn check(&self, step: usize) -> Result<()> {
        if self.spend_budget() {
            self.cancel();
        }
        match self.status() {
            Some(reason) => Err(CoreError::Cancelled { step, reason }),
            None => Ok(()),
        }
    }

    /// Spend one unit of biased budget; returns true once it is exhausted.
    fn spend_budget(&self) -> bool {
        let budget = &self.inner.budget;
        let mut current = budget.load(Ordering::Relaxed);
        loop {
            match current {
                NO_BUDGET => return false,
                1 => return true, // exhausted: every further check trips
                _ => match budget.compare_exchange_weak(
                    current,
                    current - 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return false,
                    Err(observed) => current = observed,
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_passes_checks() {
        let t = CancelToken::new();
        assert!(t.status().is_none());
        for step in 0..100 {
            t.check(step).unwrap();
        }
    }

    #[test]
    fn cancel_trips_all_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled());
        let err = t.check(7).unwrap_err();
        assert_eq!(err, CoreError::Cancelled { step: 7, reason: CancelReason::Requested });
    }

    #[test]
    fn deadline_trips_after_expiry() {
        let t = CancelToken::with_deadline(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(20));
        let err = t.check(3).unwrap_err();
        assert_eq!(err, CoreError::Cancelled { step: 3, reason: CancelReason::DeadlineExceeded });
        // Explicit cancel takes precedence in status reporting.
        t.cancel();
        assert_eq!(t.status(), Some(CancelReason::Requested));
    }

    #[test]
    fn unexpired_deadline_passes() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        t.check(0).unwrap();
        assert!(t.status().is_none());
        assert!(t.deadline().is_some());
    }

    #[test]
    fn check_budget_trips_deterministically() {
        let t = CancelToken::new().with_check_budget(3);
        t.check(0).unwrap();
        t.check(1).unwrap();
        t.check(2).unwrap();
        let err = t.check(3).unwrap_err();
        assert_eq!(err, CoreError::Cancelled { step: 3, reason: CancelReason::Requested });
        // And it stays tripped.
        assert!(t.check(4).is_err());
    }

    #[test]
    fn zero_check_budget_trips_immediately() {
        let t = CancelToken::new().with_check_budget(0);
        assert!(t.check(0).is_err());
    }

    #[test]
    fn budget_is_shared_across_clones() {
        let t = CancelToken::new().with_check_budget(1);
        let clone = t.clone();
        clone.check(0).unwrap();
        assert!(t.check(1).is_err());
    }
}
