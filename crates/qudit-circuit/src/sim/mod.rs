//! Circuit simulators.
//!
//! Three back-ends with different cost/fidelity trade-offs:
//!
//! * [`StatevectorSimulator`] — pure-state evolution; noise channels and
//!   measurements are handled stochastically (a single quantum trajectory).
//! * [`DensityMatrixSimulator`] — exact open-system evolution under a
//!   [`crate::noise::NoiseModel`]; cost scales with the *square* of the
//!   Hilbert-space dimension.
//! * [`TrajectorySimulator`] — Monte-Carlo averaging of many stochastic
//!   state-vector runs, executed as branch-prefix groups that share one
//!   state per Kraus history; approaches the density-matrix result as the
//!   number of trajectories grows, at state-vector memory cost per live
//!   group.
//!
//! All three consume circuits through a compiled execution plan: the
//! [`fusion`] pass first coalesces runs of adjacent gates into fused
//! superblocks (configurable via [`FusionConfig`], on by default), and the
//! per-step stride plans, operator classifications and noise channels are
//! precomputed once and reused across shots and trajectories. Use
//! [`StatevectorSimulator::compile`] to hold on to the plan across calls.
//!
//! The density-matrix back-end re-compiles the shared plan one step further:
//! every channel whose superoperator `Σ K ⊗ conj(K)` is profitable executes
//! as a single unit-stride sweep over vectorised ρ, read as the state of a
//! doubled register (see [`qudit_core::superop`]),
//! and channel-adjacent unitary runs fold into the same sweep under a
//! fusion-style cost rule (configurable via [`SuperopConfig`], on by
//! default). [`DensityMatrixSimulator::compile`] exposes the compiled
//! density plan and its [`SuperopStats`].

pub mod fusion;
pub mod introspect;

mod density;
mod driver;
mod ensemble;
mod frontier;
mod kernels;
mod statevector;
mod trajectory;

pub use density::{CompiledDensityCircuit, DensityMatrixSimulator};
pub use ensemble::BatchBindings;
pub use fusion::{FusionConfig, FusionStats};
pub use kernels::{SuperopConfig, SuperopStats};
pub use statevector::{CompiledCircuit, RunOutput, StatevectorSimulator};
pub use trajectory::{TrajectoryEstimate, TrajectorySimulator};

// Re-exported so guard configuration does not require a direct qudit-core
// dependency at the call site (see `qudit_core::guard` for the full module).
pub use qudit_core::guard::{GuardConfig, GuardPolicy, HealthMetric, RunHealth};

// Re-exported for the same reason: every simulator's `with_cancel` takes a
// token (see `qudit_core::cancel` for the full module).
pub use qudit_core::cancel::{CancelReason, CancelToken};

use rand::Rng;

use qudit_core::sampling::Cdf;
use qudit_core::state::QuditState;
use qudit_core::Radix;

use crate::error::Result;
use kernels::{rescale_branch, ChannelKernel, RunScratch};

/// Applies a Kraus channel to a pure state stochastically (quantum-trajectory
/// unraveling) through a precompiled [`ChannelKernel`]: Kraus operator `K_k`
/// is selected with probability `‖K_k|ψ⟩‖²` and the state renormalised, and
/// the index `k` is returned. One uniform draw, then
/// [`ChannelKernel::select_branches`] computes the branch probabilities in
/// place (one marginal sweep for diagonal/monomial channels, one sweep per
/// branch otherwise) and picks the branch. Only the selected operator is
/// applied, and the state is rescaled by the already-known `1/√p_k` instead
/// of re-summing its norm.
/// The trajectory executor in `sim::ensemble` makes the same calls on each
/// branch-prefix group's own state — one draw per member, one
/// `apply_prepared` and [`rescale_branch`] per selected branch — which is
/// what keeps it bitwise equal to this path.
pub(crate) fn apply_channel_prepared<R: Rng + ?Sized>(
    state: &mut QuditState,
    kernel: &ChannelKernel,
    rng: &mut R,
    scratch: &mut RunScratch,
) -> Result<usize> {
    let core = crate::error::CircuitError::Core;
    let ops = kernel.channel.operators();
    // Fast path: unitary channel (single Kraus operator).
    if ops.len() == 1 {
        state
            .apply_prepared(&kernel.plan, &kernel.kinds[0], &ops[0], &mut scratch.block)
            .map_err(core)?;
        return Ok(0);
    }
    let r: f64 = rng.gen::<f64>();
    kernel.select_branches(state.amplitudes(), [r], scratch)?;
    let k = scratch.choices[0];
    state
        .apply_prepared(&kernel.plan, &kernel.kinds[k], &ops[k], &mut scratch.block)
        .map_err(core)?;
    rescale_branch(state.amplitudes_mut(), scratch.branch_probs[k]);
    Ok(k)
}

/// Applies classical readout error to a measured digit string: each digit is
/// replaced by a uniformly random *different* level with probability `p_flip`.
pub fn apply_readout_flip<R: Rng + ?Sized>(
    digits: &mut [usize],
    dims: &[usize],
    p_flip: f64,
    rng: &mut R,
) {
    if p_flip <= 0.0 {
        return;
    }
    for (i, digit) in digits.iter_mut().enumerate() {
        if rng.gen::<f64>() < p_flip {
            let d = dims[i];
            let mut new = rng.gen_range(0..d - 1);
            if new >= *digit {
                new += 1;
            }
            *digit = new;
        }
    }
}

/// One end-of-circuit shot, the draw convention of every sampler: an
/// outcome drawn from `cdf` (the ground outcome when the distribution has no
/// mass), as digits of `radix`, then its readout flips at `p_flip`, all from
/// `rng`.
pub(crate) fn draw_shot<R: Rng + ?Sized>(
    cdf: &Cdf,
    radix: &Radix,
    p_flip: f64,
    rng: &mut R,
) -> Vec<usize> {
    let chosen = cdf.try_draw(rng).unwrap_or(0);
    let mut digits = radix.digits_of(chosen).expect("index in range");
    apply_readout_flip(&mut digits, radix.dims(), p_flip, rng);
    digits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CircuitError;
    use crate::noise::KrausChannel;
    use qudit_core::error::CoreError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One stochastic channel event on `state`'s qudit 0.
    fn apply_on_first(
        state: &mut QuditState,
        ch: &KrausChannel,
        rng: &mut StdRng,
    ) -> Result<usize> {
        let kernel = ChannelKernel::new(state.radix(), ch.clone(), vec![0])?;
        apply_channel_prepared(state, &kernel, rng, &mut RunScratch::default())
    }

    #[test]
    fn stochastic_channel_preserves_normalisation() {
        let ch = KrausChannel::photon_loss(4, 0.3).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut state = QuditState::basis(vec![4, 4], &[3, 2]).unwrap();
        for _ in 0..20 {
            apply_on_first(&mut state, &ch, &mut rng).unwrap();
            assert!((state.norm() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn stochastic_channel_statistics_match_exact_channel() {
        // Average photon number over many trajectories ≈ exact loss.
        let d = 5;
        let gamma = 0.4;
        let ch = KrausChannel::photon_loss(d, gamma).unwrap();
        let n_op = crate::gates::number_operator(d);
        let mut rng = StdRng::seed_from_u64(7);
        let n_traj = 3000;
        let mut acc = 0.0;
        for _ in 0..n_traj {
            let mut state = QuditState::basis(vec![d], &[3]).unwrap();
            apply_on_first(&mut state, &ch, &mut rng).unwrap();
            acc += state.expectation(&n_op, &[0]).unwrap().re;
        }
        let mean = acc / n_traj as f64;
        assert!((mean - 3.0 * (1.0 - gamma)).abs() < 0.1);
    }

    #[test]
    fn channel_event_draws_once_and_rejects_a_zero_state() {
        // One uniform draw per event, whatever the branch count, so RNG
        // streams stay aligned across the serial and batched executors.
        let ch = KrausChannel::depolarizing(3, 0.4).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut twin = rng.clone();
        let mut state = QuditState::basis(vec![3, 2], &[1, 1]).unwrap();
        apply_on_first(&mut state, &ch, &mut rng).unwrap();
        let _: f64 = twin.gen();
        assert_eq!(rng.gen::<u64>(), twin.gen::<u64>());

        state.amplitudes_mut().iter_mut().for_each(|a| *a = qudit_core::Complex64::ZERO);
        let err = apply_on_first(&mut state, &ch, &mut rng).unwrap_err();
        assert!(matches!(err, CircuitError::Core(CoreError::InvalidProbability(_))), "{err:?}");
    }

    #[test]
    fn readout_flip_respects_probability() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut flipped = 0usize;
        let n = 10_000;
        for _ in 0..n {
            let mut digits = vec![1usize];
            apply_readout_flip(&mut digits, &[3], 0.25, &mut rng);
            if digits[0] != 1 {
                flipped += 1;
                assert!(digits[0] < 3);
            }
        }
        let rate = flipped as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02);
    }

    #[test]
    fn out_of_range_readout_flip_is_rejected_on_every_backend() {
        let mut c = crate::Circuit::uniform(2, 3);
        c.push(crate::Gate::fourier(3), &[0]).unwrap();
        c.measure(&[1]).unwrap();
        let rejected = |result: Result<()>, p: f64, backend: &str| match result {
            Err(CircuitError::InvalidChannel(msg)) => {
                assert_eq!(msg, format!("probability {p} outside [0, 1]"), "{backend}");
            }
            other => panic!("{backend}: readout flip {p} gave {other:?}"),
        };
        for p in [1.5, -0.2, f64::NAN] {
            let noise = crate::noise::NoiseModel::noiseless().with_readout_flip(p);
            let sv = StatevectorSimulator::new().with_noise(noise.clone());
            rejected(sv.compile(&c).map(drop), p, "statevector compile");
            rejected(sv.sample_counts(&c, 8).map(drop), p, "statevector sample_counts");
            let dm = DensityMatrixSimulator::new().with_noise(noise.clone());
            rejected(dm.compile(&c).map(drop), p, "density compile");
            rejected(dm.sample_counts(&c, 8).map(drop), p, "density sample_counts");
            let traj = TrajectorySimulator::new(4).with_noise(noise);
            rejected(traj.compile(&c).map(drop), p, "trajectory compile");
            rejected(traj.sample_counts(&c, 2).map(drop), p, "trajectory sample_counts");
        }
    }

    #[test]
    fn readout_flip_zero_probability_is_noop() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut digits = vec![2usize, 0, 1];
        apply_readout_flip(&mut digits, &[3, 3, 3], 0.0, &mut rng);
        assert_eq!(digits, vec![2, 0, 1]);
    }
}
