//! Shot sampling from discrete probability distributions.
//!
//! The seed drew each shot with an O(dim) linear scan over the probability
//! vector; [`Cdf`] precomputes the cumulative distribution once and draws
//! each shot with a binary search, taking `shots` samples from
//! `O(shots · dim)` to `O(dim + shots · log dim)`. The same sampler backs
//! [`crate::state::QuditState::sample_counts`],
//! [`crate::density::DensityMatrix::sample_counts`] and every circuit
//! simulator's sampler.
//!
//! ## Degenerate distributions
//!
//! A distribution can be **empty** (no outcomes at all) or **zero-mass**
//! (outcomes exist but every weight is zero — e.g. a probability vector that
//! underflowed to nothing). Neither has a drawable outcome, and silently
//! returning one would violate the sampler's core guarantee that a
//! zero-weight outcome is never drawn. [`Cdf::try_draw`] makes the two cases
//! explicit (`None`); [`Cdf::draw`] panics on them with a clear message.
//! Callers that own a fallback convention (the state and density samplers
//! map a zero-mass register to the all-zeros outcome) apply it on the `None`
//! branch, where it is visible and documented, instead of deep inside the
//! binary search.

use rand::Rng;

/// A cumulative distribution over `0..len` outcomes.
///
/// Weights need not be normalised; draws are scaled by the total mass, so a
/// slightly-off-unit quantum probability vector samples correctly. An
/// outcome with zero weight is never drawn (see [`Cdf::try_draw`] for the
/// degenerate distributions where no outcome is drawable at all).
#[derive(Debug, Clone)]
pub struct Cdf {
    cumulative: Vec<f64>,
}

impl Cdf {
    /// Builds the sampler from non-negative weights (negative weights are
    /// clamped to zero).
    pub fn from_weights(weights: impl IntoIterator<Item = f64>) -> Self {
        let mut acc = 0.0f64;
        let cumulative = weights
            .into_iter()
            .map(|w| {
                acc += w.max(0.0);
                acc
            })
            .collect();
        Self { cumulative }
    }

    /// Number of outcomes.
    #[inline]
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Returns `true` if there are no outcomes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Total mass of the distribution (zero for an empty one).
    #[inline]
    pub fn total(&self) -> f64 {
        self.cumulative.last().copied().unwrap_or(0.0)
    }

    /// Draws one outcome index, or `None` when the distribution has no
    /// drawable outcome (it is empty, or its total mass is zero or
    /// non-finite).
    ///
    /// A drawn outcome always has strictly positive weight. Whenever the
    /// distribution is non-empty exactly **one** uniform variate is consumed
    /// — including on the zero-mass `None` branch — so RNG streams stay
    /// aligned with [`Cdf::draw`] no matter which outcomes carry mass.
    #[inline]
    pub fn try_draw<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<usize> {
        if self.is_empty() {
            return None;
        }
        let total = self.total();
        let target = rng.gen::<f64>() * total;
        if !(total > 0.0 && total.is_finite()) {
            return None;
        }
        Some(self.index_of(target))
    }

    /// Draws one outcome index (one uniform variate per draw, matching the
    /// seed's consumption so RNG streams stay aligned).
    ///
    /// # Panics
    /// Panics when the distribution has no drawable outcome (empty, or zero
    /// total mass); use [`Cdf::try_draw`] to handle those cases. The zero
    /// total previously returned the *last* outcome despite its zero weight,
    /// which broke the "zero-weight outcomes are never drawn" guarantee.
    #[inline]
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.try_draw(rng)
            .expect("Cdf::draw on an empty or zero-mass distribution (use Cdf::try_draw)")
    }

    /// Maps a mass coordinate in `[0, total)` to its outcome index. Targets
    /// at or above the total mass clamp to the last outcome.
    ///
    /// # Panics
    /// Panics on an empty distribution (there is no index to return); the
    /// bound used to underflow here instead of failing cleanly.
    #[inline]
    pub fn index_of(&self, target: f64) -> usize {
        assert!(!self.is_empty(), "Cdf::index_of on an empty distribution");
        let idx = self.cumulative.partition_point(|&c| c <= target);
        idx.min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn draws_follow_the_weights() {
        let cdf = Cdf::from_weights([0.1, 0.0, 0.6, 0.3]);
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = [0usize; 4];
        let n = 100_000;
        for _ in 0..n {
            counts[cdf.draw(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight outcome must never be drawn");
        assert!((counts[0] as f64 / n as f64 - 0.1).abs() < 0.01);
        assert!((counts[2] as f64 / n as f64 - 0.6).abs() < 0.01);
        assert!((counts[3] as f64 / n as f64 - 0.3).abs() < 0.01);
    }

    #[test]
    fn index_of_matches_linear_scan() {
        let weights = [0.25, 0.5, 0.125, 0.125];
        let cdf = Cdf::from_weights(weights);
        for k in 0..1000 {
            let target = k as f64 / 1000.0;
            // Seed-style linear scan.
            let mut r = target;
            let mut expected = weights.len() - 1;
            for (i, w) in weights.iter().enumerate() {
                if r < *w {
                    expected = i;
                    break;
                }
                r -= w;
            }
            assert_eq!(cdf.index_of(target), expected, "target {target}");
        }
    }

    #[test]
    fn unnormalised_weights_are_handled() {
        let cdf = Cdf::from_weights([2.0, 2.0]);
        assert!((cdf.total() - 4.0).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(4);
        let mut ones = 0;
        for _ in 0..10_000 {
            ones += cdf.draw(&mut rng);
        }
        assert!((ones as f64 / 10_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn empty_distribution_has_no_draw() {
        let cdf = Cdf::from_weights(std::iter::empty());
        assert!(cdf.is_empty());
        assert_eq!(cdf.total(), 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(cdf.try_draw(&mut rng), None);
    }

    #[test]
    #[should_panic(expected = "empty or zero-mass")]
    fn draw_on_empty_distribution_panics_cleanly() {
        // Regression: this used to underflow `len() - 1` inside index_of.
        let cdf = Cdf::from_weights(std::iter::empty());
        let mut rng = StdRng::seed_from_u64(1);
        let _ = cdf.draw(&mut rng);
    }

    #[test]
    #[should_panic(expected = "empty distribution")]
    fn index_of_on_empty_distribution_panics_cleanly() {
        let cdf = Cdf::from_weights(std::iter::empty());
        let _ = cdf.index_of(0.0);
    }

    #[test]
    fn zero_mass_distribution_never_yields_an_outcome() {
        // Regression: a fully-decayed (all-zero) weight vector used to return
        // the last outcome from draw() even though its weight is zero.
        let cdf = Cdf::from_weights([0.0, 0.0, 0.0]);
        assert!(!cdf.is_empty());
        assert_eq!(cdf.total(), 0.0);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            assert_eq!(cdf.try_draw(&mut rng), None);
        }
    }

    #[test]
    #[should_panic(expected = "empty or zero-mass")]
    fn draw_on_zero_mass_distribution_panics_cleanly() {
        let cdf = Cdf::from_weights([0.0, 0.0]);
        let mut rng = StdRng::seed_from_u64(3);
        let _ = cdf.draw(&mut rng);
    }

    #[test]
    fn trailing_zero_weights_are_never_drawn() {
        // The zero-weight guarantee at the top edge: a rounding-level target
        // near the total must land on the last *positive* outcome.
        let cdf = Cdf::from_weights([0.5, 0.5, 0.0, 0.0]);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50_000 {
            assert!(cdf.draw(&mut rng) < 2);
        }
        // Clamped mass coordinates (>= total) stay off the zero tail too...
        assert_eq!(cdf.index_of(1.0 - 1e-16), 1);
        // ...except the documented clamp for out-of-contract targets.
        assert_eq!(cdf.index_of(2.0), 3);
    }

    #[test]
    fn try_draw_consumes_one_variate_when_nonempty() {
        // RNG-stream alignment: try_draw must consume exactly one uniform
        // variate per call on any non-empty distribution, drawable or not.
        let live = Cdf::from_weights([0.3, 0.7]);
        let dead = Cdf::from_weights([0.0, 0.0]);
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        let _ = live.try_draw(&mut a);
        let _ = dead.try_draw(&mut b);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "streams diverged after one draw");
    }
}
