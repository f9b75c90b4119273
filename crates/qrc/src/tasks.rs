//! Benchmark time-series tasks for reservoir computing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A supervised time-series task: inputs and per-step targets.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesTask {
    /// Task name.
    pub name: String,
    /// Input sequence `u_k`.
    pub inputs: Vec<f64>,
    /// Target sequence `y_k` (same length).
    pub targets: Vec<f64>,
}

impl TimeSeriesTask {
    /// Length of the series.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Returns `true` if the task is empty.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Splits into (train, test) at the given fraction.
    pub fn split(&self, train_fraction: f64) -> (TimeSeriesTask, TimeSeriesTask) {
        let cut = ((self.len() as f64) * train_fraction).round() as usize;
        let cut = cut.clamp(1, self.len().saturating_sub(1).max(1));
        (
            TimeSeriesTask {
                name: format!("{}-train", self.name),
                inputs: self.inputs[..cut].to_vec(),
                targets: self.targets[..cut].to_vec(),
            },
            TimeSeriesTask {
                name: format!("{}-test", self.name),
                inputs: self.inputs[cut..].to_vec(),
                targets: self.targets[cut..].to_vec(),
            },
        )
    }
}

/// NARMA-`order` nonlinear autoregressive moving-average task: random inputs
/// in `[0, 0.5]`, targets follow the standard NARMA recursion.
pub fn narma(order: usize, length: usize, seed: u64) -> TimeSeriesTask {
    let order = order.max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let inputs: Vec<f64> = (0..length).map(|_| 0.5 * rng.gen::<f64>()).collect();
    let mut y = vec![0.0_f64; length];
    for k in 0..length.saturating_sub(1) {
        let window_sum: f64 = (0..order).map(|j| y[k.saturating_sub(j)]).sum();
        let u_back = inputs[k.saturating_sub(order - 1)];
        let next = 0.3 * y[k] + 0.05 * y[k] * window_sum + 1.5 * u_back * inputs[k] + 0.1;
        y[k + 1] = next.clamp(-5.0, 5.0);
    }
    TimeSeriesTask { name: format!("NARMA-{order}"), inputs, targets: y }
}

/// Discretised Mackey–Glass chaotic series (τ = 17); the task is one-step-
/// ahead prediction, so `targets[k] = series[k+1]` and the last sample is
/// dropped.
pub fn mackey_glass(length: usize, seed: u64) -> TimeSeriesTask {
    let tau = 17usize;
    let dt = 1.0;
    let mut rng = StdRng::seed_from_u64(seed);
    let warmup = 200;
    let total = length + warmup + 1;
    let mut x = vec![1.2 + 0.1 * rng.gen::<f64>(); total + tau];
    for k in tau..(total + tau - 1) {
        let delayed = x[k - tau];
        let dx = 0.2 * delayed / (1.0 + delayed.powi(10)) - 0.1 * x[k];
        x[k + 1] = x[k] + dt * dx;
    }
    let series: Vec<f64> = x[(warmup + tau)..(warmup + tau + length + 1)].to_vec();
    TimeSeriesTask {
        name: "Mackey-Glass".into(),
        inputs: series[..length].to_vec(),
        targets: series[1..=length].to_vec(),
    }
}

/// Short-term-memory task: the target is the input delayed by `delay` steps.
pub fn memory_task(length: usize, delay: usize, seed: u64) -> TimeSeriesTask {
    let mut rng = StdRng::seed_from_u64(seed);
    let inputs: Vec<f64> = (0..length).map(|_| rng.gen::<f64>() - 0.5).collect();
    let targets: Vec<f64> =
        (0..length).map(|k| if k >= delay { inputs[k - delay] } else { 0.0 }).collect();
    TimeSeriesTask { name: format!("memory-{delay}"), inputs, targets }
}

/// Normalised mean squared error between predictions and targets.
pub fn nmse(predictions: &[f64], targets: &[f64]) -> f64 {
    let n = predictions.len().min(targets.len());
    if n == 0 {
        return f64::NAN;
    }
    let mean = targets.iter().take(n).sum::<f64>() / n as f64;
    let mut num = 0.0;
    let mut den = 0.0;
    for i in 0..n {
        num += (predictions[i] - targets[i]).powi(2);
        den += (targets[i] - mean).powi(2);
    }
    if den < 1e-15 {
        num / n as f64
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narma_series_is_bounded_and_deterministic() {
        let a = narma(10, 200, 3);
        let b = narma(10, 200, 3);
        assert_eq!(a, b);
        assert!(a.targets.iter().all(|y| y.is_finite() && y.abs() <= 5.0));
        assert!(a.inputs.iter().all(|&u| (0.0..=0.5).contains(&u)));
        assert_eq!(a.len(), 200);
    }

    #[test]
    fn mackey_glass_is_nontrivial() {
        let task = mackey_glass(150, 1);
        assert_eq!(task.len(), 150);
        let mean = task.inputs.iter().sum::<f64>() / 150.0;
        let var = task.inputs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / 150.0;
        assert!(var > 1e-4, "series should fluctuate, var = {var}");
        // One-step-ahead structure.
        assert!((task.targets[0] - task.inputs[1]).abs() < 1e-12);
    }

    #[test]
    fn memory_task_shifts_inputs() {
        let task = memory_task(50, 3, 9);
        for k in 3..50 {
            assert!((task.targets[k] - task.inputs[k - 3]).abs() < 1e-12);
        }
    }

    #[test]
    fn nmse_properties() {
        let t = vec![1.0, 2.0, 3.0, 4.0];
        assert!(nmse(&t, &t) < 1e-15);
        let mean_pred = vec![2.5; 4];
        assert!((nmse(&mean_pred, &t) - 1.0).abs() < 1e-12);
        assert!(nmse(&[], &[]).is_nan());
    }

    #[test]
    fn split_preserves_total_length() {
        let task = narma(2, 100, 1);
        let (train, test) = task.split(0.7);
        assert_eq!(train.len() + test.len(), 100);
        assert_eq!(train.len(), 70);
    }
}
