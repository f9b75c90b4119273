//! `QuditQaoa::sample_assignments` against its serial oracle: every shot is
//! one trajectory's final state, run one state at a time with
//! `TrajectorySimulator::run_single`, sampled once with `QuditState::sample`
//! from the `seed + 77` stream and then read out through the noise model's
//! readout flips on the same stream.

use qopt::graph::{ColoringProblem, Graph};
use qopt::qaoa::{QaoaConfig, QuditQaoa};
use qudit_circuit::noise::NoiseModel;
use qudit_circuit::sim::{apply_readout_flip, TrajectorySimulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn triangle_qaoa(layers: usize, seed: u64) -> QuditQaoa {
    let problem = ColoringProblem::new(Graph::complete(3).unwrap(), 3).unwrap();
    QuditQaoa::new(problem, QaoaConfig { layers, seed, ..QaoaConfig::default() })
}

/// Each shot's physical digits as the oracle draws them, before and after
/// the readout flips.
fn serial_shots(
    qaoa: &QuditQaoa,
    seed: u64,
    (gammas, betas): (&[f64], &[f64]),
    noise: &NoiseModel,
    shots: usize,
) -> Vec<(Vec<usize>, Vec<usize>)> {
    let circuit = qaoa.circuit(gammas, betas).unwrap();
    let sim = TrajectorySimulator::new(shots).with_seed(seed).with_noise(noise.clone());
    let mut rng = StdRng::seed_from_u64(seed + 77);
    (0..shots)
        .map(|t| {
            let drawn = sim.run_single(&circuit, t).unwrap().sample(&mut rng);
            let mut read = drawn.clone();
            apply_readout_flip(&mut read, circuit.dims(), noise.readout_flip, &mut rng);
            (drawn, read)
        })
        .collect()
}

#[test]
fn sampled_assignments_are_bitwise_the_serial_trajectory_fold() {
    // 70 and 130 shots cross the executor's chunk boundaries at any thread
    // count; the noiseless model runs through the same executor.
    let seed = 19;
    let qaoa = triangle_qaoa(2, seed);
    let angles: (&[f64], &[f64]) = (&[0.7, 0.3], &[0.4, 0.9]);
    for noise in [NoiseModel::noiseless(), NoiseModel::cavity(0.15, 0.3, 0.0)] {
        for shots in [1, 70, 130] {
            let sampled = qaoa.sample_assignments(angles.0, angles.1, &noise, shots).unwrap();
            let serial = serial_shots(&qaoa, seed, angles, &noise, shots);
            assert_eq!(sampled.len(), shots);
            for (t, ((logical, value), (_, read))) in sampled.iter().zip(&serial).enumerate() {
                assert_eq!(*logical, qaoa.decode(read), "{noise:?}, shot {t} of {shots}");
                assert_eq!(*value, qaoa.problem().properly_colored(logical));
            }
        }
    }
}

#[test]
fn readout_error_moves_about_its_share_of_sampled_digits() {
    let seed = 23;
    let qaoa = triangle_qaoa(1, seed);
    let (p, shots) = (0.2, 400);
    let noise = NoiseModel::noiseless().with_readout_flip(p);
    let sampled = qaoa.sample_assignments(&[0.6], &[0.4], &noise, shots).unwrap();
    let serial = serial_shots(&qaoa, seed, (&[0.6], &[0.4]), &noise, shots);
    let mut moved = 0;
    for ((logical, _), (drawn, read)) in sampled.iter().zip(&serial) {
        assert_eq!(*logical, qaoa.decode(read));
        moved += drawn.iter().zip(read).filter(|(a, b)| a != b).count();
    }
    // 1200 digits: the binomial standard deviation of the share is 0.012.
    let share = moved as f64 / (3 * shots) as f64;
    assert!((share - p).abs() < 0.05, "readout error moved {share} of the digits");
}
