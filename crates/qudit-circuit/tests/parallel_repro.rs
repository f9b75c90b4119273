//! Parallel-execution invariants: trajectory estimates and samples and
//! density runs must produce results that are bitwise independent of the
//! worker-thread count, and reproducible from a fixed seed.
//!
//! The trajectory executor's chunk width is `min(64, ⌈n/threads⌉)` on these
//! small registers, so the trajectory suites also sweep `UNEVEN_SIZES ×
//! {1, 3}` threads: widths that do not divide `n`, a single trajectory, and
//! ensembles that need more than one wave of chunks.

use qudit_circuit::gate::Gate;
use qudit_circuit::noise::NoiseModel;
use qudit_circuit::sim::{
    DensityMatrixSimulator, StatevectorSimulator, SuperopConfig, TrajectorySimulator,
};
use qudit_circuit::{Circuit, Observable};

/// Trajectory counts whose chunking at 3 threads leaves ragged last chunks
/// (20 → 7+7+6, 70 → 24+24+22, 130 → 44+44+42) next to the trivial 1.
const UNEVEN_SIZES: [usize; 4] = [1, 20, 70, 130];

/// `(n_trajectories, thread counts)` pairs every trajectory suite checks:
/// the suite's own size over its thread sweep, plus the uneven sizes at 1
/// and 3 threads.
fn sizes_and_threads(n: usize, threads: &'static [usize]) -> Vec<(usize, &'static [usize])> {
    let mut cases = vec![(n, threads)];
    cases.extend(UNEVEN_SIZES.iter().map(|&n| (n, &[1usize, 3][..])));
    cases
}

fn noisy_circuit() -> Circuit {
    let mut c = Circuit::uniform(3, 3);
    c.push(Gate::fourier(3), &[0]).unwrap();
    c.push(Gate::csum(3, 3), &[0, 1]).unwrap();
    c.push(Gate::csum(3, 3), &[1, 2]).unwrap();
    c.push(Gate::shift_x(3), &[2]).unwrap();
    c
}

#[test]
fn trajectory_expectation_is_bitwise_thread_invariant() {
    let c = noisy_circuit();
    let noise = NoiseModel::cavity(0.08, 0.15, 0.0);
    let obs = Observable::number(1, 3);
    for (n, threads) in sizes_and_threads(48, &[1, 2, 4, 8]) {
        let estimates: Vec<_> = threads
            .iter()
            .map(|&threads| {
                TrajectorySimulator::new(n)
                    .with_seed(17)
                    .with_noise(noise.clone())
                    .with_threads(threads)
                    .expectation(&c, &obs)
                    .unwrap()
            })
            .collect();
        for est in &estimates[1..] {
            // Bitwise: the reduction order is fixed, not merely statistically
            // equal.
            assert_eq!(est.mean.to_bits(), estimates[0].mean.to_bits(), "n = {n}");
            assert_eq!(est.std_error.to_bits(), estimates[0].std_error.to_bits(), "n = {n}");
            assert_eq!(est.n_trajectories, n);
        }
    }
}

#[test]
fn trajectory_outcome_distribution_is_thread_invariant() {
    let c = noisy_circuit();
    let noise = NoiseModel::depolarizing(0.05, 0.1);
    for (n, threads) in sizes_and_threads(32, &[1, 4]) {
        let dists: Vec<Vec<f64>> = threads
            .iter()
            .map(|&threads| {
                let sim = TrajectorySimulator::new(n)
                    .with_seed(3)
                    .with_noise(noise.clone())
                    .with_threads(threads);
                sim.outcome_distribution_compiled(&sim.compile(&c).unwrap()).unwrap().0
            })
            .collect();
        for dist in &dists[1..] {
            assert_eq!(dist.len(), dists[0].len());
            for (s, p) in dists[0].iter().zip(dist.iter()) {
                assert_eq!(s.to_bits(), p.to_bits(), "n = {n}");
            }
        }
    }
}

#[test]
fn trajectory_sample_counts_are_thread_invariant() {
    let c = noisy_circuit();
    let noise = NoiseModel::cavity(0.1, 0.2, 0.0).with_readout_flip(0.02);
    for (n, threads) in sizes_and_threads(16, &[1, 4]) {
        let counts: Vec<_> = threads
            .iter()
            .map(|&threads| {
                TrajectorySimulator::new(n)
                    .with_seed(9)
                    .with_noise(noise.clone())
                    .with_threads(threads)
                    .sample_counts(&c, 200)
                    .unwrap()
            })
            .collect();
        for c in &counts[1..] {
            assert_eq!(c, &counts[0], "n = {n}");
        }
        assert_eq!(counts[0].values().sum::<usize>(), n * 200);
    }
}

#[test]
fn parallel_estimates_are_reproducible_for_fixed_seed() {
    let c = noisy_circuit();
    let noise = NoiseModel::depolarizing(0.1, 0.1);
    let obs = Observable::number(0, 3);
    let a = TrajectorySimulator::new(64)
        .with_seed(5)
        .with_noise(noise.clone())
        .expectation(&c, &obs)
        .unwrap();
    let b =
        TrajectorySimulator::new(64).with_seed(5).with_noise(noise).expectation(&c, &obs).unwrap();
    assert_eq!(a.mean.to_bits(), b.mean.to_bits());
    assert_eq!(a.std_error.to_bits(), b.std_error.to_bits());
    assert_eq!(a.n_trajectories, 64);
}

#[test]
fn stochastic_statevector_shots_are_thread_invariant() {
    let mut c = noisy_circuit();
    c.measure(&[0]).unwrap(); // forces one trajectory per shot
    let serial =
        StatevectorSimulator::with_seed(33).with_threads(1).sample_counts(&c, 400).unwrap();
    let parallel =
        StatevectorSimulator::with_seed(33).with_threads(8).sample_counts(&c, 400).unwrap();
    assert_eq!(serial, parallel);
    assert_eq!(serial.values().sum::<usize>(), 400);
}

#[test]
fn density_run_is_bitwise_thread_invariant() {
    // Mixed radix, N = 72. With a superoperator budget of 3 the d = 4 qudit's
    // channels stay on the per-term Kraus path, two-qudit gates run as
    // sandwiches, and the d ≤ 3 gates fold with their depolarizing channels
    // into dense sweeps large enough for the pool to split.
    let mut c = Circuit::new(vec![4, 3, 2, 3]);
    c.push(Gate::fourier(4), &[0]).unwrap();
    c.push(Gate::fourier(3), &[1]).unwrap();
    c.push(Gate::csum(4, 3), &[0, 3]).unwrap();
    c.push(Gate::fourier(3), &[3]).unwrap();
    c.push(Gate::csum(3, 2), &[1, 2]).unwrap();
    c.push(Gate::shift_x(2), &[2]).unwrap();
    c.push(Gate::cphase(3, 3), &[3, 1]).unwrap();
    let sim = |threads| {
        DensityMatrixSimulator::new()
            .with_noise(NoiseModel::depolarizing(0.02, 0.05))
            .with_superop(SuperopConfig { enabled: true, max_dim: 3 })
            .with_threads(threads)
    };
    let plan = sim(1).compile(&c).unwrap();
    let stats = plan.superop_stats();
    assert!(stats.unitary_steps > 0 && stats.super_steps > 0 && stats.kraus_steps > 0, "{stats:?}");
    let bits = |threads| -> Vec<(u64, u64)> {
        let (rho, _) = sim(threads).run_compiled(&plan, None).unwrap();
        rho.matrix().as_slice().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    };
    let serial = bits(1);
    for threads in [2, 4] {
        assert!(bits(threads) == serial, "threads {threads}");
    }
}
