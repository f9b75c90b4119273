//! Pre-optimization reference kernels, reconstructed from the seed tree.
//!
//! PR 1 rewrote the simulation hot paths (stride plans, structured-operator
//! fast paths, cumulative-distribution sampling, no-clone Kraus branch
//! selection). The acceptance criterion requires the speedup to be measured
//! **in the same PR**, so this module re-implements the seed's algorithms —
//! per-call block-geometry setup, dense-only application, per-amplitude
//! digit decompositions, O(dim) per-shot sampling, per-branch state clones —
//! on top of the public API. `bench_kernels` times these against the
//! optimized paths; the tests below pin each one against its optimized
//! counterpart.
//!
//! Nothing here is wired into production code; it exists only as the
//! yardstick.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qudit_circuit::circuit::{Circuit, Instruction};
use qudit_circuit::noise::{KrausChannel, NoiseModel};
use qudit_circuit::sim::{CompiledCircuit, StatevectorSimulator};
use qudit_circuit::Observable;
use qudit_core::complex::Complex64;
use qudit_core::matrix::CMatrix;
use qudit_core::radix::Radix;
use qudit_core::state::QuditState;

/// Seed-style operator application: rebuilds target strides, sub-offsets and
/// the spectator enumeration on every call and always runs the dense
/// gather/apply/scatter kernel.
pub fn apply_operator(state: &mut QuditState, op: &CMatrix, targets: &[usize]) {
    let radix = state.radix().clone();
    let sub_dim = radix.subspace_dim(targets).expect("valid targets");
    assert_eq!(op.rows(), sub_dim);
    let target_strides: Vec<usize> =
        targets.iter().map(|&t| radix.stride(t).expect("validated")).collect();
    let target_dims: Vec<usize> = targets.iter().map(|&t| radix.dims()[t]).collect();
    let spectators: Vec<usize> = (0..radix.len()).filter(|k| !targets.contains(k)).collect();
    let spectator_dims: Vec<usize> = spectators.iter().map(|&k| radix.dims()[k]).collect();
    let spectator_strides: Vec<usize> =
        spectators.iter().map(|&k| radix.stride(k).expect("validated")).collect();

    let mut sub_offsets = vec![0usize; sub_dim];
    let target_radix = Radix::new(target_dims).expect("valid dims");
    for (sub_idx, offset) in sub_offsets.iter_mut().enumerate() {
        let digits = target_radix.digits_of(sub_idx).expect("in range");
        *offset = digits.iter().zip(target_strides.iter()).map(|(&d, &s)| d * s).sum();
    }

    let spectator_count: usize = spectator_dims.iter().product::<usize>().max(1);
    let mut scratch = vec![Complex64::ZERO; sub_dim];
    let mut spec_digits = vec![0usize; spectators.len()];
    let amps = state.amplitudes_mut();
    for _ in 0..spectator_count {
        let base: usize =
            spec_digits.iter().zip(spectator_strides.iter()).map(|(&d, &s)| d * s).sum();
        for (sub_idx, s) in scratch.iter_mut().enumerate() {
            *s = amps[base + sub_offsets[sub_idx]];
        }
        for (row, offset) in sub_offsets.iter().enumerate() {
            let mut acc = Complex64::ZERO;
            let op_row = op.row(row);
            for (col, s) in scratch.iter().enumerate() {
                acc += op_row[col] * *s;
            }
            amps[base + offset] = acc;
        }
        for k in (0..spec_digits.len()).rev() {
            spec_digits[k] += 1;
            if spec_digits[k] < spectator_dims[k] {
                break;
            }
            spec_digits[k] = 0;
        }
    }
}

/// Seed-style marginal: one digit decomposition per amplitude.
pub fn marginal_probabilities(state: &QuditState, targets: &[usize]) -> Vec<f64> {
    let radix = state.radix();
    let target_radix =
        Radix::new(targets.iter().map(|&t| radix.dims()[t]).collect()).expect("valid dims");
    let mut probs = vec![0.0; target_radix.total_dim()];
    for (idx, amp) in state.amplitudes().iter().enumerate() {
        let p = amp.norm_sqr();
        if p == 0.0 {
            continue;
        }
        let digits = radix.digits_of(idx).expect("in range");
        let sub: Vec<usize> = targets.iter().map(|&t| digits[t]).collect();
        probs[target_radix.index_of(&sub).expect("valid digits")] += p;
    }
    probs
}

/// Seed-style measurement: linear-scan outcome draw, then a digit
/// decomposition per amplitude to decide what survives the collapse.
pub fn measure(state: &mut QuditState, targets: &[usize], rng: &mut StdRng) -> Vec<usize> {
    let probs = marginal_probabilities(state, targets);
    let radix = state.radix().clone();
    let target_radix =
        Radix::new(targets.iter().map(|&t| radix.dims()[t]).collect()).expect("valid dims");
    let total: f64 = probs.iter().sum();
    let mut r: f64 = rng.gen::<f64>() * total;
    let mut outcome = probs.len() - 1;
    for (i, p) in probs.iter().enumerate() {
        if r < *p {
            outcome = i;
            break;
        }
        r -= p;
    }
    let outcome_digits = target_radix.digits_of(outcome).expect("in range");
    for (idx, amp) in state.amplitudes_mut().iter_mut().enumerate() {
        let digits = radix.digits_of(idx).expect("in range");
        let matches = targets.iter().zip(outcome_digits.iter()).all(|(&t, &o)| digits[t] == o);
        if !matches {
            *amp = Complex64::ZERO;
        }
    }
    state.normalize().expect("collapsed state has positive norm");
    outcome_digits
}

/// Seed-style stochastic Kraus channel: every branch is materialised on a
/// cloned state before one is selected.
pub fn apply_channel_stochastic(
    state: &mut QuditState,
    channel: &KrausChannel,
    targets: &[usize],
    rng: &mut StdRng,
) -> usize {
    let ops = channel.operators();
    if ops.len() == 1 {
        apply_operator(state, &ops[0], targets);
        return 0;
    }
    let mut r: f64 = rng.gen::<f64>();
    let mut candidates: Vec<(usize, QuditState, f64)> = Vec::with_capacity(ops.len());
    for (k, op) in ops.iter().enumerate() {
        let mut branch = state.clone();
        apply_operator(&mut branch, op, targets);
        let p = branch.norm_sqr();
        candidates.push((k, branch, p));
    }
    let total: f64 = candidates.iter().map(|(_, _, p)| p).sum();
    r *= total;
    for (k, branch, p) in candidates {
        if r < p || k == ops.len() - 1 {
            let mut chosen = branch;
            chosen.normalize().expect("selected branch has positive norm");
            *state = chosen;
            return k;
        }
        r -= p;
    }
    unreachable!("one Kraus branch is always selected")
}

/// Seed-style per-shot sampling: O(dim) linear scan over the probability
/// vector for every shot.
pub fn sample_counts(state: &QuditState, rng: &mut StdRng, shots: usize) -> Vec<usize> {
    let mut counts = vec![0usize; state.dim()];
    let probs = state.probabilities();
    let total: f64 = probs.iter().sum();
    for _ in 0..shots {
        let mut r: f64 = rng.gen::<f64>() * total;
        let mut chosen = probs.len() - 1;
        for (i, p) in probs.iter().enumerate() {
            if r < *p {
                chosen = i;
                break;
            }
            r -= p;
        }
        counts[chosen] += 1;
    }
    counts
}

/// Seed-style expectation value: clone the state, apply the operator, take
/// the inner product (per observable term).
pub fn expectation(state: &QuditState, observable: &Observable) -> f64 {
    let mut acc = 0.0;
    for term in observable.terms() {
        let mut applied = state.clone();
        for (q, op) in &term.factors {
            apply_operator(&mut applied, op, &[*q]);
        }
        acc += term.coeff * state.inner(&applied).expect("same register").re;
    }
    acc
}

/// Seed-style single stochastic state-vector run: per-call channel
/// construction, dense-only application, clone-per-branch channels.
pub fn run_statevector(circuit: &Circuit, noise: &NoiseModel, rng: &mut StdRng) -> QuditState {
    let mut state = QuditState::zero(circuit.dims().to_vec()).expect("valid dims");
    let dims = circuit.dims().to_vec();
    for inst in circuit.instructions() {
        match inst {
            Instruction::Unitary { gate, targets } => {
                apply_operator(&mut state, gate.matrix(), targets);
                for (channel, qudit) in
                    noise.channels_after_gate(targets, &dims).expect("valid noise")
                {
                    apply_channel_stochastic(&mut state, &channel, &[qudit], rng);
                }
            }
            Instruction::Measure { targets } => {
                measure(&mut state, targets, rng);
            }
            Instruction::Reset { target } => {
                let outcome = measure(&mut state, &[*target], rng);
                let level = outcome[0];
                if level != 0 {
                    let d = dims[*target];
                    // Seed construction: k repeated matrix products.
                    let x = qudit_circuit::gates::shift_x(d);
                    let mut acc = CMatrix::identity(d);
                    for _ in 0..((d - level) % d) {
                        acc = x.matmul(&acc).expect("square");
                    }
                    apply_operator(&mut state, &acc, &[*target]);
                }
            }
            Instruction::Channel { channel, targets } => {
                apply_channel_stochastic(&mut state, channel, targets, rng);
            }
            Instruction::Barrier => {
                if noise.idle_photon_loss > 0.0 {
                    for (q, &d) in dims.iter().enumerate() {
                        let loss = KrausChannel::photon_loss(d, noise.idle_photon_loss)
                            .expect("valid loss");
                        apply_channel_stochastic(&mut state, &loss, &[q], rng);
                    }
                }
            }
        }
    }
    state
}

/// PR-1-style scoped fork-join `par_map`: spawns and joins OS threads on
/// every call (`std::thread::scope`), the behaviour the persistent pool in
/// `qudit_core::par` replaced. Kept as the spawn-overhead yardstick.
pub fn par_map_scoped<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n / threads;
    let rem = n % threads;
    let mut results: Vec<Vec<T>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let f = &f;
        let mut handles = Vec::with_capacity(threads);
        let mut start = 0usize;
        for t in 0..threads {
            let len = chunk + usize::from(t < rem);
            let range = start..start + len;
            start += len;
            handles.push(scope.spawn(move || range.map(f).collect::<Vec<T>>()));
        }
        for h in handles {
            results.push(h.join().expect("parallel worker panicked"));
        }
    });
    results.into_iter().flatten().collect()
}

/// PR-1-style Lindblad RK4 step: `L†`/`L†L` cached (that much PR 1 did), but
/// every right-hand-side evaluation and every RK4 stage allocates fresh
/// matrices — ~10 full-dimension allocations per step. The in-place
/// `Rk4Workspace` integrator in `cavity_sim::lindblad` replaced this.
pub fn lindblad_evolve_cloning(
    hamiltonian: &CMatrix,
    collapse: &[(CMatrix, f64)],
    rho: &mut qudit_core::density::DensityMatrix,
    t: f64,
    dt: f64,
) {
    use qudit_core::complex::c64;
    let cached: Vec<(CMatrix, CMatrix, CMatrix, f64)> = collapse
        .iter()
        .map(|(l, rate)| {
            let l_dag = l.dagger();
            let ldag_l = l_dag.matmul(l).expect("square");
            (l.clone(), l_dag, ldag_l, *rate)
        })
        .collect();
    let rhs = |m: &CMatrix| -> CMatrix {
        let hr = hamiltonian.matmul(m).expect("square");
        let rh = m.matmul(hamiltonian).expect("square");
        let mut out = (&hr - &rh).scaled(c64(0.0, -1.0));
        for (l, l_dag, ldag_l, rate) in &cached {
            let l_rho = l.matmul(m).expect("square");
            let l_rho_ldag = l_rho.matmul(l_dag).expect("square");
            let anti_1 = ldag_l.matmul(m).expect("square");
            let anti_2 = m.matmul(ldag_l).expect("square");
            let mut dissipator = l_rho_ldag;
            dissipator.axpy(c64(-0.5, 0.0), &anti_1).expect("same shape");
            dissipator.axpy(c64(-0.5, 0.0), &anti_2).expect("same shape");
            out.axpy(c64(*rate, 0.0), &dissipator).expect("same shape");
        }
        out
    };
    let steps = (t / dt).round().max(1.0) as usize;
    let h = t / steps as f64;
    for _ in 0..steps {
        let m = rho.matrix().clone();
        let k1 = rhs(&m);
        let mut m2 = m.clone();
        m2.axpy(c64(h / 2.0, 0.0), &k1).expect("same shape");
        let k2 = rhs(&m2);
        let mut m3 = m.clone();
        m3.axpy(c64(h / 2.0, 0.0), &k2).expect("same shape");
        let k3 = rhs(&m3);
        let mut m4 = m.clone();
        m4.axpy(c64(h, 0.0), &k3).expect("same shape");
        let k4 = rhs(&m4);
        let mut next = m;
        next.axpy(c64(h / 6.0, 0.0), &k1).expect("same shape");
        next.axpy(c64(h / 3.0, 0.0), &k2).expect("same shape");
        next.axpy(c64(h / 3.0, 0.0), &k3).expect("same shape");
        next.axpy(c64(h / 6.0, 0.0), &k4).expect("same shape");
        *rho.matrix_mut() = next;
        rho.normalize().expect("positive trace");
    }
}

/// Seed-style serial trajectory average of an observable.
pub fn trajectory_expectation(
    circuit: &Circuit,
    observable: &Observable,
    n_trajectories: usize,
    seed: u64,
    noise: &NoiseModel,
) -> f64 {
    let mut acc = 0.0;
    for t in 0..n_trajectories {
        let mut rng = StdRng::seed_from_u64(trajectory_seed(seed, t));
        let state = run_statevector(circuit, noise, &mut rng);
        acc += expectation(&state, observable);
    }
    acc / n_trajectories as f64
}

/// The per-trajectory seed `TrajectorySimulator::with_seed(seed)` gives
/// trajectory `t`.
fn trajectory_seed(seed: u64, t: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((t as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
}

/// One-state-at-a-time trajectory estimate over a precompiled plan on the
/// calling thread: `StatevectorSimulator::run_compiled` per trajectory,
/// seeded like `TrajectorySimulator::with_seed(seed)`, folded in trajectory
/// order into `(mean, standard error)`.
pub fn trajectory_loop(
    plan: &CompiledCircuit,
    noise: &NoiseModel,
    observable: &Observable,
    n_trajectories: usize,
    seed: u64,
) -> (f64, f64) {
    let values: Vec<f64> = (0..n_trajectories)
        .map(|t| {
            let out = StatevectorSimulator::with_seed(trajectory_seed(seed, t))
                .with_noise(noise.clone())
                .run_compiled(plan)
                .expect("plan compiled under the same noise model");
            observable.expectation(&out.state).expect("matching register")
        })
        .collect();
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows;
    use qudit_circuit::gate::Gate;

    #[test]
    fn baseline_apply_matches_optimized_apply() {
        let mut a = QuditState::basis(vec![3, 4, 2], &[1, 2, 0]).unwrap();
        let mut b = a.clone();
        let f = qudit_circuit::gates::fourier(4);
        apply_operator(&mut a, &f, &[1]);
        b.apply_operator(&f, &[1]).unwrap();
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes().iter()) {
            assert!((*x - *y).abs() < 1e-12);
        }
    }

    #[test]
    fn baseline_sampling_matches_optimized_distribution() {
        let mut c = Circuit::uniform(2, 3);
        c.push(Gate::fourier(3), &[0]).unwrap();
        let state = qudit_circuit::sim::StatevectorSimulator::new().run(&c).unwrap();
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        let slow = sample_counts(&state, &mut rng_a, 4000);
        let fast = state.sample_counts(&mut rng_b, 4000);
        // Identical RNG stream + equivalent inversion method → identical counts.
        assert_eq!(slow, fast);
    }

    // The tests below pin each `bench_kernels` baseline against its optimized
    // path on the row's own workload instance (`crate::rows`).

    #[test]
    fn lindblad_cloning_rk4_matches_in_place_integrator() {
        let (t, dt) = (rows::LINDBLAD.1, rows::LINDBLAD.2);
        let mut fast = rows::lindblad_initial();
        rows::lindblad().evolve(&mut fast, t, dt).unwrap();
        let mut slow = rows::lindblad_initial();
        let (h, collapse) = rows::lindblad_operators();
        lindblad_evolve_cloning(&h, &collapse, &mut slow, t, dt);
        let diff = (fast.matrix() - slow.matrix()).max_abs();
        assert!(diff < 1e-10, "integrators diverged by {diff}");
    }

    #[test]
    fn baseline_measure_matches_optimized_collapse() {
        // The `measure_collapse` row: two-qudit readouts of a 4-qutrit GHZ state.
        let ghz = rows::ghz();
        let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
        for _ in 0..200 {
            let (mut slow, mut fast) = (ghz.clone(), ghz.clone());
            let outcome = measure(&mut slow, &[1, 2], &mut rng_a);
            assert_eq!(outcome, fast.measure(&[1, 2], &mut rng_b).unwrap());
            for (x, y) in slow.amplitudes().iter().zip(fast.amplitudes()) {
                assert!((*x - *y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn baseline_sampling_matches_optimized_on_a_spread_state() {
        // The `state_sample_counts` row: 10k shots of a Haar-random dim-256 state.
        let dims = rows::sqed().dims().to_vec();
        let state = qudit_core::random::haar_state(&mut StdRng::seed_from_u64(2), dims).unwrap();
        let slow = sample_counts(&state, &mut StdRng::seed_from_u64(11), 10_000);
        assert_eq!(slow, state.sample_counts(&mut StdRng::seed_from_u64(11), 10_000));
    }

    #[test]
    fn baseline_trajectory_expectation_is_compatible_with_the_simulator() {
        let (circuit, noise) = (rows::sqed(), rows::noise());
        let obs = Observable::number(1, rows::SQED.1);
        let (n, seed) = rows::TRAJECTORIES;
        let slow = trajectory_expectation(&circuit, &obs, n, seed, &noise);
        let sim = qudit_circuit::sim::TrajectorySimulator::new(n).with_seed(seed).with_noise(noise);
        let fast = sim.expectation(&circuit, &obs).unwrap().mean;
        assert!((slow - fast).abs() < 0.5, "{slow} vs {fast}");
    }

    #[test]
    fn trajectory_loop_is_bitwise_identical_to_the_group_executor() {
        // The `batched_trajectories` row's baseline computes exactly the
        // executor's estimate, one state at a time.
        let (circuit, noise) = (rows::sqed(), rows::noise());
        let obs = Observable::number(1, rows::SQED.1);
        let (n, seed) = rows::TRAJECTORIES;
        let sim = qudit_circuit::sim::TrajectorySimulator::new(n)
            .with_seed(seed)
            .with_noise(noise.clone())
            .with_threads(1);
        let plan = sim.compile(&circuit).unwrap();
        let (mean, std_error) = trajectory_loop(&plan, &noise, &obs, n, seed);
        let est = sim.expectation_compiled(&plan, &obs).unwrap();
        assert_eq!(mean.to_bits(), est.mean.to_bits());
        assert_eq!(std_error.to_bits(), est.std_error.to_bits());
    }
}
