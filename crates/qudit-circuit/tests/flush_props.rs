//! Property tests for wire-local fusion flushing on syndrome-extraction-style
//! circuits: repeated ancilla measure + reset rounds interleaved with
//! entangling layers on random mixed-radix registers. Wire-local flushing
//! re-orders disjoint-support blocks past mid-circuit measurements, so these
//! tests pin, for all three simulators, against the unfused reference,
//!
//! * wire-local ≡ unfused final states at `1e-12`,
//! * **bitwise identical** measurement records and shot counts with and
//!   without fusion (the RNG-stream alignment guarantee: every stochastic draw
//!   consumes the same variates against the same distribution in the same
//!   order; outcome equality is exact except on a ~1 ulp boundary knife
//!   edge with probability ~1e-16 per draw, which these seeded workloads
//!   never hit — see the `fusion` module docs), and
//! * that the circuits actually exercise the feature (blocks do cross
//!   barriers under the wire-local policy).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qudit_circuit::noise::NoiseModel;
use qudit_circuit::sim::{
    DensityMatrixSimulator, FusionConfig, StatevectorSimulator, TrajectorySimulator,
};
use qudit_circuit::{Circuit, Gate, Observable};

const TOL: f64 = 1e-12;

fn wire_local() -> FusionConfig {
    FusionConfig::default()
}

fn unfused() -> FusionConfig {
    FusionConfig::disabled()
}

/// A random single-qudit gate (diagonal, monomial or dense) on wire `q`.
fn push_random_1q(c: &mut Circuit, dims: &[usize], q: usize, rng: &mut StdRng) {
    let d = dims[q];
    match rng.gen_range(0..5) {
        0 => {
            let phases: Vec<f64> =
                (0..d).map(|_| rng.gen::<f64>() * std::f64::consts::TAU).collect();
            c.push(Gate::snap(d, &phases), &[q]).unwrap();
        }
        1 => c.push(Gate::clock_z(d), &[q]).unwrap(),
        2 => c.push(Gate::shift_x(d), &[q]).unwrap(),
        3 => c.push(Gate::weyl(d, rng.gen_range(0..d), rng.gen_range(0..d)), &[q]).unwrap(),
        _ => c.push(Gate::fourier(d), &[q]).unwrap(),
    }
}

/// A randomized syndrome-extraction-style circuit on a mixed-radix register:
/// the last qudit is the ancilla; each round applies gate runs on the data
/// wires, entangles a random data subset with the ancilla (stabilizer-style
/// CSUMs), measures the ancilla and resets it. Data wires outside the
/// round's subset have runs that must survive the readout under wire-local
/// flushing.
fn random_syndrome_circuit(rng: &mut StdRng) -> Circuit {
    let n_data = rng.gen_range(3..=4);
    let mut dims: Vec<usize> = (0..n_data).map(|_| rng.gen_range(2..=4)).collect();
    dims.push(rng.gen_range(2..=3)); // ancilla
    let anc = n_data;
    let mut c = Circuit::new(dims.clone());
    let rounds = rng.gen_range(2..=4);
    for _ in 0..rounds {
        // Data dynamics: a short run on every data wire.
        for q in 0..n_data {
            for _ in 0..rng.gen_range(1..=3) {
                push_random_1q(&mut c, &dims, q, rng);
            }
        }
        // Occasionally a two-qudit data gate.
        if rng.gen::<f64>() < 0.5 {
            let a = rng.gen_range(0..n_data - 1);
            c.push(Gate::csum(dims[a], dims[a + 1]), &[a, a + 1]).unwrap();
        }
        // Stabilizer readout: entangle a random data subset with the ancilla.
        let k = rng.gen_range(1..=2);
        let mut subset: Vec<usize> = (0..n_data).collect();
        for _ in 0..n_data - k {
            subset.remove(rng.gen_range(0..subset.len()));
        }
        for &q in &subset {
            c.push(Gate::csum(dims[q], dims[anc]), &[q, anc]).unwrap();
        }
        c.measure(&[anc]).unwrap();
        c.reset(anc).unwrap();
    }
    c.measure_all();
    c
}

fn amplitudes_match(a: &qudit_core::QuditState, b: &qudit_core::QuditState, context: &str) {
    assert_eq!(a.dim(), b.dim());
    for (x, y) in a.amplitudes().iter().zip(b.amplitudes().iter()) {
        assert!((*x - *y).abs() < TOL, "{context}: {x:?} vs {y:?}");
    }
}

#[test]
fn statevector_wire_local_equals_unfused() {
    let mut crossed = 0usize;
    for trial in 0..20 {
        let mut rng = StdRng::seed_from_u64(9000 + trial);
        let c = random_syndrome_circuit(&mut rng);
        let seed = 120 + trial;
        let runs: Vec<_> = [wire_local(), unfused()]
            .into_iter()
            .map(|cfg| {
                StatevectorSimulator::with_seed(seed).with_fusion(cfg).run_detailed(&c).unwrap()
            })
            .collect();
        // Bitwise identical measurement records: the RNG-stream alignment
        // guarantee (same draws, same distributions, same order).
        assert_eq!(runs[0].measurements, runs[1].measurements, "trial {trial}");
        amplitudes_match(&runs[0].state, &runs[1].state, &format!("trial {trial} wl/unfused"));

        let stats = StatevectorSimulator::new().compile(&c).unwrap().fusion_stats();
        crossed += stats.barrier_crossings;
    }
    assert!(crossed > 0, "the workload must exercise wire-local crossings");
}

#[test]
fn shot_sampling_is_bitwise_identical_across_flush_policies() {
    for trial in 0..6 {
        let mut rng = StdRng::seed_from_u64(9500 + trial);
        let c = random_syndrome_circuit(&mut rng);
        let sample = |cfg: FusionConfig, threads: usize| {
            StatevectorSimulator::with_seed(400 + trial)
                .with_fusion(cfg)
                .with_threads(threads)
                .sample_counts(&c, 150)
                .unwrap()
        };
        let reference = sample(wire_local(), 1);
        assert_eq!(sample(unfused(), 1), reference, "trial {trial} unfused");
        // Thread-count invariance must survive the re-ordered plan too.
        assert_eq!(sample(wire_local(), 4), reference, "trial {trial} threads");
    }
}

#[test]
fn trajectory_sampling_is_bitwise_identical_across_flush_policies() {
    let mut rng = StdRng::seed_from_u64(9900);
    let c = random_syndrome_circuit(&mut rng);
    let noise = NoiseModel::cavity(0.05, 0.1, 0.0);
    let counts = |cfg: FusionConfig| {
        TrajectorySimulator::new(12)
            .with_seed(5)
            .with_noise(noise.clone())
            .with_fusion(cfg)
            .sample_counts(&c, 40)
            .unwrap()
    };
    let reference = counts(wire_local());
    assert_eq!(counts(unfused()), reference);
}

#[test]
fn trajectory_estimates_agree_across_flush_policies_under_noise() {
    for trial in 0..4 {
        let mut rng = StdRng::seed_from_u64(10_000 + trial);
        let c = random_syndrome_circuit(&mut rng);
        let noise = NoiseModel::depolarizing(0.01, 0.03);
        let obs = Observable::number(0, c.dims()[0]);
        let estimate = |cfg: FusionConfig| {
            TrajectorySimulator::new(16)
                .with_seed(70 + trial)
                .with_noise(noise.clone())
                .with_fusion(cfg)
                .expectation(&c, &obs)
                .unwrap()
                .mean
        };
        let wl = estimate(wire_local());
        // Per-trajectory RNG streams stay aligned, so the estimates match to
        // rounding, not just statistically.
        assert!((wl - estimate(unfused())).abs() < 1e-10, "trial {trial}");
    }
}

#[test]
fn density_wire_local_equals_unfused() {
    for trial in 0..10 {
        let mut rng = StdRng::seed_from_u64(11_000 + trial);
        let c = random_syndrome_circuit(&mut rng);
        // Mix of gate-level noise (noisy gates are barriers) and noiseless
        // trials (pure wire-local reordering).
        let noise = if trial % 2 == 0 {
            NoiseModel::noiseless()
        } else {
            NoiseModel::depolarizing(0.01, 0.02)
        };
        let run = |cfg: FusionConfig| {
            DensityMatrixSimulator::new()
                .with_noise(noise.clone())
                .with_fusion(cfg)
                .run(&c)
                .unwrap()
        };
        let wl = run(wire_local());
        let un = run(unfused());
        let diff = (wl.matrix() - un.matrix()).max_abs();
        assert!(diff < TOL, "trial {trial}: wire-local vs unfused differ by {diff}");
    }
}

#[test]
fn density_policies_agree_with_idle_loss_barriers() {
    // Lossy barriers decay every wire and must flush every open block even
    // under wire-local flushing; fused and unfused runs still agree.
    let mut rng = StdRng::seed_from_u64(12_000);
    let dims = vec![3, 2, 3];
    let mut c = Circuit::new(dims.clone());
    for round in 0..3 {
        for q in 0..dims.len() {
            push_random_1q(&mut c, &dims, q, &mut rng);
        }
        c.barrier();
        c.measure(&[round % dims.len()]).unwrap();
    }
    let noise = NoiseModel::cavity(0.0, 0.0, 0.2);
    let run = |cfg: FusionConfig| {
        DensityMatrixSimulator::new().with_noise(noise.clone()).with_fusion(cfg).run(&c).unwrap()
    };
    let wl = run(wire_local());
    let un = run(unfused());
    assert!((wl.matrix() - un.matrix()).max_abs() < TOL);
}

#[test]
fn wire_local_compiles_fewer_apply_steps_on_syndrome_workloads() {
    // The point of the feature: across random syndrome circuits, wire-local
    // plans must translation-validate, never emit more apply steps than the
    // unfused plan, and let runs cross readouts on a majority of trials.
    let mut crossed = 0usize;
    let trials = 20;
    for trial in 0..trials {
        let mut rng = StdRng::seed_from_u64(13_000 + trial);
        let c = random_syndrome_circuit(&mut rng);
        let wl_plan = StatevectorSimulator::new().with_fusion(wire_local()).compile(&c).unwrap();
        // Debug builds translation-validate the plan — in particular every
        // wire-local barrier crossing must be proven a disjoint-support
        // reordering.
        #[cfg(debug_assertions)]
        qudit_verify::verify_statevector(
            &c,
            &wl_plan,
            &qudit_verify::VerifyConfig::default().with_fusion(wire_local()),
        )
        .unwrap();
        let wl = wl_plan.fusion_stats();
        assert!(wl.unitary_steps_out <= wl.unitaries_in, "trial {trial}: {wl:?}");
        if wl.barrier_crossings > 0 {
            crossed += 1;
        }
    }
    assert!(
        crossed * 2 > trials as usize,
        "wire-local runs should cross readouts on most syndrome circuits ({crossed}/{trials})"
    );
}
