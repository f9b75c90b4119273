//! Property test: density plans are prefix-closed at barriers.
//!
//! In a density plan every barrier closes every open fusion block and every
//! open superoperator fold, right after its idle-loss channels (if the model
//! has idle loss). So compiling `C1; barrier; C2` yields exactly the steps
//! of `C1; barrier` followed by the steps of `C2`, and running the whole
//! from ρ is bitwise the same as running the two halves one after the
//! other. Sampled time evolutions rely on this to continue from the
//! previous sample's state instead of restarting from ρ0.
//!
//! The seeded corpus mixes radices, diagonal, monomial and dense gates, a
//! free-parameter gate, explicit channels, measurements, resets and interior
//! barriers, and runs under a noiseless model (no-op barriers), gate noise,
//! and idle loss (lossy barriers), with fusion on and off, across every
//! superoperator budget of `plan_digest` and with batching off.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qudit_circuit::noise::{KrausChannel, NoiseModel};
use qudit_circuit::sim::{DensityMatrixSimulator, FusionConfig, SuperopConfig};
use qudit_circuit::{Circuit, Gate, Param};
use qudit_core::matrix::CMatrix;
use qudit_core::random::{haar_unitary, random_density};
use qudit_core::{Complex64, DensityMatrix};

/// The superoperator budgets `plan_digest` pins.
const SUPEROP_BUDGETS: [usize; 5] = [2, 4, 8, 16, 64];

const REGISTERS: [&[usize]; 6] = [&[2, 3], &[3, 3], &[2, 2, 3], &[3, 2, 2], &[2, 3, 4], &[4, 2]];

/// Appends a random instruction: mostly gates (one free-parameter kind),
/// sometimes a channel, a measurement, a reset or a barrier.
fn push_random(c: &mut Circuit, dims: &[usize], rng: &mut StdRng) {
    let n = dims.len();
    let roll: f64 = rng.gen();
    let q = rng.gen_range(0..n);
    let d = dims[q];
    if roll < 0.3 {
        let mut b = rng.gen_range(0..n - 1);
        if b >= q {
            b += 1;
        }
        let pair = vec![dims[q], dims[b]];
        let gate = match rng.gen_range(0..3) {
            0 => Gate::csum(pair[0], pair[1]),
            1 => Gate::custom("haar2", pair.clone(), haar_unitary(rng, pair[0] * pair[1]).unwrap())
                .unwrap(),
            _ => {
                let phases: Vec<Complex64> = (0..pair[0] * pair[1])
                    .map(|_| Complex64::cis(rng.gen::<f64>() * 6.0))
                    .collect();
                Gate::custom("cdiag", pair, CMatrix::diag(&phases)).unwrap()
            }
        };
        c.push(gate, &[q, b]).unwrap();
    } else if roll < 0.6 {
        let gate = match rng.gen_range(0..4) {
            0 => Gate::clock_z(d),
            1 => Gate::shift_x(d),
            2 => Gate::fourier(d),
            _ => Gate::snap(d, &(0..d).map(|_| rng.gen::<f64>() * 6.0).collect::<Vec<_>>()),
        };
        c.push(gate, &[q]).unwrap();
    } else if roll < 0.68 {
        let a = CMatrix::from_fn(d, d, |_, _| {
            Complex64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5)
        });
        let g = Gate::parameterized("mix", vec![d], &a.hermitian_part(), Param::Free(0));
        c.push(g.unwrap(), &[q]).unwrap();
    } else if roll < 0.78 {
        let ch = match rng.gen_range(0..3) {
            0 => KrausChannel::photon_loss(d, 0.3).unwrap(),
            1 => KrausChannel::dephasing(d, 0.4).unwrap(),
            _ => KrausChannel::depolarizing(d, 0.2).unwrap(),
        };
        c.push_channel(ch, &[q]).unwrap();
    } else if roll < 0.84 {
        c.measure(&[q]).unwrap();
    } else if roll < 0.9 {
        c.reset(q).unwrap();
    } else {
        c.barrier();
    }
}

fn random_circuit(dims: &[usize], len: usize, rng: &mut StdRng) -> Circuit {
    let mut c = Circuit::new(dims.to_vec());
    // Every half carries the free parameter, so each plan takes one binding.
    let g = Gate::parameterized("sep", vec![dims[0]], &CMatrix::identity(dims[0]), Param::Free(0));
    c.push(g.unwrap(), &[0]).unwrap();
    for _ in 0..len {
        push_random(&mut c, dims, rng);
    }
    c
}

fn bits(rho: &DensityMatrix) -> Vec<(u64, u64)> {
    rho.matrix().as_slice().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

/// Compiles and runs `c` from `rho` at binding `theta`, returning ρ and the
/// plan's step count.
fn run(
    sim: &DensityMatrixSimulator,
    c: &Circuit,
    theta: f64,
    rho: &DensityMatrix,
) -> (DensityMatrix, usize) {
    let mut plan = sim.compile(c).unwrap();
    plan.bind(&[theta]).unwrap();
    let steps = plan.num_steps();
    (sim.run_compiled(&plan, Some(rho)).unwrap().0, steps)
}

#[test]
fn density_plans_are_prefix_closed_at_barriers() {
    let noises = [
        ("noiseless", NoiseModel::noiseless()),
        ("gate noise", NoiseModel::depolarizing(0.01, 0.03)),
        ("idle loss", NoiseModel::cavity(0.02, 0.05, 0.1)),
    ];
    let mut superops: Vec<SuperopConfig> =
        SUPEROP_BUDGETS.iter().map(|&max_dim| SuperopConfig { enabled: true, max_dim }).collect();
    superops.push(SuperopConfig::disabled());
    for trial in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(28_000 + trial);
        let dims = REGISTERS[trial as usize % REGISTERS.len()].to_vec();
        let mut head = random_circuit(&dims, rng.gen_range(4usize..12), &mut rng);
        head.barrier();
        let tail = random_circuit(&dims, rng.gen_range(4usize..12), &mut rng);
        let mut whole = head.clone();
        whole.extend(&tail).unwrap();
        let total: usize = dims.iter().product();
        let rho0 =
            DensityMatrix::from_matrix(dims.clone(), random_density(&mut rng, total)).unwrap();
        let theta = rng.gen::<f64>() * 3.0;
        for (label, noise) in &noises {
            for fusion in [FusionConfig::default(), FusionConfig::disabled()] {
                for superop in &superops {
                    let sim = DensityMatrixSimulator::new()
                        .with_noise(noise.clone())
                        .with_fusion(fusion.clone())
                        .with_superop(superop.clone());
                    let context = format!(
                        "trial {trial}, {label}, fusion {}, superop {superop:?}",
                        fusion.enabled
                    );
                    let (full, full_steps) = run(&sim, &whole, theta, &rho0);
                    let (mid, head_steps) = run(&sim, &head, theta, &rho0);
                    let (split, tail_steps) = run(&sim, &tail, theta, &mid);
                    assert_eq!(full_steps, head_steps + tail_steps, "{context}: step counts");
                    assert!(bits(&full) == bits(&split), "{context}: ρ differs");
                }
            }
        }
    }
}
