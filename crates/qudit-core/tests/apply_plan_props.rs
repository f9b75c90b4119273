//! Property tests for the stride-based operator application path: on random
//! mixed-radix registers (dims 2–5, 1–3 targets), `apply_operator` /
//! `ApplyPlan` must agree with the reference path that embeds the operator
//! into the full Hilbert space and applies it as a dense matrix-vector
//! product — for dense, diagonal and monomial (permutation-like) operators,
//! in any target order. The density-matrix kernels are checked the same way
//! against dense `U ρ U†` and `Σ K ρ K†` products, and so are row-compressed
//! sweeps, on states and on vectorised ρ.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qudit_core::apply::{ApplyPlan, OpKind};
use qudit_core::complex::{c64, Complex64};
use qudit_core::density::DensityMatrix;
use qudit_core::matrix::CMatrix;
use qudit_core::radix::{embed_operator, Radix};
use qudit_core::random::{haar_state, haar_unitary};
use qudit_core::sparse::RowCompressed;
use qudit_core::state::QuditState;
use qudit_core::superop::SuperPlan;

const TOL: f64 = 1e-10;

/// A random register of 2–4 qudits with dims 2–5 and a random ordered
/// target subset of 1–3 qudits.
fn random_register(rng: &mut StdRng) -> (Vec<usize>, Vec<usize>) {
    let n = rng.gen_range(2..5usize);
    let dims: Vec<usize> = (0..n).map(|_| rng.gen_range(2..6usize)).collect();
    let n_targets = rng.gen_range(1..=3.min(n));
    // Random distinct targets in random order.
    let mut pool: Vec<usize> = (0..n).collect();
    let mut targets = Vec::with_capacity(n_targets);
    for _ in 0..n_targets {
        targets.push(pool.remove(rng.gen_range(0..pool.len())));
    }
    (dims, targets)
}

fn random_diagonal(rng: &mut StdRng, d: usize) -> CMatrix {
    CMatrix::diag(
        &(0..d)
            .map(|_| Complex64::cis(rng.gen_range(0.0..std::f64::consts::TAU)))
            .collect::<Vec<_>>(),
    )
}

fn random_monomial(rng: &mut StdRng, d: usize) -> CMatrix {
    // Random permutation with random phases: exercises the monomial kernel.
    let mut perm: Vec<usize> = (0..d).collect();
    for i in (1..d).rev() {
        perm.swap(i, rng.gen_range(0..i + 1));
    }
    let mut m = CMatrix::zeros(d, d);
    for (c, &r) in perm.iter().enumerate() {
        m[(r, c)] = Complex64::cis(rng.gen_range(0.0..std::f64::consts::TAU));
    }
    m
}

fn assert_states_close(fast: &QuditState, reference: &QuditState, context: &str) {
    for (a, b) in fast.amplitudes().iter().zip(reference.amplitudes().iter()) {
        assert!((*a - *b).abs() < TOL, "{context}: {a} vs {b}");
    }
}

#[test]
fn stride_apply_matches_embedded_operator_on_random_registers() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for trial in 0..60 {
        let (dims, targets) = random_register(&mut rng);
        let radix = Radix::new(dims.clone()).unwrap();
        let sub_dim = radix.subspace_dim(&targets).unwrap();

        let op = match trial % 3 {
            0 => haar_unitary(&mut rng, sub_dim).unwrap(),
            1 => random_diagonal(&mut rng, sub_dim),
            _ => random_monomial(&mut rng, sub_dim),
        };

        let state = haar_state(&mut rng, dims.clone()).unwrap();
        let mut fast = state.clone();
        fast.apply_operator(&op, &targets).unwrap();

        let mut reference = state.clone();
        let full = embed_operator(&radix, &op, &targets).unwrap();
        reference.apply_full_operator(&full).unwrap();

        assert_states_close(
            &fast,
            &reference,
            &format!("trial {trial}: dims {dims:?}, targets {targets:?}"),
        );

        // The explicitly prepared path must agree with apply_operator.
        let plan = ApplyPlan::new(&radix, &targets).unwrap();
        let kind = OpKind::classify(&op);
        let mut prepared = state.clone();
        let mut scratch = Vec::new();
        prepared.apply_prepared(&plan, &kind, &op, &mut scratch).unwrap();
        assert_states_close(&prepared, &reference, &format!("trial {trial} (prepared)"));
    }
}

#[test]
fn plan_expectation_and_norm_match_reference() {
    let mut rng = StdRng::seed_from_u64(0xBEE);
    for trial in 0..40 {
        let (dims, targets) = random_register(&mut rng);
        let radix = Radix::new(dims.clone()).unwrap();
        let sub_dim = radix.subspace_dim(&targets).unwrap();
        let op = match trial % 3 {
            0 => haar_unitary(&mut rng, sub_dim).unwrap(),
            1 => random_diagonal(&mut rng, sub_dim),
            _ => random_monomial(&mut rng, sub_dim),
        };
        let state = haar_state(&mut rng, dims.clone()).unwrap();

        // Reference expectation: ⟨ψ| O_full |ψ⟩ via embedding.
        let full = embed_operator(&radix, &op, &targets).unwrap();
        let mut applied = state.clone();
        applied.apply_full_operator(&full).unwrap();
        let expected = state.inner(&applied).unwrap();

        let got = state.expectation(&op, &targets).unwrap();
        assert!((got - expected).abs() < TOL, "trial {trial}: {got} vs {expected}");

        // Kraus-branch norm: ‖O ψ‖² without materialisation.
        let plan = ApplyPlan::new(&radix, &targets).unwrap();
        let kind = OpKind::classify(&op);
        let mut scratch = Vec::new();
        let lazy = plan.norm_sqr_after(&kind, &op, state.amplitudes(), &mut scratch).unwrap();
        let eager = applied.norm_sqr();
        assert!((lazy - eager).abs() < TOL, "trial {trial}: {lazy} vs {eager}");
    }
}

#[test]
fn plan_marginals_and_reduced_density_match_digitwise_reference() {
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    for trial in 0..40 {
        let (dims, targets) = random_register(&mut rng);
        let radix = Radix::new(dims.clone()).unwrap();
        let state = haar_state(&mut rng, dims.clone()).unwrap();
        let target_radix = Radix::new(targets.iter().map(|&t| dims[t]).collect()).unwrap();

        // Digit-by-digit reference marginal (the seed algorithm).
        let mut expected = vec![0.0f64; target_radix.total_dim()];
        for (idx, amp) in state.amplitudes().iter().enumerate() {
            let digits = radix.digits_of(idx).unwrap();
            let sub: Vec<usize> = targets.iter().map(|&t| digits[t]).collect();
            expected[target_radix.index_of(&sub).unwrap()] += amp.norm_sqr();
        }
        let got = state.marginal_probabilities(&targets).unwrap();
        for (g, e) in got.iter().zip(expected.iter()) {
            assert!((g - e).abs() < TOL, "trial {trial}: marginal {g} vs {e}");
        }

        // Reduced density matrix vs digit-by-digit reference.
        let rho = state.reduced_density_matrix(&targets).unwrap();
        let k = target_radix.total_dim();
        let mut expected_rho = CMatrix::zeros(k, k);
        for (idx_a, amp_a) in state.amplitudes().iter().enumerate() {
            let digits_a = radix.digits_of(idx_a).unwrap();
            for (idx_b, amp_b) in state.amplitudes().iter().enumerate() {
                let digits_b = radix.digits_of(idx_b).unwrap();
                let env_match = (0..dims.len())
                    .filter(|q| !targets.contains(q))
                    .all(|q| digits_a[q] == digits_b[q]);
                if !env_match {
                    continue;
                }
                let row_sub: Vec<usize> = targets.iter().map(|&t| digits_a[t]).collect();
                let col_sub: Vec<usize> = targets.iter().map(|&t| digits_b[t]).collect();
                let r = target_radix.index_of(&row_sub).unwrap();
                let c = target_radix.index_of(&col_sub).unwrap();
                expected_rho[(r, c)] += *amp_a * amp_b.conj();
            }
        }
        assert!((&rho - &expected_rho).max_abs() < TOL, "trial {trial}: reduced density mismatch");
        // Sanity: trace of the reduced state is the state norm.
        assert!((rho.trace().re - 1.0).abs() < 1e-9);
    }
}

#[test]
fn measurement_collapse_matches_projector_reference() {
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    for trial in 0..25 {
        let (dims, targets) = random_register(&mut rng);
        let radix = Radix::new(dims.clone()).unwrap();
        let state = haar_state(&mut rng, dims.clone()).unwrap();

        // Measure with a cloned RNG so the fast path and the reference see
        // the same draw.
        let mut rng_fast = StdRng::seed_from_u64(1000 + trial);
        let mut fast = state.clone();
        let outcome = fast.measure(&targets, &mut rng_fast).unwrap();

        // Reference: project with embedded |outcome⟩⟨outcome| and normalise.
        let target_radix = Radix::new(targets.iter().map(|&t| dims[t]).collect()).unwrap();
        let sub_idx = target_radix.index_of(&outcome).unwrap();
        let mut proj = CMatrix::zeros(target_radix.total_dim(), target_radix.total_dim());
        proj[(sub_idx, sub_idx)] = c64(1.0, 0.0);
        let full = embed_operator(&radix, &proj, &targets).unwrap();
        let mut reference = state.clone();
        reference.apply_full_operator(&full).unwrap();
        reference.normalize().unwrap();

        assert_states_close(&fast, &reference, &format!("trial {trial}: collapse"));
    }
}

/// `(dims, targets)` cases pinning each target layout the density kernels
/// distinguish on mixed-radix registers, followed by random draws of at most
/// 96 basis states (the dense reference costs `O(N³)` per operator).
fn density_cases(rng: &mut StdRng) -> Vec<(Vec<usize>, Vec<usize>)> {
    let mut cases = vec![
        (vec![3, 2, 4], vec![1]),       // single
        (vec![2, 3, 2, 3], vec![1, 2]), // ascending, adjacent
        (vec![2, 3, 2, 3], vec![2, 3]), // ascending register suffix
        (vec![2, 3, 2, 3], vec![2, 1]), // reversed
        (vec![3, 2, 4], vec![0, 2]),    // non-adjacent
        (vec![4, 2, 3], vec![2, 0, 1]), // all three, permuted
    ];
    while cases.len() < 30 {
        let (dims, targets) = random_register(rng);
        if dims.iter().product::<usize>() <= 96 {
            cases.push((dims, targets));
        }
    }
    cases
}

fn random_density(rng: &mut StdRng, dims: &[usize]) -> DensityMatrix {
    let states: Vec<QuditState> = (0..3).map(|_| haar_state(rng, dims.to_vec()).unwrap()).collect();
    let raw: Vec<f64> = (0..3).map(|_| rng.gen::<f64>() + 0.1).collect();
    let total: f64 = raw.iter().sum();
    let probs: Vec<f64> = raw.iter().map(|p| p / total).collect();
    DensityMatrix::mixture(&states, &probs).unwrap()
}

/// `K ρ K†` with `K` embedded into the full space: the dense reference.
fn dense_sandwich(radix: &Radix, k: &CMatrix, targets: &[usize], rho: &CMatrix) -> CMatrix {
    let full = embed_operator(radix, k, targets).unwrap();
    full.matmul(rho).unwrap().matmul(&full.dagger()).unwrap()
}

#[test]
fn density_kernels_match_dense_products_on_random_registers() {
    let mut rng = StdRng::seed_from_u64(0xD0E5);
    for (trial, (dims, targets)) in density_cases(&mut rng).into_iter().enumerate() {
        let radix = Radix::new(dims.clone()).unwrap();
        let k = radix.subspace_dim(&targets).unwrap();
        let context = format!("trial {trial}: dims {dims:?}, targets {targets:?}");
        let rho = random_density(&mut rng, &dims);

        // U ρ U† for a dense, a diagonal and a monomial operator.
        for u in [
            haar_unitary(&mut rng, k).unwrap(),
            random_diagonal(&mut rng, k),
            random_monomial(&mut rng, k),
        ] {
            let mut fast = rho.clone();
            fast.apply_unitary(&u, &targets).unwrap();
            let reference = dense_sandwich(&radix, &u, &targets, rho.matrix());
            let diff = (fast.matrix() - &reference).max_abs();
            assert!(diff < 1e-12, "{context}: unitary diff {diff}");
        }

        // Σ K ρ K† over a mixed-structure (not trace-preserving) Kraus list.
        let kraus = vec![
            haar_unitary(&mut rng, k).unwrap().scaled_real(0.6),
            random_diagonal(&mut rng, k).scaled_real(0.5),
            random_monomial(&mut rng, k).scaled_real(0.4),
        ];
        let mut fast = rho.clone();
        fast.apply_kraus(&kraus, &targets).unwrap();
        let mut reference = CMatrix::zeros(radix.total_dim(), radix.total_dim());
        for op in &kraus {
            reference += &dense_sandwich(&radix, op, &targets, rho.matrix());
        }
        let diff = (fast.matrix() - &reference).max_abs();
        assert!(diff < 1e-12, "{context}: Kraus diff {diff}");

        // Marginals: digit-wise sums of the diagonal.
        let target_radix = Radix::new(targets.iter().map(|&t| dims[t]).collect()).unwrap();
        let mut expected = vec![0.0f64; k];
        for idx in 0..radix.total_dim() {
            let digits = radix.digits_of(idx).unwrap();
            let sub: Vec<usize> = targets.iter().map(|&t| digits[t]).collect();
            expected[target_radix.index_of(&sub).unwrap()] += rho.matrix()[(idx, idx)].re;
        }
        let got = rho.marginal_probabilities(&targets).unwrap();
        assert_eq!(got.len(), k);
        for (g, e) in got.iter().zip(expected.iter()) {
            assert!((g - e).abs() < 1e-12, "{context}: marginal {g} vs {e}");
        }
    }
}

/// A random `d × d` operator with about `fill` of its entries nonzero.
fn random_sparse(rng: &mut StdRng, d: usize, fill: f64) -> CMatrix {
    CMatrix::from_fn(d, d, |_, _| {
        if rng.gen::<f64>() < fill {
            c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5)
        } else {
            Complex64::ZERO
        }
    })
}

#[test]
fn compressed_sweeps_match_dense_products_on_random_registers() {
    let mut rng = StdRng::seed_from_u64(0x5BA2);
    let mut scratch = Vec::new();

    // On states: against the operator embedded into the full space.
    for trial in 0..40 {
        let (dims, targets) = random_register(&mut rng);
        let radix = Radix::new(dims.clone()).unwrap();
        let plan = ApplyPlan::new(&radix, &targets).unwrap();
        let op = random_sparse(&mut rng, plan.sub_dim(), 0.3);
        let compressed = RowCompressed::from_dense(&op, Complex64::ONE);
        let state = haar_state(&mut rng, dims.clone()).unwrap();
        let mut fast = state.amplitudes().to_vec();
        plan.apply_compressed(&compressed, &mut fast, 1, &mut scratch).unwrap();
        let full = embed_operator(&radix, &op, &targets).unwrap();
        let reference = full.matvec(state.amplitudes()).unwrap();
        for (a, b) in fast.iter().zip(reference.iter()) {
            assert!((*a - *b).abs() < 1e-12, "trial {trial}: dims {dims:?}, targets {targets:?}");
        }
    }

    // On vectorised ρ: a sparse Kraus channel's superoperator swept
    // compressed against the dense `Σ K ρ K†`, bitwise across thread counts.
    // The last case (36 doubled-register blocks of ~6000 stored entries)
    // is large enough for the chunked parallel path.
    let mut cases: Vec<(Vec<usize>, Vec<usize>)> = density_cases(&mut rng)
        .into_iter()
        .filter(|(dims, targets)| targets.iter().map(|&t| dims[t]).product::<usize>() <= 12)
        .collect();
    cases.push((vec![3, 2, 4, 3], vec![2, 0]));
    for (trial, (dims, targets)) in cases.into_iter().enumerate() {
        let radix = Radix::new(dims.clone()).unwrap();
        let k = radix.subspace_dim(&targets).unwrap();
        let context = format!("trial {trial}: dims {dims:?}, targets {targets:?}");
        let kraus: Vec<CMatrix> =
            (0..3).map(|_| random_sparse(&mut rng, k, 0.25).scaled_real(0.4)).collect();
        let sup = SuperPlan::kraus_superop(&kraus).unwrap();
        let compressed = RowCompressed::from_dense(&sup, Complex64::ONE);
        let plan = SuperPlan::new(&radix, &targets).unwrap();
        let rho = random_density(&mut rng, &dims);

        let mut serial = rho.clone();
        plan.apply_compressed(&compressed, serial.matrix_mut().as_mut_slice(), 1, &mut scratch)
            .unwrap();
        let mut reference = CMatrix::zeros(radix.total_dim(), radix.total_dim());
        for op in &kraus {
            reference += &dense_sandwich(&radix, op, &targets, rho.matrix());
        }
        let diff = (serial.matrix() - &reference).max_abs();
        assert!(diff < 1e-12, "{context}: compressed sweep diff {diff}");
        for threads in [2usize, 3] {
            let mut parallel = rho.clone();
            let data = parallel.matrix_mut().as_mut_slice();
            plan.apply_compressed(&compressed, data, threads, &mut scratch).unwrap();
            assert_eq!(parallel, serial, "{context}: threads {threads}");
        }
    }
}
