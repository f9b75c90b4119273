//! Mutation tests: the verifier must *flag* deliberately miscompiled plans.
//! Each test seeds one class of compiler bug through the `corrupt_*` helpers
//! (or a stricter-than-compiled verification config) and asserts both that
//! verification fails and that it fails under the expected check — proving
//! the translation validator is not vacuous, one check class at a time.

use qudit_circuit::noise::KrausChannel;
use qudit_circuit::sim::introspect::{
    self, corrupt_density_compressed_entry, corrupt_density_drop_step, corrupt_density_scale_super,
    corrupt_drop_override, corrupt_drop_step, corrupt_retarget_step, corrupt_scale_step_op,
    corrupt_swap_steps, DensityStepView,
};
use qudit_circuit::sim::{DensityMatrixSimulator, FusionConfig, GuardConfig, StatevectorSimulator};
use qudit_circuit::{Circuit, Gate, Param};
use qudit_core::guard::RunHealth;
use qudit_core::matrix::CMatrix;
use qudit_verify::{
    verify_density, verify_ensemble_health, verify_run_health, verify_statevector,
    verify_statevector_bound, Check, VerifyConfig,
};

/// A plain three-gate circuit whose plan (fusion off) maps one step to one
/// instruction — the mutation anchor for the statevector classes.
fn straightline_circuit() -> Circuit {
    let mut c = Circuit::new(vec![3, 3]);
    c.push(Gate::fourier(3), &[0]).unwrap();
    c.push(Gate::shift_x(3), &[1]).unwrap();
    c.push(Gate::clock_z(3), &[0]).unwrap();
    c
}

fn unfused() -> StatevectorSimulator {
    StatevectorSimulator::new()
        .with_fusion(FusionConfig { enabled: false, ..FusionConfig::default() })
}

fn unfused_cfg() -> VerifyConfig {
    VerifyConfig::default().with_fusion(FusionConfig { enabled: false, ..FusionConfig::default() })
}

#[test]
fn dropped_step_is_flagged_as_accounting() {
    let c = straightline_circuit();
    let mut plan = unfused().compile(&c).unwrap();
    verify_statevector(&c, &plan, &unfused_cfg()).unwrap();
    corrupt_drop_step(&mut plan, 1);
    let err = verify_statevector(&c, &plan, &unfused_cfg()).unwrap_err();
    assert_eq!(err.check, Check::Accounting, "{err}");
}

#[test]
fn reordered_noncommuting_steps_are_flagged_as_ordering() {
    // Steps 0 and 2 act on the same wire and do not commute.
    let c = straightline_circuit();
    let mut plan = unfused().compile(&c).unwrap();
    verify_statevector(&c, &plan, &unfused_cfg()).unwrap();
    corrupt_swap_steps(&mut plan, 0, 2);
    let err = verify_statevector(&c, &plan, &unfused_cfg()).unwrap_err();
    assert_eq!(err.check, Check::Ordering, "{err}");
}

#[test]
fn reordering_disjoint_steps_is_not_an_error() {
    // The commutation argument is precise: swapping steps with disjoint
    // supports (steps 0 and 1 act on different wires) is a legal schedule.
    let c = straightline_circuit();
    let mut plan = unfused().compile(&c).unwrap();
    corrupt_swap_steps(&mut plan, 0, 1);
    verify_statevector(&c, &plan, &unfused_cfg()).unwrap();
}

#[test]
fn retargeted_step_is_flagged() {
    let c = straightline_circuit();
    let mut plan = unfused().compile(&c).unwrap();
    corrupt_retarget_step(&mut plan, 0, vec![1]);
    let err = verify_statevector(&c, &plan, &unfused_cfg()).unwrap_err();
    assert_eq!(err.check, Check::Accounting, "{err}");
}

#[test]
fn scaled_operator_is_flagged_as_semantics() {
    let c = straightline_circuit();
    let mut plan = unfused().compile(&c).unwrap();
    corrupt_scale_step_op(&mut plan, 0, 0.5);
    let err = verify_statevector(&c, &plan, &unfused_cfg()).unwrap_err();
    assert_eq!(err.check, Check::Semantics, "{err}");
}

#[test]
fn stale_binding_override_is_flagged_as_binding() {
    let mut c = Circuit::new(vec![3]);
    let h = CMatrix::diag_real(&[0.3, -0.9, 0.5]);
    c.push(Gate::parameterized("sep", vec![3], &h, Param::Free(0)).unwrap(), &[0]).unwrap();
    let mut plan = StatevectorSimulator::new().compile(&c).unwrap();
    let theta = [0.7];
    plan.bind(&theta).unwrap();
    verify_statevector_bound(&c, &plan, &theta, &VerifyConfig::default()).unwrap();
    assert!(corrupt_drop_override(&mut plan), "bound plan must carry an override");
    let err = verify_statevector_bound(&c, &plan, &theta, &VerifyConfig::default()).unwrap_err();
    assert_eq!(err.check, Check::Binding, "{err}");
}

#[test]
fn over_budget_fusion_is_flagged_when_verified_strictly() {
    // Two overlapping CSUMs fuse into a grown 3-qudit block (dim 8) — legal
    // under the compile-time budget, illegal under a stricter one. The
    // verifier restates the budget rule, so compile-permissive /
    // verify-strict must disagree.
    let mut c = Circuit::new(vec![2, 2, 2]);
    c.push(Gate::csum(2, 2), &[0, 1]).unwrap();
    c.push(Gate::csum(2, 2), &[1, 2]).unwrap();
    let plan = StatevectorSimulator::new().compile(&c).unwrap();
    let permissive = verify_statevector(&c, &plan, &VerifyConfig::default()).unwrap();
    assert_eq!(permissive.fused_blocks, 1, "corpus assumption: the gates fuse");
    let strict =
        VerifyConfig::default().with_fusion(FusionConfig { max_dim: 4, ..FusionConfig::default() });
    let err = verify_statevector(&c, &plan, &strict).unwrap_err();
    assert_eq!(err.check, Check::FusionBudget, "{err}");
}

#[test]
fn dropped_density_step_is_flagged_as_accounting() {
    let mut c = Circuit::new(vec![2, 2]);
    c.push(Gate::fourier(2), &[0]).unwrap();
    c.push_channel(KrausChannel::dephasing(2, 0.3).unwrap(), &[0]).unwrap();
    let mut plan = DensityMatrixSimulator::new().compile(&c).unwrap();
    verify_density(&c, &plan, &VerifyConfig::default()).unwrap();
    let last = introspect::density(&plan).num_steps() - 1;
    corrupt_density_drop_step(&mut plan, last);
    let err = verify_density(&c, &plan, &VerifyConfig::default()).unwrap_err();
    assert_eq!(err.check, Check::Accounting, "{err}");
}

#[test]
fn miscomposed_sweep_is_flagged() {
    let mut c = Circuit::new(vec![2, 2]);
    c.push(Gate::fourier(2), &[0]).unwrap();
    c.push_channel(KrausChannel::dephasing(2, 0.3).unwrap(), &[0]).unwrap();
    let mut plan = DensityMatrixSimulator::new().compile(&c).unwrap();
    let sweep = {
        let view = introspect::density(&plan);
        (0..view.num_steps())
            .find(|&s| matches!(view.step(s), DensityStepView::Super { .. }))
            .expect("corpus assumption: the channel compiles to a sweep")
    };
    corrupt_density_scale_super(&mut plan, sweep, 1.5);
    let err = verify_density(&c, &plan, &VerifyConfig::default()).unwrap_err();
    assert!(
        matches!(err.check, Check::TracePreservation | Check::Semantics),
        "scaled superoperator must fail trace preservation or semantics, got {err}"
    );
}

#[test]
fn drifted_compressed_sweep_is_flagged() {
    // Photon loss alone compiles to a row-compressed sweep (14 of 81
    // superoperator entries nonzero at d = 3).
    let mut c = Circuit::new(vec![3, 2]);
    c.push_channel(KrausChannel::photon_loss(3, 0.3).unwrap(), &[0]).unwrap();
    let plan = DensityMatrixSimulator::new().compile(&c).unwrap();
    let report = verify_density(&c, &plan, &VerifyConfig::default()).unwrap();
    assert_eq!(report.compressed_sweeps, 1, "corpus assumption: the loss sweep is compressed");

    // One stored entry drifts from the dense superoperator.
    let mut drifted = plan.clone();
    corrupt_density_compressed_entry(&mut drifted, 0, 3, 1e-3);
    let err = verify_density(&c, &drifted, &VerifyConfig::default()).unwrap_err();
    assert_eq!(err.check, Check::PlanConsistency, "{err}");

    // A superoperator the fill rule no longer selects (all zeros is
    // diagonal) must not keep its compressed form.
    let mut zeroed = plan;
    corrupt_density_scale_super(&mut zeroed, 0, 0.0);
    let err = verify_density(&c, &zeroed, &VerifyConfig::default()).unwrap_err();
    assert_eq!(err.check, Check::CostRule, "{err}");
}

#[test]
fn over_budget_superop_fold_is_flagged_when_verified_strictly() {
    // A qutrit dephasing channel folds at the compile-time budget
    // (max_dim 16) but is ineligible under max_dim 2; the verifier's
    // independent eligibility model must reject the fold.
    let mut c = Circuit::new(vec![3]);
    c.push_channel(KrausChannel::dephasing(3, 0.4).unwrap(), &[0]).unwrap();
    let plan = DensityMatrixSimulator::new().compile(&c).unwrap();
    verify_density(&c, &plan, &VerifyConfig::default()).unwrap();
    let mut strict = VerifyConfig::default();
    strict.superop.max_dim = 2;
    let err = verify_density(&c, &plan, &strict).unwrap_err();
    assert_eq!(err.check, Check::CostRule, "{err}");
}

#[test]
fn wrong_guard_checkpoint_count_is_flagged() {
    let guard = GuardConfig { cadence: 4, ..GuardConfig::enabled() };
    let mut health = RunHealth { checks_run: 10 / 4 + 1, ..RunHealth::default() };
    verify_run_health(&health, 10, &guard).unwrap();
    health.checks_run += 1;
    let err = verify_run_health(&health, 10, &guard).unwrap_err();
    assert_eq!(err.check, Check::Guard, "{err}");
}

#[test]
fn wrong_ensemble_column_health_is_flagged_with_attribution() {
    let guard = GuardConfig { cadence: 3, ..GuardConfig::enabled() };
    let good = RunHealth { checks_run: 12 / 3 + 1, ..RunHealth::default() };
    let bad = RunHealth { checks_run: good.checks_run + 2, ..good };
    verify_ensemble_health(&[good, good, good], 12, &guard).unwrap();
    verify_ensemble_health(&[], 12, &guard).unwrap();
    let err = verify_ensemble_health(&[good, bad, good], 12, &guard).unwrap_err();
    assert_eq!(err.check, Check::Guard, "{err}");
    assert!(err.message.contains("column 1"), "violation must name the column: {err}");
}
