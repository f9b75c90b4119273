//! Exact plan counters, computed from compiled plans through
//! `qudit_circuit::sim::introspect` and the plans' own statistics.
//!
//! These are counts, not measurements: they repeat exactly for the same
//! inputs, so a change that claims to remove work can cite them by name.
//! Structural counters sum over the distinct plans a solve compiles.
//! Amplitude counters multiply each plan's per-run amplitude traffic by how
//! often a solve runs it. A statevector apply step touches the `N` register
//! amplitudes; a density sandwich touches `2·N²` entries of ρ; a
//! superoperator sweep touches `N²`; a per-term Kraus step touches `2·N²`
//! per term and counts as dense. Trajectory branch operators and
//! measurements are not counted.

use std::collections::BTreeMap;

use qudit_circuit::sim::introspect::{self, DensityStepView, StepView};
use qudit_circuit::sim::{CompiledCircuit, CompiledDensityCircuit};
use qudit_core::apply::OpKind;

use crate::report::Metric;

/// Accumulated plan counters for one workload.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PlanCounts {
    steps: usize,
    rebindable_steps: usize,
    unitaries_in: usize,
    unitary_steps_out: usize,
    multi_gate_blocks: usize,
    max_block_dim: usize,
    barrier_crossings: usize,
    super_steps: usize,
    multi_op_supers: usize,
    ops_folded: usize,
    unitary_sandwiches: usize,
    kraus_steps: usize,
    max_super_dim: usize,
    diag_amps: f64,
    monomial_amps: f64,
    dense_amps: f64,
}

impl PlanCounts {
    /// Adds a statevector (or trajectory) plan that a solve runs `runs`
    /// times. A rebindable step takes the kind of the plan's current binding
    /// overlay, or, unbound, diagonal only if it is diagonal at every binding.
    pub fn add_statevector(&mut self, plan: &CompiledCircuit, runs: f64) {
        let view = introspect::statevector(plan);
        let stats = view.fusion_stats();
        self.steps += view.num_steps();
        self.rebindable_steps += plan.rebindable_steps();
        self.add_fusion(stats);
        let bound: BTreeMap<usize, &OpKind> = view.overrides().map(|(s, _, k)| (s, k)).collect();
        let n: usize = view.dims().iter().product();
        for index in 0..view.num_steps() {
            if let StepView::Apply { kind, rebindable, diagonal_for_all_bindings, .. } =
                view.step(index)
            {
                let amps = n as f64 * runs;
                match bound.get(&index) {
                    Some(k) => self.add_amps(k, amps),
                    None if rebindable && diagonal_for_all_bindings != Some(true) => {
                        self.dense_amps += amps;
                    }
                    None => self.add_amps(kind, amps),
                }
            }
        }
    }

    /// Adds a density plan that a solve runs `runs` times.
    pub fn add_density(&mut self, plan: &CompiledDensityCircuit, runs: f64) {
        let view = introspect::density(plan);
        self.steps += view.num_steps();
        self.rebindable_steps += (0..view.num_steps()).filter(|&i| view.rebindable(i)).count();
        self.add_fusion(view.fusion_stats());
        let s = view.superop_stats();
        self.super_steps += s.super_steps;
        self.multi_op_supers += s.multi_op_supers;
        self.ops_folded += s.ops_folded;
        self.unitary_sandwiches += s.unitary_steps;
        self.kraus_steps += s.kraus_steps;
        self.max_super_dim = self.max_super_dim.max(s.max_super_dim);
        let bound: BTreeMap<usize, &OpKind> = view.overrides().map(|(s, _, k)| (s, k)).collect();
        let n: usize = view.dims().iter().product();
        let n2 = (n * n) as f64 * runs;
        for index in 0..view.num_steps() {
            match view.step(index) {
                DensityStepView::Unitary { kind, .. } => {
                    self.add_amps(bound.get(&index).copied().unwrap_or(kind), 2.0 * n2);
                }
                DensityStepView::Super { kind, .. } => {
                    self.add_amps(bound.get(&index).copied().unwrap_or(kind), n2);
                }
                DensityStepView::Kraus(ch) => {
                    self.dense_amps += 2.0 * n2 * ch.channel.operators().len() as f64;
                }
            }
        }
    }

    fn add_fusion(&mut self, f: qudit_circuit::sim::FusionStats) {
        self.unitaries_in += f.unitaries_in;
        self.unitary_steps_out += f.unitary_steps_out;
        self.multi_gate_blocks += f.multi_gate_blocks;
        self.max_block_dim = self.max_block_dim.max(f.max_block_dim);
        self.barrier_crossings += f.barrier_crossings;
    }

    fn add_amps(&mut self, kind: &OpKind, amps: f64) {
        match kind {
            OpKind::Diagonal(_) => self.diag_amps += amps,
            OpKind::Monomial { .. } => self.monomial_amps += amps,
            OpKind::Dense => self.dense_amps += amps,
        }
    }

    /// The counters as per-layer metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let c = |name: &str, v: usize| Metric::new(name, v as f64, "count");
        vec![
            Metric::new("qudit-core.apply.diag_amps", self.diag_amps, "count"),
            Metric::new("qudit-core.apply.monomial_amps", self.monomial_amps, "count"),
            Metric::new("qudit-core.apply.dense_amps", self.dense_amps, "count"),
            c("computed.plan.steps", self.steps),
            c("computed.plan.rebindable_steps", self.rebindable_steps),
            c("computed.fusion.unitaries_in", self.unitaries_in),
            c("computed.fusion.unitary_steps_out", self.unitary_steps_out),
            c("computed.fusion.multi_gate_blocks", self.multi_gate_blocks),
            c("computed.fusion.max_block_dim", self.max_block_dim),
            c("computed.fusion.barrier_crossings", self.barrier_crossings),
            c("computed.superop.super_steps", self.super_steps),
            c("computed.superop.multi_op_supers", self.multi_op_supers),
            c("computed.superop.ops_folded", self.ops_folded),
            c("computed.superop.unitary_steps", self.unitary_sandwiches),
            c("computed.superop.kraus_steps", self.kraus_steps),
            c("computed.superop.max_super_dim", self.max_super_dim),
        ]
    }
}
