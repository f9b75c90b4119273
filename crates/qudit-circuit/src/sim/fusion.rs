//! Gate fusion: coalescing runs of adjacent gates into fused superblocks.
//!
//! Dense two-qudit gate blocks dominate noiseless Trotter evolution once the
//! per-gate stride kernels are in place; the remaining lever is doing *fewer,
//! fatter* operator applications. The fusion pass walks a circuit once and
//! coalesces runs of adjacent unitaries acting on the same or overlapping
//! target sets into **fused superblocks**: the run's matrices are multiplied
//! into a single operator at compile time, the product is re-classified with
//! [`qudit_core::apply::OpKind`] (so diagonal × diagonal stays diagonal and
//! monomial × monomial stays monomial), and every simulator applies the block
//! through the ordinary [`qudit_core::apply::ApplyPlan`] kernels.
//!
//! ## Algorithm
//!
//! Fusion runs on the block frontier it shares with the density compiler
//! (`sim::frontier`): open blocks with pairwise disjoint supports, a greedy
//! merge of each fusable gate with the open blocks it touches (partial
//! merges allowed), touched blocks that cannot merge closed first, and
//! wire-local flushing. Fusion supplies the frontier's merge rule (the
//! **cost rule** and **budget**, below) and emits a closed block as one
//! fused block step.
//!
//! Measurements, resets, explicit channels, noisy gates (gates the noise
//! model decorates with channels) and lossy barriers are fusion barriers.
//! Flushing is **wire-local**: a barrier closes **only the open blocks
//! whose supports overlap its wires**: a measurement's targets,
//! a reset's qudit, a channel's targets, a noisy gate's targets (its
//! attached channels act on those same wires), and every wire for a lossy
//! barrier (idle loss decays the whole register). Blocks on disjoint wires
//! stay open and keep fusing *through* the barrier, which is what gives
//! syndrome-extraction-style circuits (repeated ancilla measure + reset
//! rounds) a fusion benefit at all. In statevector and trajectory plans,
//! noiseless barriers are dropped from the execution plan, which lets
//! fusion reach across Trotter-step boundaries.
//!
//! ### Why deferring blocks past a barrier is sound
//!
//! A block that survives a barrier is emitted *later* in the compiled plan
//! than an instruction that came *earlier* in the circuit. The re-ordering
//! is exact, not approximate: the surviving block's support is disjoint
//! from the barrier's wires (anything overlapping was flushed), and
//! operations with disjoint supports commute as operators — `(U ⊗ I)(I ⊗ M)
//! = (I ⊗ M)(U ⊗ I)` for any map `M`, unitary or not. Measurement outcome
//! distributions, Kraus branch probabilities and reset projections on the
//! barrier's wires are marginal quantities, invariant under any deferred
//! unitary on disjoint wires, so every stochastic draw consumes the same
//! number of variates against the same distribution in the same order and
//! RNG streams stay aligned with the unfused plan. One caveat keeps the
//! guarantee honest: the marginals agree *exactly* in real arithmetic but
//! only to rounding in floating point (deferral changes the summation
//! inputs), so a drawn outcome can differ from the unfused run only when a
//! uniform variate lands within ~1 ulp of an outcome boundary —
//! probability ~1e-16 per draw. Away from that knife edge sampling is
//! bitwise identical, which `tests/flush_props.rs` pins for its seeded
//! workloads. The frontier `debug_assert`s the disjointness invariant at
//! every wire-local flush.
//!
//! ### Statevector and density plans treat no-op barriers differently
//!
//! Statevector and trajectory plans drop no-op barriers, so fusion reaches
//! across Trotter-step boundaries. Density plans keep every barrier as a
//! full flush, like a lossy one (`drop_noop_barriers = false`), and the
//! density compiler closes its folds there too, so a density plan is
//! prefix-closed at barriers (see `DensityKernels::compile`). A
//! statevector plan is not: continuing a noiseless run from a prefix's
//! state agrees with the whole run only to rounding.
//!
//! ## Cost rule and budget
//!
//! Applying an operator of subspace dimension `s` to a register of dimension
//! `N` costs `O(N · s)`, so a merge of parts with subspace dimensions
//! `s_1..s_k` into a block of dimension `S` is accepted only when
//! `S <= s_1 + ... + s_k` — fusion therefore **never increases** apply cost.
//! Merges that grow a block's support are additionally capped by
//! [`FusionConfig::max_qudits`] / [`FusionConfig::max_dim`] so fused blocks
//! stay cache-resident; same-support merges (no growth) are always allowed,
//! which is what collapses repeated gate runs on one wire pair to a single
//! dense block.

use qudit_core::matrix::CMatrix;

use crate::circuit::{Circuit, Instruction};
use crate::error::Result;
use crate::sim::frontier::{Block, BlockPass, Frontier};

/// Configuration of the gate-fusion pass (see the module docs).
///
/// # Example
///
/// ```
/// use qudit_circuit::sim::{FusionConfig, StatevectorSimulator};
/// use qudit_circuit::{Circuit, Gate};
///
/// // Three same-wire gates collapse into one fused superblock.
/// let mut c = Circuit::uniform(1, 3);
/// c.push(Gate::fourier(3), &[0]).unwrap();
/// c.push(Gate::clock_z(3), &[0]).unwrap();
/// c.push(Gate::shift_x(3), &[0]).unwrap();
///
/// let compiled = StatevectorSimulator::new().compile(&c).unwrap();
/// assert_eq!(compiled.fusion_stats().unitary_steps_out, 1);
///
/// // Fusion off: every gate executes verbatim.
/// let verbatim = StatevectorSimulator::new()
///     .with_fusion(FusionConfig::disabled())
///     .compile(&c)
///     .unwrap();
/// assert_eq!(verbatim.fusion_stats().unitary_steps_out, 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionConfig {
    /// Master switch; disabled means every instruction executes verbatim.
    pub enabled: bool,
    /// Maximum number of qudits a fused block may span when a merge grows a
    /// block's support.
    pub max_qudits: usize,
    /// Maximum subspace dimension of a grown fused block (the cache-residency
    /// budget; a `64×64` complex block is 64 KiB).
    pub max_dim: usize,
}

impl Default for FusionConfig {
    fn default() -> Self {
        Self { enabled: true, max_qudits: 4, max_dim: 64 }
    }
}

impl FusionConfig {
    /// A configuration with fusion switched off (verbatim execution).
    pub fn disabled() -> Self {
        Self { enabled: false, ..Self::default() }
    }
}

/// What the fusion pass did to a circuit; exposed for benchmarks, tests and
/// CI assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// Unitary gate instructions in the source circuit.
    pub unitaries_in: usize,
    /// Unitary apply steps in the fused plan (blocks plus verbatim gates).
    pub unitary_steps_out: usize,
    /// Fused blocks that absorbed at least two gates.
    pub multi_gate_blocks: usize,
    /// Largest subspace dimension among emitted blocks.
    pub max_block_dim: usize,
    /// Open blocks that stayed alive across a fusion barrier (measurement,
    /// reset, channel, noisy gate or lossy barrier), counted once per
    /// `(block, barrier)` pair; nonzero means wire-local flushing let at
    /// least one gate run fuse through a mid-circuit boundary.
    pub barrier_crossings: usize,
}

/// One element of the fused execution order.
///
/// The fusion pass is purely **structural** since PR 5: a block records
/// *which* gate instructions it absorbed, and the block operator itself is
/// materialised by the kernel compiler ([`crate::sim::kernels`]) — the same
/// code path that re-materialises parameter-dependent blocks when a compiled
/// plan is rebound, so compiling a bound circuit and rebinding a compiled
/// parameterized circuit produce bitwise-identical operators.
#[derive(Debug, Clone)]
pub(crate) enum FusedInst {
    /// A (possibly multi-gate) unitary block over `targets` (ascending).
    Block {
        /// Sorted support.
        targets: Vec<usize>,
        /// Instruction indices of the absorbed gates, in program order. The
        /// block operator is the product of the member gates embedded into
        /// `targets`, multiplied in this order (disjoint-support members
        /// commute, so program order is a valid application order).
        gates: Vec<usize>,
    },
    /// A unitary instruction emitted verbatim (it carries noise channels, or
    /// fusion is disabled); `index` refers to the circuit instruction list.
    Gate { index: usize },
    /// A non-unitary instruction (measure/reset/channel/barrier).
    Passthrough { index: usize },
}

/// Fusion's side of the shared [`Frontier`]: the cost rule and budget, and
/// the fused plan closed blocks are emitted into.
struct FusionPass<'a> {
    config: &'a FusionConfig,
    out: Vec<FusedInst>,
    stats: FusionStats,
}

impl BlockPass for FusionPass<'_> {
    /// The summed subspace dimension of the parts of one merge, and the
    /// largest part. An open block is priced by its dimension alone, so the
    /// rule reads `block.dim`, never a block's stored pair.
    type Cost = (usize, usize);

    fn merge(
        &self,
        (parts, largest): (usize, usize),
        block: &Block<Self::Cost>,
        union: &[usize],
        dim: usize,
    ) -> Option<Self::Cost> {
        let parts = parts + block.dim;
        let largest = largest.max(block.dim);
        // A merge that leaves the support equal to its largest constituent's
        // is never growth; anything bigger must respect the cache budget.
        let grows = dim > largest;
        let within_budget =
            !grows || (union.len() <= self.config.max_qudits && dim <= self.config.max_dim);
        (dim <= parts && within_budget).then_some((parts, largest))
    }

    fn close(&mut self, block: Block<Self::Cost>) -> Result<()> {
        self.stats.unitary_steps_out += 1;
        self.stats.max_block_dim = self.stats.max_block_dim.max(block.dim);
        if block.members.len() >= 2 {
            self.stats.multi_gate_blocks += 1;
        }
        self.out.push(FusedInst::Block { targets: block.targets, gates: block.members });
        Ok(())
    }
}

/// Runs the fusion pass over `circuit`.
///
/// `fusable[i]` marks instruction `i` as eligible for fusion (a unitary with
/// no attached noise channels); `drop_noop_barriers` removes barriers from
/// the plan when the runtime treats them as no-ops (no idle-loss channel).
pub(crate) fn fuse(
    circuit: &Circuit,
    fusable: &[bool],
    drop_noop_barriers: bool,
    config: &FusionConfig,
) -> Result<(Vec<FusedInst>, FusionStats)> {
    let mut pass = FusionPass {
        config,
        out: Vec::with_capacity(circuit.len()),
        stats: FusionStats::default(),
    };
    let mut frontier = Frontier::new(circuit.dims());
    for (index, inst) in circuit.instructions().iter().enumerate() {
        // Every other instruction is a barrier on the wires it acts on. A
        // noisy gate's channels act on its own targets; a lossy barrier
        // decays every wire (`None`).
        let wires: Option<&[usize]> = match inst {
            Instruction::Unitary { gate, targets } if config.enabled && fusable[index] => {
                pass.stats.unitaries_in += 1;
                let dim = gate.matrix().rows();
                frontier.offer(index, targets.clone(), (dim, dim), &mut pass)?;
                continue;
            }
            // A barrier without idle loss is a scheduling hint only; not
            // flushing lets fusion reach across Trotter-step boundaries.
            Instruction::Barrier if drop_noop_barriers && config.enabled => continue,
            Instruction::Unitary { targets, .. } => {
                pass.stats.unitaries_in += 1;
                pass.stats.unitary_steps_out += 1;
                Some(targets)
            }
            Instruction::Measure { targets } | Instruction::Channel { targets, .. } => {
                Some(targets)
            }
            Instruction::Reset { target } => Some(std::slice::from_ref(target)),
            Instruction::Barrier => None,
        };
        // The blocks still open commute with the barrier (disjoint
        // supports); `barrier_crossings` counts them.
        frontier.flush(wires, &mut pass)?;
        pass.stats.barrier_crossings += frontier.open_blocks();
        pass.out.push(match inst {
            Instruction::Unitary { .. } => FusedInst::Gate { index },
            _ => FusedInst::Passthrough { index },
        });
    }
    frontier.drain(&mut pass)?;
    Ok((pass.out, pass.stats))
}

/// Embeds `matrix` (indexed by `from_targets` order) into the subspace of
/// `to_targets` (ascending, a superset), acting as identity on the extra
/// qudits.
///
/// A direct stride-arithmetic construction rather than
/// [`qudit_core::radix::embed_operator`]: the fusion pass runs once per
/// compile but on every `(circuit, noise, config)` compilation, so one-shot
/// `run()` calls must not pay per-entry digit decompositions here. The
/// density compiler reuses it to embed superoperators into union supports
/// (there, "targets" are positions of the doubled `vec(ρ)` register).
pub(crate) fn embed_to(
    to_targets: &[usize],
    to_dims: &[usize],
    from_targets: &[usize],
    matrix: &CMatrix,
) -> Result<CMatrix> {
    if to_targets == from_targets {
        return Ok(matrix.clone());
    }
    let n: usize = to_dims.iter().product();
    let d_from = matrix.rows();
    // Stride of each union position in the union subspace.
    let mut strides = vec![1usize; to_dims.len()];
    for k in (0..to_dims.len().saturating_sub(1)).rev() {
        strides[k] = strides[k + 1] * to_dims[k + 1];
    }
    let position_of = |t: &usize| -> usize {
        to_targets.iter().position(|u| u == t).expect("subset of the union")
    };
    // Flat union offset of every `from` sub-index (row and column mappings
    // are identical): decompose the sub-index in `from_targets` order.
    let from_dims: Vec<usize> = from_targets.iter().map(|t| to_dims[position_of(t)]).collect();
    let from_strides: Vec<usize> = from_targets.iter().map(|t| strides[position_of(t)]).collect();
    let mut offsets = vec![0usize; d_from];
    for (sub, off) in offsets.iter_mut().enumerate() {
        let mut rem = sub;
        for k in (0..from_dims.len()).rev() {
            *off += (rem % from_dims[k]) * from_strides[k];
            rem /= from_dims[k];
        }
    }
    // Identity (non-`from`) positions of the union.
    let id_positions: Vec<usize> =
        (0..to_targets.len()).filter(|k| !from_targets.contains(&to_targets[*k])).collect();
    let id_dims: Vec<usize> = id_positions.iter().map(|&k| to_dims[k]).collect();
    let id_strides: Vec<usize> = id_positions.iter().map(|&k| strides[k]).collect();
    let id_count: usize = id_dims.iter().product::<usize>().max(1);

    let mut out = CMatrix::zeros(n, n);
    let data = out.as_mut_slice();
    let mut id_digits = vec![0usize; id_dims.len()];
    for id_idx in 0..id_count {
        if id_idx > 0 {
            for k in (0..id_digits.len()).rev() {
                id_digits[k] += 1;
                if id_digits[k] < id_dims[k] {
                    break;
                }
                id_digits[k] = 0;
            }
        }
        let base: usize = id_digits.iter().zip(id_strides.iter()).map(|(&d, &s)| d * s).sum();
        for (r, &off_r) in offsets.iter().enumerate() {
            let row = (base + off_r) * n + base;
            for (c, &v) in matrix.row(r).iter().enumerate() {
                if v != qudit_core::Complex64::ZERO {
                    data[row + offsets[c]] = v;
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use qudit_core::apply::OpKind;

    fn fuse_simple(c: &Circuit, config: &FusionConfig) -> (Vec<FusedInst>, FusionStats) {
        let fusable = vec![true; c.len()];
        fuse(c, &fusable, true, config).unwrap()
    }

    /// OpKind of the first compiled apply step (the fused block's operator is
    /// materialised by the kernel compiler since PR 5).
    fn first_step_kind(c: &Circuit) -> OpKind {
        let kernels = crate::sim::kernels::CircuitKernels::with_config(
            c,
            &crate::noise::NoiseModel::noiseless(),
            &FusionConfig::default(),
            false,
        )
        .unwrap();
        let crate::sim::kernels::ExecStep::Apply { kind, .. } = &kernels.steps[0] else {
            panic!("expected an apply step");
        };
        kind.clone()
    }

    #[test]
    fn same_support_run_becomes_one_block() {
        let mut c = Circuit::uniform(2, 3);
        c.push(Gate::fourier(3), &[0]).unwrap();
        c.push(Gate::clock_z(3), &[0]).unwrap();
        c.push(Gate::shift_x(3), &[0]).unwrap();
        let (plan, stats) = fuse_simple(&c, &FusionConfig::default());
        assert_eq!(plan.len(), 1);
        assert_eq!(stats.unitaries_in, 3);
        assert_eq!(stats.unitary_steps_out, 1);
        assert_eq!(stats.multi_gate_blocks, 1);
        match &plan[0] {
            FusedInst::Block { targets, gates } => {
                assert_eq!(targets, &[0]);
                assert_eq!(gates, &[0, 1, 2], "members recorded in program order");
            }
            other => panic!("expected block, got {other:?}"),
        }
    }

    #[test]
    fn diagonal_times_diagonal_stays_diagonal() {
        let mut c = Circuit::uniform(1, 4);
        c.push(Gate::clock_z(4), &[0]).unwrap();
        c.push(Gate::snap(4, &[0.1, 0.2, 0.3, 0.4]), &[0]).unwrap();
        let (plan, _) = fuse_simple(&c, &FusionConfig::default());
        assert_eq!(plan.len(), 1);
        assert!(matches!(first_step_kind(&c), OpKind::Diagonal(_)));
    }

    #[test]
    fn monomial_times_monomial_stays_monomial() {
        let mut c = Circuit::uniform(1, 4);
        c.push(Gate::shift_x(4), &[0]).unwrap();
        c.push(Gate::weyl(4, 2, 1), &[0]).unwrap();
        let (plan, _) = fuse_simple(&c, &FusionConfig::default());
        assert_eq!(plan.len(), 1);
        assert!(matches!(first_step_kind(&c), OpKind::Monomial { .. }));
    }

    #[test]
    fn single_qudit_gates_are_absorbed_into_covering_two_qudit_block() {
        let mut c = Circuit::uniform(2, 3);
        c.push(Gate::fourier(3), &[0]).unwrap();
        c.push(Gate::clock_z(3), &[1]).unwrap();
        c.push(Gate::csum(3, 3), &[0, 1]).unwrap();
        let (plan, stats) = fuse_simple(&c, &FusionConfig::default());
        // F(0), Z(1) and CSUM(0,1) all coalesce into one 9-dim block:
        // the union does not exceed the sum of parts (9 <= 3 + 3 + 9).
        assert_eq!(plan.len(), 1);
        assert_eq!(stats.max_block_dim, 9);
        assert_eq!(stats.multi_gate_blocks, 1);
    }

    #[test]
    fn cost_rule_rejects_union_growth_of_overlapping_pairs() {
        // (0,1) then (1,2): the 27-dim union exceeds 9 + 9, so the blocks
        // stay separate.
        let mut c = Circuit::uniform(3, 3);
        c.push(Gate::csum(3, 3), &[0, 1]).unwrap();
        c.push(Gate::csum(3, 3), &[1, 2]).unwrap();
        let (plan, stats) = fuse_simple(&c, &FusionConfig::default());
        assert_eq!(plan.len(), 2);
        assert_eq!(stats.multi_gate_blocks, 0);
    }

    #[test]
    fn measurement_flushes_open_blocks() {
        let mut c = Circuit::uniform(2, 3);
        c.push(Gate::fourier(3), &[0]).unwrap();
        c.measure(&[0]).unwrap();
        c.push(Gate::fourier(3), &[0]).unwrap();
        let (plan, stats) = fuse_simple(&c, &FusionConfig::default());
        assert_eq!(plan.len(), 3);
        assert!(matches!(plan[0], FusedInst::Block { .. }));
        assert!(matches!(plan[1], FusedInst::Passthrough { index: 1 }));
        assert!(matches!(plan[2], FusedInst::Block { .. }));
        assert_eq!(stats.unitary_steps_out, 2);
    }

    #[test]
    fn disabled_config_emits_everything_verbatim() {
        let mut c = Circuit::uniform(2, 3);
        c.push(Gate::fourier(3), &[0]).unwrap();
        c.push(Gate::fourier(3), &[0]).unwrap();
        c.barrier();
        let fusable = vec![true; c.len()];
        let (plan, stats) = fuse(&c, &fusable, true, &FusionConfig::disabled()).unwrap();
        assert_eq!(plan.len(), 3);
        assert!(matches!(plan[0], FusedInst::Gate { index: 0 }));
        assert!(matches!(plan[1], FusedInst::Gate { index: 1 }));
        assert!(matches!(plan[2], FusedInst::Passthrough { index: 2 }));
        assert_eq!(stats.multi_gate_blocks, 0);
    }

    #[test]
    fn unsorted_targets_are_canonicalised() {
        let mut c = Circuit::uniform(2, 3);
        c.push(Gate::csum(3, 3), &[1, 0]).unwrap();
        let (plan, _) = fuse_simple(&c, &FusionConfig::default());
        let FusedInst::Block { targets, gates } = &plan[0] else { panic!("expected block") };
        assert_eq!(targets, &[0, 1]);
        assert_eq!(gates, &[0]);
        // The compiled operator (materialised by the kernel compiler) embeds
        // the unsorted-target gate into the ascending support.
        let kernels = crate::sim::kernels::CircuitKernels::with_config(
            &c,
            &crate::noise::NoiseModel::noiseless(),
            &FusionConfig::default(),
            false,
        )
        .unwrap();
        let crate::sim::kernels::ExecStep::Apply { op, .. } = &kernels.steps[0] else {
            panic!("expected an apply step");
        };
        let expected =
            qudit_core::radix::embed_operator(c.radix(), &crate::gates::csum(3, 3), &[1, 0])
                .unwrap();
        let got = qudit_core::radix::embed_operator(c.radix(), op, &[0, 1]).unwrap();
        assert!((&got - &expected).max_abs() < 1e-12);
    }

    #[test]
    fn disjoint_measurement_does_not_flush_under_wire_local_policy() {
        // A gate run on wire 0, interrupted by a measurement of wire 1: the
        // run must fuse straight through it, and the (deferred) block is
        // emitted after the passthrough.
        let mut c = Circuit::uniform(2, 3);
        c.push(Gate::fourier(3), &[0]).unwrap();
        c.measure(&[1]).unwrap();
        c.push(Gate::clock_z(3), &[0]).unwrap();
        let (plan, stats) = fuse_simple(&c, &FusionConfig::default());
        assert_eq!(plan.len(), 2);
        assert!(matches!(plan[0], FusedInst::Passthrough { index: 1 }));
        let FusedInst::Block { targets, gates } = &plan[1] else { panic!("expected block") };
        assert_eq!(targets, &[0]);
        assert_eq!(gates, &[0, 2], "the run fuses straight through the readout");
        assert_eq!(stats.unitary_steps_out, 1);
        assert_eq!(stats.multi_gate_blocks, 1);
        assert_eq!(stats.barrier_crossings, 1);
    }

    #[test]
    fn overlapping_measurement_still_flushes_under_wire_local_policy() {
        let mut c = Circuit::uniform(2, 3);
        c.push(Gate::csum(3, 3), &[0, 1]).unwrap();
        c.measure(&[1]).unwrap();
        let (plan, stats) = fuse_simple(&c, &FusionConfig::default());
        assert_eq!(plan.len(), 2);
        assert!(matches!(plan[0], FusedInst::Block { .. }));
        assert!(matches!(plan[1], FusedInst::Passthrough { index: 1 }));
        assert_eq!(stats.barrier_crossings, 0);
    }

    #[test]
    fn reset_and_channel_barriers_are_wire_local_too() {
        // wire 0 carries a run; wire 1 sees a reset, then a channel. Neither
        // touches wire 0, so the run survives both and crosses two barriers.
        let mut c = Circuit::uniform(2, 3);
        c.push(Gate::fourier(3), &[0]).unwrap();
        c.reset(1).unwrap();
        c.push_channel(crate::noise::KrausChannel::photon_loss(3, 0.5).unwrap(), &[1]).unwrap();
        c.push(Gate::shift_x(3), &[0]).unwrap();
        let (plan, stats) = fuse_simple(&c, &FusionConfig::default());
        assert_eq!(plan.len(), 3);
        assert!(matches!(plan[0], FusedInst::Passthrough { index: 1 }));
        assert!(matches!(plan[1], FusedInst::Passthrough { index: 2 }));
        assert!(matches!(plan[2], FusedInst::Block { .. }));
        assert_eq!(stats.unitary_steps_out, 1);
        assert_eq!(stats.barrier_crossings, 2);
    }

    #[test]
    fn noisy_gate_barrier_flushes_only_its_own_wires() {
        // Instruction 1 is marked non-fusable (a noisy gate on wire 1); the
        // run on wire 0 must survive it.
        let mut c = Circuit::uniform(2, 3);
        c.push(Gate::fourier(3), &[0]).unwrap();
        c.push(Gate::shift_x(3), &[1]).unwrap();
        c.push(Gate::clock_z(3), &[0]).unwrap();
        let fusable = vec![true, false, true];
        let (plan, stats) = fuse(&c, &fusable, true, &FusionConfig::default()).unwrap();
        assert_eq!(plan.len(), 2);
        assert!(matches!(plan[0], FusedInst::Gate { index: 1 }));
        assert!(matches!(plan[1], FusedInst::Block { .. }));
        assert_eq!(stats.unitary_steps_out, 2, "noisy gate + one fused block");
        assert_eq!(stats.barrier_crossings, 1);
    }

    #[test]
    fn lossy_barrier_flushes_every_wire_even_under_wire_local_policy() {
        let mut c = Circuit::uniform(2, 3);
        c.push(Gate::fourier(3), &[0]).unwrap();
        c.barrier();
        c.push(Gate::clock_z(3), &[0]).unwrap();
        // drop_noop_barriers = false models an idle-loss noise model: the
        // barrier decays *every* wire, so nothing may cross it.
        let fusable = vec![true; c.len()];
        let (plan, stats) = fuse(&c, &fusable, false, &FusionConfig::default()).unwrap();
        assert_eq!(plan.len(), 3);
        assert!(matches!(plan[0], FusedInst::Block { .. }));
        assert!(matches!(plan[1], FusedInst::Passthrough { index: 1 }));
        assert!(matches!(plan[2], FusedInst::Block { .. }));
        assert_eq!(stats.barrier_crossings, 0);
    }

    #[test]
    fn syndrome_round_shape_fuses_data_wires_through_ancilla_readout() {
        // The syndrome-extraction shape: data wires 0..3, ancilla wire 4.
        // Each round entangles a rotating data pair with the ancilla, then
        // measures and resets the ancilla. Data gates on the *other* pair
        // must fuse across the round boundary.
        let mut c = Circuit::uniform(5, 3);
        for round in 0..2 {
            let (a, b) = if round == 0 { (0, 1) } else { (2, 3) };
            for q in 0..4 {
                c.push(Gate::fourier(3), &[q]).unwrap();
            }
            c.push(Gate::csum(3, 3), &[a, 4]).unwrap();
            c.push(Gate::csum(3, 3), &[b, 4]).unwrap();
            c.measure(&[4]).unwrap();
            c.reset(4).unwrap();
        }
        // Per round: the first CSUM's block closes when the second cannot
        // join it, the second's closes at the readout, and the two idle data
        // wires' runs cross the measure and the reset. The round-0 runs on
        // wires 2 and 3 are absorbed by round 1's CSUM blocks; the round-1
        // runs on wires 0 and 1 close at the end: 6 apply steps.
        let (_, stats) = fuse_simple(&c, &FusionConfig::default());
        assert_eq!(stats.unitaries_in, 12);
        assert_eq!(stats.unitary_steps_out, 6, "{stats:?}");
        assert_eq!(stats.barrier_crossings, 8, "{stats:?}");
    }

    #[test]
    fn fusion_reaches_across_noop_barriers_but_not_lossy_ones() {
        let mut c = Circuit::uniform(1, 3);
        c.push(Gate::fourier(3), &[0]).unwrap();
        c.barrier();
        c.push(Gate::fourier(3), &[0]).unwrap();
        let fusable = vec![true; c.len()];
        let (plan, _) = fuse(&c, &fusable, true, &FusionConfig::default()).unwrap();
        assert_eq!(plan.len(), 1, "no-op barrier must not break the run");
        let (plan, _) = fuse(&c, &fusable, false, &FusionConfig::default()).unwrap();
        assert_eq!(plan.len(), 3, "lossy barrier must flush and pass through");
    }
}
