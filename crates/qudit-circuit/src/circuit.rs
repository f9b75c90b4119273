//! Circuit intermediate representation for mixed-radix qudit registers.

use qudit_core::matrix::CMatrix;
use qudit_core::radix::{embed_operator, Radix};

use crate::error::{CircuitError, Result};
use crate::gate::Gate;
use crate::noise::KrausChannel;

/// One instruction of a qudit circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum Instruction {
    /// A unitary gate applied to the listed qudits (in gate-matrix order).
    Unitary {
        /// The gate.
        gate: Gate,
        /// Target qudit indices, first index = most significant gate digit.
        targets: Vec<usize>,
    },
    /// A computational-basis measurement of the listed qudits.
    Measure {
        /// Measured qudit indices.
        targets: Vec<usize>,
    },
    /// Reset of one qudit to `|0⟩` (measure and rotate back).
    Reset {
        /// The qudit to reset.
        target: usize,
    },
    /// Explicit noise-channel insertion (used by noise-aware compilation and
    /// the NDAR dissipative schedule).
    Channel {
        /// The Kraus channel.
        channel: KrausChannel,
        /// Target qudit indices.
        targets: Vec<usize>,
    },
    /// A scheduling barrier: forces a new layer in depth computations.
    Barrier,
}

impl Instruction {
    /// The qudits this instruction touches.
    pub fn targets(&self) -> Vec<usize> {
        match self {
            Instruction::Unitary { targets, .. } | Instruction::Measure { targets } => {
                targets.clone()
            }
            Instruction::Reset { target } => vec![*target],
            Instruction::Channel { targets, .. } => targets.clone(),
            Instruction::Barrier => Vec::new(),
        }
    }
}

/// A quantum circuit on a mixed-radix qudit register.
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    radix: Radix,
    instructions: Vec<Instruction>,
}

impl Circuit {
    /// Creates an empty circuit on a register with the given per-qudit
    /// dimensions.
    ///
    /// # Panics
    /// Panics if any dimension is below 2 (programming error at construction
    /// time, consistent with collection constructors).
    pub fn new(dims: Vec<usize>) -> Self {
        let radix = Radix::new(dims).expect("qudit dimensions must be at least 2");
        Self { radix, instructions: Vec::new() }
    }

    /// Creates an empty circuit of `n` qudits of uniform dimension `d`.
    pub fn uniform(n: usize, d: usize) -> Self {
        Self::new(vec![d; n])
    }

    /// The register description.
    pub fn radix(&self) -> &Radix {
        &self.radix
    }

    /// Per-qudit dimensions.
    pub fn dims(&self) -> &[usize] {
        self.radix.dims()
    }

    /// Number of qudits.
    pub fn num_qudits(&self) -> usize {
        self.radix.len()
    }

    /// Total Hilbert-space dimension.
    pub fn total_dim(&self) -> usize {
        self.radix.total_dim()
    }

    /// The instruction list.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of instructions (of all kinds).
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Returns `true` if the circuit has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Appends a gate acting on the listed targets.
    ///
    /// # Errors
    /// Returns an error if targets are out of range, repeated, or their
    /// dimensions do not match the gate's.
    pub fn push(&mut self, gate: Gate, targets: &[usize]) -> Result<()> {
        self.radix.check_targets(targets).map_err(CircuitError::Core)?;
        if targets.len() != gate.num_qudits() {
            return Err(CircuitError::InvalidTargets(format!(
                "gate {} acts on {} qudits but {} targets given",
                gate.name(),
                gate.num_qudits(),
                targets.len()
            )));
        }
        for (pos, &t) in targets.iter().enumerate() {
            if self.radix.dims()[t] != gate.dims()[pos] {
                return Err(CircuitError::InvalidTargets(format!(
                    "gate {} expects dimension {} at position {pos} but qudit {t} has dimension {}",
                    gate.name(),
                    gate.dims()[pos],
                    self.radix.dims()[t]
                )));
            }
        }
        self.instructions.push(Instruction::Unitary { gate, targets: targets.to_vec() });
        Ok(())
    }

    /// Appends a measurement of the listed qudits.
    ///
    /// # Errors
    /// Returns an error for invalid targets.
    pub fn measure(&mut self, targets: &[usize]) -> Result<()> {
        self.radix.check_targets(targets).map_err(CircuitError::Core)?;
        self.instructions.push(Instruction::Measure { targets: targets.to_vec() });
        Ok(())
    }

    /// Appends a measurement of every qudit.
    pub fn measure_all(&mut self) {
        let all: Vec<usize> = (0..self.num_qudits()).collect();
        self.instructions.push(Instruction::Measure { targets: all });
    }

    /// Appends a reset of one qudit to `|0⟩`.
    ///
    /// # Errors
    /// Returns an error for an invalid target.
    pub fn reset(&mut self, target: usize) -> Result<()> {
        self.radix.check_targets(&[target]).map_err(CircuitError::Core)?;
        self.instructions.push(Instruction::Reset { target });
        Ok(())
    }

    /// Appends an explicit noise channel on the listed qudits.
    ///
    /// # Errors
    /// Returns an error if targets are invalid or dimensions disagree with the
    /// channel.
    pub fn push_channel(&mut self, channel: KrausChannel, targets: &[usize]) -> Result<()> {
        self.radix.check_targets(targets).map_err(CircuitError::Core)?;
        if targets.len() != channel.dims().len() {
            return Err(CircuitError::InvalidTargets(format!(
                "channel {} acts on {} qudits but {} targets given",
                channel.name(),
                channel.dims().len(),
                targets.len()
            )));
        }
        for (pos, &t) in targets.iter().enumerate() {
            if self.radix.dims()[t] != channel.dims()[pos] {
                return Err(CircuitError::InvalidTargets(format!(
                    "channel {} expects dimension {} at position {pos} but qudit {t} has dimension {}",
                    channel.name(),
                    channel.dims()[pos],
                    self.radix.dims()[t]
                )));
            }
        }
        self.instructions.push(Instruction::Channel { channel, targets: targets.to_vec() });
        Ok(())
    }

    /// Appends a scheduling barrier.
    pub fn barrier(&mut self) {
        self.instructions.push(Instruction::Barrier);
    }

    /// Appends every instruction of `other` (registers must match).
    ///
    /// # Errors
    /// Returns an error if the registers differ.
    pub fn extend(&mut self, other: &Circuit) -> Result<()> {
        if other.radix != self.radix {
            return Err(CircuitError::InvalidTargets(format!(
                "cannot extend circuit on {:?} with circuit on {:?}",
                self.dims(),
                other.dims()
            )));
        }
        self.instructions.extend(other.instructions.iter().cloned());
        Ok(())
    }

    /// Number of parameters a binding for this circuit must supply: one more
    /// than the largest [`crate::gate::Param::Free`] index carried by any
    /// gate, or zero for a fully bound circuit.
    pub fn num_params(&self) -> usize {
        self.instructions
            .iter()
            .filter_map(|inst| match inst {
                Instruction::Unitary { gate, .. } => gate.free_param(),
                _ => None,
            })
            .max()
            .map_or(0, |idx| idx + 1)
    }

    /// Returns the circuit with every free gate parameter bound to the value
    /// `params` supplies (see [`crate::gate::Gate::bound`]); the structure —
    /// instructions, targets, measurements, channels — is unchanged.
    ///
    /// Running `compile(circuit.with_bound(θ))` is equivalent to compiling
    /// the parameterized circuit once and rebinding the plan in place with
    /// `CompiledCircuit::bind(θ)`; the latter skips recompilation.
    ///
    /// # Errors
    /// Returns an error if `params` is shorter than [`Circuit::num_params`].
    pub fn with_bound(&self, params: &[f64]) -> Result<Circuit> {
        let mut instructions = Vec::with_capacity(self.instructions.len());
        for inst in &self.instructions {
            instructions.push(match inst {
                Instruction::Unitary { gate, targets } => {
                    Instruction::Unitary { gate: gate.bound(params)?, targets: targets.clone() }
                }
                other => other.clone(),
            });
        }
        Ok(Circuit { radix: self.radix.clone(), instructions })
    }

    /// Number of unitary gate instructions.
    pub fn gate_count(&self) -> usize {
        self.instructions.iter().filter(|i| matches!(i, Instruction::Unitary { .. })).count()
    }

    /// Number of unitary gates acting on at least two qudits.
    pub fn multi_qudit_gate_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| matches!(i, Instruction::Unitary { targets, .. } if targets.len() >= 2))
            .count()
    }

    /// Circuit depth: the number of layers under greedy ASAP scheduling where
    /// instructions touching disjoint qudits share a layer. Barriers close all
    /// layers.
    pub fn depth(&self) -> usize {
        let mut qudit_depth = vec![0usize; self.num_qudits()];
        let mut barrier_floor = 0usize;
        let mut max_depth = 0usize;
        for inst in &self.instructions {
            if matches!(inst, Instruction::Barrier) {
                barrier_floor = max_depth;
                continue;
            }
            let targets = inst.targets();
            if targets.is_empty() {
                continue;
            }
            let start =
                targets.iter().map(|&t| qudit_depth[t]).max().unwrap_or(0).max(barrier_floor);
            let new_depth = start + 1;
            for &t in &targets {
                qudit_depth[t] = new_depth;
            }
            max_depth = max_depth.max(new_depth);
        }
        max_depth
    }

    /// Builds the full unitary of the circuit (requires a purely unitary
    /// circuit: no measurements, resets or channels, and no unbound free
    /// parameters — bind them first with [`Circuit::with_bound`]).
    ///
    /// # Errors
    /// Returns [`CircuitError::Unsupported`] for non-unitary instructions or
    /// unbound parameters.
    pub fn unitary(&self) -> Result<CMatrix> {
        if self.num_params() > 0 {
            return Err(CircuitError::Unsupported(
                "circuit carries free parameters; bind them with with_bound first".into(),
            ));
        }
        let mut u = CMatrix::identity(self.total_dim());
        for inst in &self.instructions {
            match inst {
                Instruction::Unitary { gate, targets } => {
                    let full = embed_operator(&self.radix, gate.matrix(), targets)
                        .map_err(CircuitError::Core)?;
                    u = full.matmul(&u).map_err(CircuitError::Core)?;
                }
                Instruction::Barrier => {}
                other => {
                    return Err(CircuitError::Unsupported(format!(
                        "cannot build a unitary for a circuit containing {other:?}"
                    )));
                }
            }
        }
        Ok(u)
    }

    /// A 64-bit **structural hash** of the circuit: register dimensions,
    /// instruction kinds and order, targets, gate identities (name, dims,
    /// matrix bit patterns, parameter), and channel identities. Two circuits
    /// hash equal iff they would compile to the same execution plan under a
    /// fixed simulator configuration, so the hash is the plan-cache key of
    /// the serving layer — note in particular that a *free* parameter hashes
    /// by its index, not its value, which is exactly right for a cache of
    /// rebindable plans (one cached plan serves every binding).
    ///
    /// The hash is FNV-1a over a canonical byte encoding; it is stable within
    /// a process run and across runs on the same platform, but is not a
    /// cryptographic commitment.
    pub fn structural_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        let eat_usize = |eat: &mut dyn FnMut(&[u8]), v: usize| eat(&(v as u64).to_le_bytes());
        let eat_matrix = |eat: &mut dyn FnMut(&[u8]), m: &CMatrix| {
            eat(&(m.rows() as u64).to_le_bytes());
            eat(&(m.cols() as u64).to_le_bytes());
            for z in m.as_slice() {
                eat(&z.re.to_bits().to_le_bytes());
                eat(&z.im.to_bits().to_le_bytes());
            }
        };
        eat_usize(&mut eat, self.radix.len());
        for &d in self.radix.dims() {
            eat_usize(&mut eat, d);
        }
        for inst in &self.instructions {
            match inst {
                Instruction::Unitary { gate, targets } => {
                    eat(&[0]);
                    eat(gate.name().as_bytes());
                    eat(&[0xFF]); // name terminator, so "ab"+"c" != "a"+"bc"
                    for &d in gate.dims() {
                        eat_usize(&mut eat, d);
                    }
                    eat_matrix(&mut eat, gate.matrix());
                    match gate.param() {
                        None => eat(&[0]),
                        Some(crate::gate::Param::Bound(v)) => {
                            eat(&[1]);
                            eat(&v.to_bits().to_le_bytes());
                        }
                        Some(crate::gate::Param::Free(idx)) => {
                            eat(&[2]);
                            eat_usize(&mut eat, idx);
                        }
                    }
                    for &t in targets {
                        eat_usize(&mut eat, t);
                    }
                }
                Instruction::Measure { targets } => {
                    eat(&[1]);
                    eat_usize(&mut eat, targets.len());
                    for &t in targets {
                        eat_usize(&mut eat, t);
                    }
                }
                Instruction::Reset { target } => {
                    eat(&[2]);
                    eat_usize(&mut eat, *target);
                }
                Instruction::Channel { channel, targets } => {
                    eat(&[3]);
                    eat(channel.name().as_bytes());
                    eat(&[0xFF]);
                    for &d in channel.dims() {
                        eat_usize(&mut eat, d);
                    }
                    eat(&channel.tolerance().to_bits().to_le_bytes());
                    eat_usize(&mut eat, channel.operators().len());
                    for op in channel.operators() {
                        eat_matrix(&mut eat, op);
                    }
                    for &t in targets {
                        eat_usize(&mut eat, t);
                    }
                }
                Instruction::Barrier => eat(&[4]),
            }
        }
        h
    }

    /// The inverse circuit: daggered gates in reverse order.
    ///
    /// # Errors
    /// Returns [`CircuitError::Unsupported`] if the circuit contains
    /// non-unitary instructions.
    pub fn inverse(&self) -> Result<Circuit> {
        let mut inv = Circuit::new(self.dims().to_vec());
        for inst in self.instructions.iter().rev() {
            match inst {
                Instruction::Unitary { gate, targets } => {
                    inv.push(gate.dagger(), targets)?;
                }
                Instruction::Barrier => inv.barrier(),
                other => {
                    return Err(CircuitError::Unsupported(format!(
                        "cannot invert a circuit containing {other:?}"
                    )));
                }
            }
        }
        Ok(inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::KrausChannel;
    use qudit_core::metrics::process_fidelity;

    #[test]
    fn push_validates_targets_and_dims() {
        let mut c = Circuit::new(vec![3, 3, 2]);
        assert!(c.push(Gate::fourier(3), &[0]).is_ok());
        assert!(c.push(Gate::fourier(3), &[2]).is_err()); // dimension mismatch
        assert!(c.push(Gate::fourier(3), &[7]).is_err()); // out of range
        assert!(c.push(Gate::csum(3, 3), &[0, 0]).is_err()); // duplicate
        assert!(c.push(Gate::csum(3, 3), &[0]).is_err()); // arity mismatch
        assert!(c.push(Gate::csum(3, 2), &[1, 2]).is_ok()); // mixed dims ok
    }

    #[test]
    fn gate_counts_and_histogram() {
        let mut c = Circuit::uniform(3, 3);
        c.push(Gate::fourier(3), &[0]).unwrap();
        c.push(Gate::fourier(3), &[1]).unwrap();
        c.push(Gate::csum(3, 3), &[0, 1]).unwrap();
        c.push(Gate::csum(3, 3), &[1, 2]).unwrap();
        c.measure_all();
        assert_eq!(c.gate_count(), 4);
        assert_eq!(c.multi_qudit_gate_count(), 2);
        let named = |name: &str| {
            c.instructions
                .iter()
                .filter(|i| matches!(i, Instruction::Unitary { gate, .. } if gate.name() == name))
                .count()
        };
        assert_eq!(named("F3"), 2);
        assert_eq!(named("CSUM3,3"), 2);
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn depth_with_parallel_gates_and_barriers() {
        let mut c = Circuit::uniform(4, 3);
        // Layer 1: gates on 0 and 1 in parallel with gates on 2 and 3.
        c.push(Gate::csum(3, 3), &[0, 1]).unwrap();
        c.push(Gate::csum(3, 3), &[2, 3]).unwrap();
        assert_eq!(c.depth(), 1);
        // Layer 2: overlapping gate.
        c.push(Gate::csum(3, 3), &[1, 2]).unwrap();
        assert_eq!(c.depth(), 2);
        // Barrier forces later single-qudit gate into a new layer.
        c.barrier();
        c.push(Gate::fourier(3), &[3]).unwrap();
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn unitary_of_fourier_circuit() {
        let mut c = Circuit::new(vec![3]);
        c.push(Gate::fourier(3), &[0]).unwrap();
        c.push(Gate::fourier(3).dagger(), &[0]).unwrap();
        let u = c.unitary().unwrap();
        assert!(process_fidelity(&u, &CMatrix::identity(3)).unwrap() > 1.0 - 1e-10);
    }

    #[test]
    fn unitary_rejects_measurement() {
        let mut c = Circuit::new(vec![2]);
        c.measure_all();
        assert!(c.unitary().is_err());
    }

    #[test]
    fn inverse_circuit_undoes_forward_circuit() {
        let mut c = Circuit::uniform(2, 3);
        c.push(Gate::fourier(3), &[0]).unwrap();
        c.push(Gate::csum(3, 3), &[0, 1]).unwrap();
        c.push(Gate::snap(3, &[0.1, 0.7, -0.4]), &[1]).unwrap();
        let mut full = c.clone();
        full.extend(&c.inverse().unwrap()).unwrap();
        let u = full.unitary().unwrap();
        assert!(process_fidelity(&u, &CMatrix::identity(9)).unwrap() > 1.0 - 1e-9);
    }

    #[test]
    fn extend_requires_same_register() {
        let mut a = Circuit::uniform(2, 3);
        let b = Circuit::uniform(2, 4);
        assert!(a.extend(&b).is_err());
    }

    #[test]
    fn channel_insertion_validation() {
        let mut c = Circuit::uniform(2, 3);
        let ch = KrausChannel::photon_loss(3, 0.1).unwrap();
        assert!(c.push_channel(ch.clone(), &[1]).is_ok());
        assert!(c.push_channel(ch.clone(), &[0, 1]).is_err());
        let ch2 = KrausChannel::photon_loss(4, 0.1).unwrap();
        assert!(c.push_channel(ch2, &[0]).is_err());
        assert!(c.unitary().is_err());
    }

    #[test]
    fn parameterized_circuits_bind_and_guard_unitary() {
        use crate::gate::Param;
        let mut c = Circuit::uniform(2, 3);
        c.push(Gate::fourier(3), &[0]).unwrap();
        let sep = Gate::parameterized(
            "sep",
            vec![3],
            &qudit_core::matrix::CMatrix::diag_real(&[0.0, 1.0, 2.0]),
            Param::Free(1),
        )
        .unwrap();
        c.push(sep, &[1]).unwrap();
        assert_eq!(c.num_params(), 2);
        assert!(c.unitary().is_err(), "free parameters must block unitary()");
        let bound = c.with_bound(&[0.0, 0.4]).unwrap();
        assert_eq!(bound.num_params(), 0);
        assert!(bound.unitary().is_ok());
        assert!(c.with_bound(&[0.1]).is_err(), "short bindings rejected");
    }

    #[test]
    fn structural_hash_distinguishes_structure() {
        let mut a = Circuit::uniform(2, 3);
        a.push(Gate::fourier(3), &[0]).unwrap();
        a.push(Gate::csum(3, 3), &[0, 1]).unwrap();
        assert_eq!(a.structural_hash(), a.clone().structural_hash());

        // Different targets, same gates.
        let mut b = Circuit::uniform(2, 3);
        b.push(Gate::fourier(3), &[1]).unwrap();
        b.push(Gate::csum(3, 3), &[0, 1]).unwrap();
        assert_ne!(a.structural_hash(), b.structural_hash());

        // Extra instruction.
        let mut c = a.clone();
        c.measure(&[0]).unwrap();
        assert_ne!(a.structural_hash(), c.structural_hash());
        // Measure vs reset on the same target.
        let mut d = a.clone();
        d.reset(0).unwrap();
        assert_ne!(c.structural_hash(), d.structural_hash());

        // Register dimensions are structural even with no instructions.
        assert_ne!(
            Circuit::uniform(2, 3).structural_hash(),
            Circuit::uniform(2, 4).structural_hash()
        );
        assert_ne!(
            Circuit::uniform(2, 3).structural_hash(),
            Circuit::uniform(3, 3).structural_hash()
        );
    }

    #[test]
    fn structural_hash_keys_free_params_by_index_and_bound_by_value() {
        use crate::gate::Param;
        let phase = |p: Param| {
            Gate::parameterized(
                "sep",
                vec![3],
                &qudit_core::matrix::CMatrix::diag_real(&[0.0, 1.0, 2.0]),
                p,
            )
            .unwrap()
        };
        let with_param = |p: Param| {
            let mut c = Circuit::uniform(1, 3);
            c.push(phase(p), &[0]).unwrap();
            c
        };
        // Two bound values are different plans; two circuits sharing a free
        // index are the same rebindable plan.
        assert_ne!(
            with_param(Param::Bound(0.3)).structural_hash(),
            with_param(Param::Bound(0.7)).structural_hash()
        );
        assert_eq!(
            with_param(Param::Free(0)).structural_hash(),
            with_param(Param::Free(0)).structural_hash()
        );
        assert_ne!(
            with_param(Param::Free(0)).structural_hash(),
            with_param(Param::Free(1)).structural_hash()
        );
        assert_ne!(
            with_param(Param::Free(0)).structural_hash(),
            with_param(Param::Bound(0.0)).structural_hash()
        );
    }

    #[test]
    fn reset_and_measure_instructions() {
        let mut c = Circuit::uniform(2, 4);
        c.reset(1).unwrap();
        c.measure(&[0]).unwrap();
        assert!(c.reset(5).is_err());
        assert!(c.measure(&[0, 0]).is_err());
        assert_eq!(c.len(), 2);
    }
}
