//! Noise-aware mapping of logical qudits onto device modes.
//!
//! The modes of a multi-cell cavity are not interchangeable: their lifetimes
//! spread by tens of percent, and two-mode gates are cheaper within a module
//! than across modules. Qubit-centric toolkits have mature noise-aware
//! mapping passes; for qudit cavity devices this pass fills that gap — the
//! core "engineering" contribution the reproduction targets.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use cavity_sim::device::Device;
use qudit_circuit::{Circuit, Instruction};

use crate::error::{CompilerError, Result};

/// Mapping strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MappingStrategy {
    /// Coherence-weighted greedy assignment (the noise-aware pass).
    NoiseAware,
    /// Logical qudit `i` goes to device mode `i`.
    RoundRobin,
    /// A seeded random permutation (used as an ablation baseline).
    Random(u64),
}

/// A mapping from logical circuit qudits to global device mode indices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mapping {
    /// `logical_to_physical[q]` is the device mode hosting logical qudit `q`.
    pub logical_to_physical: Vec<usize>,
    /// Strategy that produced this mapping.
    pub strategy: MappingStrategy,
    /// Estimated end-to-end circuit fidelity under this mapping (product of
    /// per-gate success probabilities, ignoring routing).
    pub estimated_fidelity: f64,
}

impl Mapping {
    /// Number of mapped logical qudits.
    pub fn len(&self) -> usize {
        self.logical_to_physical.len()
    }

    /// Returns `true` if the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.logical_to_physical.is_empty()
    }
}

/// Interaction profile of a circuit: how often each qudit and each qudit pair
/// participates in gates.
#[derive(Debug, Clone, Default)]
pub struct InteractionProfile {
    /// Per-qudit gate counts (multi-qudit gates count for every participant).
    pub qudit_weight: Vec<f64>,
    /// Per-pair multi-qudit gate counts, keyed by `(min, max)`.
    pub pair_weight: BTreeMap<(usize, usize), f64>,
}

impl InteractionProfile {
    /// Extracts the interaction profile of a circuit.
    pub fn of(circuit: &Circuit) -> Self {
        let mut qudit_weight = vec![0.0; circuit.num_qudits()];
        let mut pair_weight: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        for inst in circuit.instructions() {
            if let Instruction::Unitary { targets, .. } = inst {
                for &t in targets {
                    qudit_weight[t] += 1.0;
                }
                if targets.len() >= 2 {
                    for i in 0..targets.len() {
                        for j in (i + 1)..targets.len() {
                            let key = (targets[i].min(targets[j]), targets[i].max(targets[j]));
                            *pair_weight.entry(key).or_insert(0.0) += 1.0;
                        }
                    }
                }
            }
        }
        Self { qudit_weight, pair_weight }
    }
}

/// Maps a circuit onto a device with the chosen strategy.
///
/// # Errors
/// Returns an error if the circuit needs more qudits than the device has
/// modes, or a qudit dimension exceeds every available mode truncation.
pub fn map_circuit(
    circuit: &Circuit,
    device: &Device,
    strategy: MappingStrategy,
) -> Result<Mapping> {
    let n_logical = circuit.num_qudits();
    let n_modes = device.num_modes();
    if n_logical > n_modes {
        return Err(CompilerError::MappingFailed(format!(
            "circuit uses {n_logical} qudits but device {} has only {n_modes} modes",
            device.name
        )));
    }
    let assignment = match strategy {
        MappingStrategy::RoundRobin => (0..n_logical).collect::<Vec<usize>>(),
        MappingStrategy::Random(seed) => {
            let mut modes: Vec<usize> = (0..n_modes).collect();
            modes.shuffle(&mut StdRng::seed_from_u64(seed));
            modes.truncate(n_logical);
            modes
        }
        MappingStrategy::NoiseAware => noise_aware_assignment(circuit, device)?,
    };
    // Dimension compatibility check.
    for (logical, &mode) in assignment.iter().enumerate() {
        let mode_dim = device.mode(mode).map_err(CompilerError::Cavity)?.dim;
        if circuit.dims()[logical] > mode_dim {
            return Err(CompilerError::MappingFailed(format!(
                "logical qudit {logical} needs d={} but mode {mode} only supports d={mode_dim}",
                circuit.dims()[logical]
            )));
        }
    }
    let estimated_fidelity = estimate_mapped_fidelity(circuit, device, &assignment)?;
    Ok(Mapping { logical_to_physical: assignment, strategy, estimated_fidelity })
}

/// Coherence-weighted assignment: score a portfolio of candidate placements
/// with the device-calibrated fidelity model, then refine the best candidate
/// by pairwise-swap hill climbing.
///
/// The candidate set always contains the identity (round-robin) placement, so
/// the noise-aware pass can never be worse than the naive baseline under the
/// fidelity model it optimises.
fn noise_aware_assignment(circuit: &Circuit, device: &Device) -> Result<Vec<usize>> {
    let n_logical = circuit.num_qudits();
    let n_modes = device.num_modes();

    let dims_ok = |assignment: &[usize]| -> bool {
        assignment.iter().enumerate().all(|(logical, &mode)| {
            device.mode(mode).map(|m| m.dim >= circuit.dims()[logical]).unwrap_or(false)
        })
    };

    // Candidate placements: every contiguous window of modes (the natural
    // choice for the nearest-neighbour circuits of the three applications).
    let mut candidates: Vec<Vec<usize>> = Vec::new();
    for offset in 0..=(n_modes - n_logical) {
        let assignment: Vec<usize> = (offset..offset + n_logical).collect();
        if dims_ok(&assignment) {
            candidates.push(assignment);
        }
    }
    if candidates.is_empty() {
        return Err(CompilerError::MappingFailed(format!(
            "no contiguous block of {n_logical} modes supports the requested qudit dimensions"
        )));
    }

    // Score candidates and keep the best.
    let mut best = candidates[0].clone();
    let mut best_score = estimate_mapped_fidelity(circuit, device, &best)?;
    for cand in candidates.iter().skip(1) {
        let score = estimate_mapped_fidelity(circuit, device, cand)?;
        if score > best_score {
            best_score = score;
            best = cand.clone();
        }
    }

    // Hill climbing: try swapping the modes of logical pairs, and moving a
    // logical qudit onto any unused mode; accept strict improvements.
    let max_passes = 4;
    for _ in 0..max_passes {
        let mut improved = false;
        // Pairwise swaps.
        for i in 0..n_logical {
            for j in (i + 1)..n_logical {
                let mut trial = best.clone();
                trial.swap(i, j);
                if !dims_ok(&trial) {
                    continue;
                }
                let score = estimate_mapped_fidelity(circuit, device, &trial)?;
                if score > best_score {
                    best_score = score;
                    best = trial;
                    improved = true;
                }
            }
        }
        // Relocations to unused modes.
        let used: Vec<bool> = {
            let mut used = vec![false; n_modes];
            for &m in &best {
                used[m] = true;
            }
            used
        };
        for logical in 0..n_logical {
            for (mode, &is_used) in used.iter().enumerate() {
                if is_used {
                    continue;
                }
                let mut trial = best.clone();
                trial[logical] = mode;
                if !dims_ok(&trial) {
                    continue;
                }
                let score = estimate_mapped_fidelity(circuit, device, &trial)?;
                if score > best_score {
                    best_score = score;
                    best = trial;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    Ok(best)
}

/// Estimated end-to-end fidelity of a circuit under an assignment: product of
/// per-gate success probabilities (two-qudit gates between distant modules
/// pay an extra per-hop routing cost).
pub fn estimate_mapped_fidelity(
    circuit: &Circuit,
    device: &Device,
    assignment: &[usize],
) -> Result<f64> {
    let mut log_success = 0.0_f64;
    for inst in circuit.instructions() {
        if let Instruction::Unitary { targets, .. } = inst {
            let error = if targets.len() == 1 {
                let mode = assignment[targets[0]];
                let duration = device.durations.snap_us + 2.0 * device.durations.displacement_us;
                device.single_mode_error(mode, duration).map_err(CompilerError::Cavity)?
            } else {
                let a = assignment[targets[0]];
                let b = assignment[targets[1]];
                let (ma, _) = device.module_of(a).map_err(CompilerError::Cavity)?;
                let (mb, _) = device.module_of(b).map_err(CompilerError::Cavity)?;
                let dist = ma.abs_diff(mb);
                let base = if dist == 0 {
                    device.durations.csum_intra_us
                } else {
                    device.durations.csum_inter_us
                };
                // Each extra hop requires a pair of mode swaps (beam splitters).
                let routing =
                    dist.saturating_sub(1) as f64 * 2.0 * device.durations.beam_splitter_us;
                device.two_mode_error(a, b, base + routing).map_err(CompilerError::Cavity)?
            };
            log_success += (1.0 - error.min(0.999_999)).ln();
        }
    }
    Ok(log_success.exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_circuit::Gate;

    fn ladder_circuit(n: usize, d: usize) -> Circuit {
        let mut c = Circuit::uniform(n, d);
        for q in 0..n {
            c.push(Gate::fourier(d), &[q]).unwrap();
        }
        for q in 0..n - 1 {
            c.push(Gate::csum(d, d), &[q, q + 1]).unwrap();
        }
        c
    }

    #[test]
    fn interaction_profile_counts_gates() {
        let c = ladder_circuit(4, 3);
        let p = InteractionProfile::of(&c);
        assert_eq!(p.qudit_weight.len(), 4);
        // Middle qudits participate in 1 single + 2 two-qudit gates.
        assert!((p.qudit_weight[1] - 3.0).abs() < 1e-12);
        assert!((p.qudit_weight[0] - 2.0).abs() < 1e-12);
        assert_eq!(p.pair_weight.len(), 3);
        assert!((p.pair_weight[&(1, 2)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_strategies_produce_valid_injective_mappings() {
        let c = ladder_circuit(4, 4);
        let dev = Device::testbed();
        for strategy in
            [MappingStrategy::NoiseAware, MappingStrategy::RoundRobin, MappingStrategy::Random(3)]
        {
            let m = map_circuit(&c, &dev, strategy).unwrap();
            assert_eq!(m.len(), 4);
            let mut seen = m.logical_to_physical.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), 4, "mapping must be injective for {strategy:?}");
            assert!(m.estimated_fidelity > 0.0 && m.estimated_fidelity <= 1.0);
        }
    }

    #[test]
    fn noise_aware_beats_round_robin_on_heterogeneous_device() {
        // A circuit whose busiest qudit would land on the worst mode under
        // round-robin.
        let d = 4;
        let mut c = Circuit::uniform(4, d);
        // Qudit 3 is by far the busiest.
        for _ in 0..10 {
            c.push(Gate::fourier(d), &[3]).unwrap();
        }
        c.push(Gate::csum(d, d), &[3, 0]).unwrap();
        let dev = Device::testbed(); // mode 3 has the worst T1
        let aware = map_circuit(&c, &dev, MappingStrategy::NoiseAware).unwrap();
        let naive = map_circuit(&c, &dev, MappingStrategy::RoundRobin).unwrap();
        assert!(
            aware.estimated_fidelity > naive.estimated_fidelity,
            "aware {} vs naive {}",
            aware.estimated_fidelity,
            naive.estimated_fidelity
        );
        // The busy logical qudit should not sit on the worst physical mode.
        assert_ne!(aware.logical_to_physical[3], 3);
    }

    #[test]
    fn mapping_rejects_oversized_circuits() {
        let c = ladder_circuit(5, 4);
        let dev = Device::testbed(); // only 4 modes
        assert!(map_circuit(&c, &dev, MappingStrategy::NoiseAware).is_err());
    }

    #[test]
    fn mapping_rejects_dimension_overflow() {
        let c = ladder_circuit(2, 6); // needs d = 6
        let dev = Device::testbed(); // modes support d = 4
        assert!(map_circuit(&c, &dev, MappingStrategy::NoiseAware).is_err());
        assert!(map_circuit(&c, &dev, MappingStrategy::RoundRobin).is_err());
    }

    #[test]
    fn forecast_device_hosts_paper_scale_circuits() {
        // The Table-I sQED row: 18 qudits with d = 4 fits the forecast device.
        let c = ladder_circuit(18, 4);
        let dev = Device::forecast();
        let m = map_circuit(&c, &dev, MappingStrategy::NoiseAware).unwrap();
        assert_eq!(m.len(), 18);
        assert!(m.estimated_fidelity > 0.0);
    }

    #[test]
    fn noise_aware_keeps_interacting_pairs_close() {
        let d = 4;
        let mut c = Circuit::uniform(2, d);
        for _ in 0..5 {
            c.push(Gate::csum(d, d), &[0, 1]).unwrap();
        }
        let dev = Device::forecast();
        let m = map_circuit(&c, &dev, MappingStrategy::NoiseAware).unwrap();
        let (mod_a, _) = dev.module_of(m.logical_to_physical[0]).unwrap();
        let (mod_b, _) = dev.module_of(m.logical_to_physical[1]).unwrap();
        assert!(mod_a.abs_diff(mod_b) <= 1, "interacting pair should stay within reach");
    }
}
