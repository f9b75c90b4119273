//! Routing of logical circuits onto the linear cavity-chain topology.
//!
//! When a two-qudit gate targets modes that are not directly connected (same
//! module or adjacent modules), the router inserts beam-splitter SWAPs that
//! walk one operand's state along the chain until the pair is within reach,
//! updating the placement as it goes — the qudit analogue of SWAP-based qubit
//! routing, with mode-swap primitives instead of CNOT triples.

use serde::{Deserialize, Serialize};

use cavity_sim::device::Device;
use qudit_circuit::{Circuit, Instruction};

use crate::error::{CompilerError, Result};
use crate::mapping::Mapping;

/// One operation of a routed (physical-level) schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhysicalOp {
    /// Operation label (gate name, `SWAP`, `readout`, ...).
    pub name: String,
    /// Global device modes the operation touches.
    pub modes: Vec<usize>,
    /// Duration (µs).
    pub duration_us: f64,
    /// Estimated error probability.
    pub error: f64,
    /// `true` if this operation was inserted by the router.
    pub inserted_by_router: bool,
}

/// A routed circuit: the physical operation schedule plus summary metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutedCircuit {
    /// Physical operations in execution order.
    pub ops: Vec<PhysicalOp>,
    /// Placement of each logical qudit after execution (routing permutes it).
    pub final_placement: Vec<usize>,
    /// Number of router-inserted SWAPs.
    pub swap_count: usize,
}

impl RoutedCircuit {
    /// Total serial duration (µs).
    pub fn total_duration_us(&self) -> f64 {
        self.ops.iter().map(|o| o.duration_us).sum()
    }

    /// Estimated end-to-end success probability.
    pub fn estimated_fidelity(&self) -> f64 {
        self.ops.iter().map(|o| 1.0 - o.error.min(0.999_999)).product()
    }
}

/// Routes a logical circuit onto the device given an initial mapping.
///
/// # Errors
/// Returns an error if a gate cannot be routed (e.g. indices out of range).
pub fn route(circuit: &Circuit, device: &Device, mapping: &Mapping) -> Result<RoutedCircuit> {
    let mut placement = mapping.logical_to_physical.clone();
    // Reverse map: device mode -> logical qudit currently stored there.
    let mut occupant: Vec<Option<usize>> = vec![None; device.num_modes()];
    for (logical, &mode) in placement.iter().enumerate() {
        occupant[mode] = Some(logical);
    }

    let mut ops = Vec::new();
    let mut swap_count = 0usize;
    let single_duration = device.durations.snap_us + 2.0 * device.durations.displacement_us;

    for inst in circuit.instructions() {
        match inst {
            Instruction::Unitary { gate, targets } => {
                if targets.len() == 1 {
                    let mode = placement[targets[0]];
                    let error = device
                        .single_mode_error(mode, single_duration)
                        .map_err(CompilerError::Cavity)?;
                    ops.push(PhysicalOp {
                        name: gate.name().to_string(),
                        modes: vec![mode],
                        duration_us: single_duration,
                        error,
                        inserted_by_router: false,
                    });
                } else {
                    let (a, b) = (targets[0], targets[1]);
                    // Walk logical `a` towards logical `b` until connected.
                    let mut guard = 0;
                    while !device
                        .are_connected(placement[a], placement[b])
                        .map_err(CompilerError::Cavity)?
                    {
                        guard += 1;
                        if guard > device.num_modules() + 2 {
                            return Err(CompilerError::RoutingFailed(format!(
                                "could not connect logical qudits {a} and {b}"
                            )));
                        }
                        let step_mode = next_step_mode(device, placement[a], placement[b])?;
                        let from = placement[a];
                        let error = device
                            .two_mode_error(from, step_mode, device.durations.beam_splitter_us)
                            .map_err(CompilerError::Cavity)?;
                        ops.push(PhysicalOp {
                            name: "SWAP".into(),
                            modes: vec![from, step_mode],
                            duration_us: device.durations.beam_splitter_us,
                            error,
                            inserted_by_router: true,
                        });
                        swap_count += 1;
                        // Update placement: whatever logical sat on step_mode
                        // moves back to `from`.
                        let displaced = occupant[step_mode];
                        occupant[from] = displaced;
                        if let Some(c) = displaced {
                            placement[c] = from;
                        }
                        occupant[step_mode] = Some(a);
                        placement[a] = step_mode;
                    }
                    let (pa, pb) = (placement[a], placement[b]);
                    let duration = device.csum_duration(pa, pb).map_err(CompilerError::Cavity)?;
                    let error =
                        device.two_mode_error(pa, pb, duration).map_err(CompilerError::Cavity)?;
                    ops.push(PhysicalOp {
                        name: gate.name().to_string(),
                        modes: vec![pa, pb],
                        duration_us: duration,
                        error,
                        inserted_by_router: false,
                    });
                }
            }
            Instruction::Measure { targets } => {
                for &t in targets {
                    let mode = placement[t];
                    let error = device
                        .single_mode_error(mode, device.durations.readout_us)
                        .map_err(CompilerError::Cavity)?;
                    ops.push(PhysicalOp {
                        name: "readout".into(),
                        modes: vec![mode],
                        duration_us: device.durations.readout_us,
                        error,
                        inserted_by_router: false,
                    });
                }
            }
            Instruction::Reset { target } => {
                let mode = placement[*target];
                let error = device
                    .single_mode_error(mode, device.durations.readout_us)
                    .map_err(CompilerError::Cavity)?;
                ops.push(PhysicalOp {
                    name: "reset".into(),
                    modes: vec![mode],
                    duration_us: device.durations.readout_us,
                    error,
                    inserted_by_router: false,
                });
            }
            Instruction::Channel { .. } | Instruction::Barrier => {}
        }
    }
    Ok(RoutedCircuit { ops, final_placement: placement, swap_count })
}

/// Picks the mode to swap into when walking from `from` towards `towards`:
/// the best-coherence mode in the neighbouring module one step closer.
fn next_step_mode(device: &Device, from: usize, towards: usize) -> Result<usize> {
    let (mf, _) = device.module_of(from).map_err(CompilerError::Cavity)?;
    let (mt, _) = device.module_of(towards).map_err(CompilerError::Cavity)?;
    let next_module = if mt > mf { mf + 1 } else { mf - 1 };
    let mut best = None;
    let mut best_t1 = -1.0;
    for k in 0..device.modules[next_module].modes.len() {
        let global = device.global_index(next_module, k).map_err(CompilerError::Cavity)?;
        if global == towards {
            // Landing directly next to (or on the module of) the partner is fine,
            // but never displace the partner itself.
            continue;
        }
        let t1 = device.mode(global).map_err(CompilerError::Cavity)?.t1_us;
        if t1 > best_t1 {
            best_t1 = t1;
            best = Some(global);
        }
    }
    best.ok_or_else(|| {
        CompilerError::RoutingFailed(format!("no usable transit mode in module {next_module}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{map_circuit, MappingStrategy};
    use qudit_circuit::Gate;

    #[test]
    fn connected_gates_need_no_swaps() {
        let d = 4;
        let mut c = Circuit::uniform(2, d);
        c.push(Gate::csum(d, d), &[0, 1]).unwrap();
        c.measure_all();
        let dev = Device::testbed();
        let mapping = map_circuit(&c, &dev, MappingStrategy::RoundRobin).unwrap();
        let routed = route(&c, &dev, &mapping).unwrap();
        assert_eq!(routed.swap_count, 0);
        assert_eq!(routed.ops.iter().filter(|o| o.modes.len() >= 2).count(), 1);
        // CSUM + 2 readouts.
        assert_eq!(routed.ops.len(), 3);
        assert!(routed.estimated_fidelity() > 0.0);
    }

    #[test]
    fn distant_gates_get_swapped_into_reach() {
        let d = 10;
        let mut c = Circuit::uniform(2, d);
        c.push(Gate::csum(d, d), &[0, 1]).unwrap();
        let dev = Device::forecast();
        // Force a mapping with the two qudits at opposite ends of the chain.
        let mapping = Mapping {
            logical_to_physical: vec![0, 39],
            strategy: MappingStrategy::RoundRobin,
            estimated_fidelity: 1.0,
        };
        let routed = route(&c, &dev, &mapping).unwrap();
        assert!(routed.swap_count >= 7, "swap count {}", routed.swap_count);
        // Final placement must put them within reach.
        let a = routed.final_placement[0];
        let b = routed.final_placement[1];
        assert!(dev.are_connected(a, b).unwrap());
        // Fidelity suffers compared to an adjacent mapping.
        let near = Mapping {
            logical_to_physical: vec![0, 1],
            strategy: MappingStrategy::RoundRobin,
            estimated_fidelity: 1.0,
        };
        let routed_near = route(&c, &dev, &near).unwrap();
        assert!(routed_near.estimated_fidelity() > routed.estimated_fidelity());
        assert!(routed_near.total_duration_us() < routed.total_duration_us());
    }

    #[test]
    fn routing_preserves_logical_consistency() {
        // After routing, every logical qudit occupies a distinct mode.
        let d = 10;
        let mut c = Circuit::uniform(3, d);
        c.push(Gate::csum(d, d), &[0, 2]).unwrap();
        c.push(Gate::csum(d, d), &[1, 2]).unwrap();
        let dev = Device::forecast();
        let mapping = Mapping {
            logical_to_physical: vec![0, 20, 39],
            strategy: MappingStrategy::RoundRobin,
            estimated_fidelity: 1.0,
        };
        let routed = route(&c, &dev, &mapping).unwrap();
        let mut placement = routed.final_placement.clone();
        placement.sort_unstable();
        placement.dedup();
        assert_eq!(placement.len(), 3);
    }

    #[test]
    fn router_marks_inserted_swaps() {
        let d = 10;
        let mut c = Circuit::uniform(2, d);
        c.push(Gate::csum(d, d), &[0, 1]).unwrap();
        let dev = Device::forecast();
        let mapping = Mapping {
            logical_to_physical: vec![0, 12],
            strategy: MappingStrategy::RoundRobin,
            estimated_fidelity: 1.0,
        };
        let routed = route(&c, &dev, &mapping).unwrap();
        let inserted: usize = routed.ops.iter().filter(|o| o.inserted_by_router).count();
        assert_eq!(inserted, routed.swap_count);
        assert!(routed.swap_count > 0);
    }
}
