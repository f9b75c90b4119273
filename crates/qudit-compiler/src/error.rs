//! Error types for the compilation stack.

use std::fmt;

/// Result alias used throughout `qudit-compiler`.
pub type Result<T> = std::result::Result<T, CompilerError>;

/// Errors produced during synthesis, mapping and routing.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CompilerError {
    /// The synthesis target was invalid (wrong shape, not unitary, ...).
    InvalidTarget(String),
    /// The circuit cannot be mapped onto the device (too many qudits,
    /// incompatible dimensions, ...).
    MappingFailed(String),
    /// Routing could not connect two qudits on the device topology.
    RoutingFailed(String),
    /// An error bubbled up from the numerics substrate.
    Core(qudit_core::CoreError),
    /// An error bubbled up from the circuit layer.
    Circuit(qudit_circuit::CircuitError),
    /// An error bubbled up from the device model.
    Cavity(cavity_sim::CavityError),
}

impl fmt::Display for CompilerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompilerError::InvalidTarget(msg) => write!(f, "invalid synthesis target: {msg}"),
            CompilerError::MappingFailed(msg) => write!(f, "mapping failed: {msg}"),
            CompilerError::RoutingFailed(msg) => write!(f, "routing failed: {msg}"),
            CompilerError::Core(e) => write!(f, "core error: {e}"),
            CompilerError::Circuit(e) => write!(f, "circuit error: {e}"),
            CompilerError::Cavity(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for CompilerError {}

impl From<qudit_core::CoreError> for CompilerError {
    fn from(e: qudit_core::CoreError) -> Self {
        CompilerError::Core(e)
    }
}

impl From<qudit_circuit::CircuitError> for CompilerError {
    fn from(e: qudit_circuit::CircuitError) -> Self {
        CompilerError::Circuit(e)
    }
}

impl From<cavity_sim::CavityError> for CompilerError {
    fn from(e: cavity_sim::CavityError) -> Self {
        CompilerError::Cavity(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = CompilerError::InvalidTarget("not square".into());
        assert!(e.to_string().contains("not square"));
        let e: CompilerError = qudit_core::CoreError::InvalidDimension(1).into();
        assert!(e.to_string().contains("core error"));
    }
}
