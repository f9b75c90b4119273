//! Static analysis for the qudit-cavity workspace.
//!
//! Three independent layers, none of which execute a circuit:
//!
//! * [`verify`] — **translation validation**: prove a compiled statevector or
//!   density plan faithful to its source [`qudit_circuit::Circuit`] by
//!   re-deriving every step through an independent code path. Run it after
//!   compilation in debug builds, in property suites, and on plan-cache
//!   inserts.
//! * [`lint`] — a **circuit linter**: structural diagnostics over the IR
//!   (unbound parameters, dead wires, gates after measurement, near-tolerance
//!   channels, fusion hotspots) for authors of circuits, before they compile
//!   or run anything.
//! * [`hygiene`] — a **repo auditor** behind the `repo_lint` binary: a
//!   zero-dependency lexer that enforces the workspace's source-level
//!   invariants (`SAFETY:` comments, `unsafe_code` lint gates, hot-path
//!   panic bans, no test-only public functions, shims-only dependencies,
//!   benchmark schema).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hygiene;
pub mod lint;
pub mod verify;

pub use lint::{lint_circuit, Diagnostic, LintCode, Severity};
pub use verify::{
    expected_guard_checks, verify_density, verify_density_bound, verify_ensemble_health,
    verify_run_health, verify_statevector, verify_statevector_bound, Check, VerifyConfig,
    VerifyError, VerifyReport,
};
