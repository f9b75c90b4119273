//! Application benchmark for the qudit-cavity workspace.
//!
//! Four workloads drive the paper's application families through their
//! public entry points — NDAR graph coloring (`qopt`), sQED real-time
//! dynamics (`lgt` on the three `qudit-circuit` back-ends), reservoir
//! forecasting (`qrc` on `cavity-sim` and the density pipeline) and bursty
//! serving (`qudit-serve`). Every output is checked against an independent
//! reference. Timed runs are untraced; a traced run replays each entry point
//! through the public calls it is made of, records spans around them and
//! reports per-layer busy time, call counts and exact plan counters.
//!
//! The binary (`src/main.rs`) is the command-line front end; the modules
//! here are also driven directly by the self-tests under `tests/`.

#![forbid(unsafe_code)]

pub mod calib;
pub mod harness;
pub mod ndar;
pub mod plans;
pub mod qrc_forecast;
pub mod report;
pub mod serve_bursts;
pub mod sqed;
pub mod trace;

/// Error type of the benchmark: every crate error converts into it.
pub type BoxError = Box<dyn std::error::Error>;

/// Result alias used throughout the benchmark.
pub type Res<T> = Result<T, BoxError>;

/// Problem sizes: `Full` is what the benchmark measures. `Tiny` is a
/// sub-second variant that the self-tests run and every set-up solves once
/// as its warm-up. Building the inputs alone takes microseconds, and timings
/// that short moved by a quarter between identical sets of runs on a shared
/// VM; with the warm-up, set-up time moves with the solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports.
    Full,
    /// Small sizes that exercise the same code paths quickly.
    Tiny,
}

/// Seed of the tiny warm-up solve every set-up runs: fixed, so set-up time
/// does not depend on `--seed`.
pub const WARM_UP_SEED: u64 = 0;

/// Derives the `k`-th sub-seed of a run seed (splitmix64 finaliser), so
/// every generated input is a pure function of `--seed`.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[lo, hi)` from a sub-seed.
pub fn uniform(seed: u64, k: u64, lo: f64, hi: f64) -> f64 {
    let unit = (sub_seed(seed, k) >> 11) as f64 / (1u64 << 53) as f64;
    lo + (hi - lo) * unit
}
