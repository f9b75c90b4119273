//! A fixed calibration kernel that measures how fast the host runs at the
//! moment, so timings can be reported at a reference host speed.
//!
//! On a shared VM the same work can take twice as long from one second to
//! the next, and the host's level moves by a third over tens of minutes.
//! Every end-to-end time is therefore divided by the time of calibration
//! units run right next to it and scaled to [`REFERENCE_S`]. The kernel is
//! the benchmark's own code (plain `f64` arithmetic, no workspace crate), so
//! a change to the program moves the workload times and not the kernel.

use std::time::Instant;

/// Dimension of the calibration matrix.
const DIM: usize = 243;
/// Normalised matrix-vector products per unit.
const PRODUCTS: usize = 75;

/// Time of one calibration unit on the reference host: about the fastest
/// unit measured on a 2-vCPU Xeon KVM guest (9.5 ms; its median there was
/// 10–17 ms). A rescaled time reads as the time the work would take on that
/// guest at its fastest.
pub const REFERENCE_S: f64 = 0.0095;

/// The calibration kernel: complex matrix-vector products on fixed data.
#[derive(Debug, Clone)]
pub struct Calibrator {
    matrix: Vec<(f64, f64)>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// Builds the fixed matrix.
    pub fn new() -> Self {
        let matrix = (0..DIM * DIM)
            .map(|i| (((i * 7919) % 101) as f64 * 1e-2, ((i * 104_729) % 97) as f64 * 1e-2))
            .collect();
        Self { matrix }
    }

    /// Runs one unit and returns its wall time in seconds.
    pub fn unit(&self) -> f64 {
        let start = Instant::now();
        let mut v = vec![(1.0 / (DIM as f64).sqrt(), 0.0); DIM];
        for _ in 0..PRODUCTS {
            let w: Vec<(f64, f64)> = self
                .matrix
                .chunks_exact(DIM)
                .map(|row| {
                    row.iter().zip(&v).fold((0.0, 0.0), |(re, im), (&(a, b), &(x, y))| {
                        (re + a * x - b * y, im + a * y + b * x)
                    })
                })
                .collect();
            let norm = w.iter().map(|(re, im)| re * re + im * im).sum::<f64>().sqrt();
            v = w.into_iter().map(|(re, im)| (re / norm, im / norm)).collect();
        }
        std::hint::black_box(&v);
        start.elapsed().as_secs_f64()
    }

    /// Runs `f` between two calibration units and returns its result with
    /// its wall time rescaled to the reference host.
    pub fn timed<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.unit();
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed().as_secs_f64();
        let after = self.unit();
        (out, rescale(elapsed, 0.5 * (before + after)))
    }
}

/// A wall time rescaled to the reference host, given the calibration time
/// measured around it.
pub fn rescale(elapsed: f64, calibration: f64) -> f64 {
    elapsed * REFERENCE_S / calibration
}
