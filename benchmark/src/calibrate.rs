//! Machine-speed calibration.
//!
//! The machines this benchmark runs on are shared, and their speed
//! drifts: the same run repeated a minute later can read 20–25% slower
//! or faster, far more than the regressions the bounds must catch. Each
//! run therefore times a fixed reference kernel — small complex matrix
//! products, the same kind of arithmetic the contraction kernels do,
//! written here so no change to the library can alter it — before each
//! set-up and every [`INTERVAL`] of its measured windows, at a point
//! where no request is in flight, and leaves that time out of what it
//! measures. Timings are
//! reported at reference speed: multiplied by [`REFERENCE_S`] over the
//! kernel's median time in the run. The raw wall-clock figures are
//! printed beside them.

use crate::stats::Samples;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median kernel time on the machine the benchmark was tuned on (a
/// shared virtual machine with 2 vCPUs). Adjusted timings are in
/// seconds of that machine.
pub const REFERENCE_S: f64 = 0.02;
/// Time between kernel runs inside a measured window.
pub const INTERVAL: Duration = Duration::from_millis(500);
/// Products per kernel run (about 20 ms on the reference machine).
const PRODUCTS: usize = 20_000;
const DIM: usize = 8;

/// One kernel run: a chain of `DIM × DIM` complex matrix products,
/// renormalised each step. Returns its wall-clock seconds.
fn kernel() -> f64 {
    let b: Vec<(f64, f64)> = (0..DIM * DIM)
        .map(|i| ((i as f64).sin() * 0.3, (i as f64).cos() * 0.3))
        .collect();
    let mut a = vec![(0.5f64, 0.25f64); DIM * DIM];
    let start = Instant::now();
    for _ in 0..PRODUCTS {
        let mut c = vec![(0.0f64, 0.0f64); DIM * DIM];
        for i in 0..DIM {
            for k in 0..DIM {
                let x = a[i * DIM + k];
                for j in 0..DIM {
                    let y = b[k * DIM + j];
                    let z = &mut c[i * DIM + j];
                    z.0 += x.0 * y.0 - x.1 * y.1;
                    z.1 += x.0 * y.1 + x.1 * y.0;
                }
            }
        }
        let norm: f64 = c.iter().map(|z| z.0.abs() + z.1.abs()).sum();
        for z in &mut c {
            z.0 /= norm;
            z.1 /= norm;
        }
        a = black_box(c);
    }
    start.elapsed().as_secs_f64()
}

/// Kernel times of one run, taken between its set-ups and inside its
/// measured windows.
#[derive(Default)]
pub struct Calibration {
    samples: Samples,
    last: Option<Instant>,
}

impl Calibration {
    /// Whether a kernel run is due: none yet, or [`INTERVAL`] since the
    /// last one ended.
    pub fn due(&self) -> bool {
        self.last.is_none_or(|t| t.elapsed() >= INTERVAL)
    }

    /// Runs and records the kernel once; returns the time it took, which
    /// the caller leaves out of its window.
    pub fn sample(&mut self) -> Duration {
        let start = Instant::now();
        self.samples.push(kernel());
        self.last = Some(Instant::now());
        start.elapsed()
    }

    /// `REFERENCE_S / median kernel time`: above 1 when this machine ran
    /// faster than the reference during the run. Multiply a time by it
    /// (divide a rate) to express it at reference speed.
    pub fn speed(&mut self) -> f64 {
        let median = self.samples.median().expect("sampled before use");
        REFERENCE_S / median
    }

    /// The median kernel time, for the report.
    pub fn median_s(&mut self) -> f64 {
        self.samples.median().expect("sampled before use")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_reference_over_median() {
        let mut c = Calibration::default();
        for t in [0.01, 0.04, 0.02] {
            c.samples.push(t);
        }
        assert_eq!(c.median_s(), 0.02);
        assert_eq!(c.speed(), 1.0);
        c.samples.push(0.05);
        c.samples.push(0.05);
        assert_eq!(c.speed(), 0.5);
    }

    #[test]
    fn kernel_takes_measurable_time() {
        assert!(kernel() > 0.0);
    }
}
