//! A wall-clock micro-benchmark timer.
//!
//! The in-tree replacement for criterion: the `cargo bench` targets of
//! `redsim-bench` are plain binaries that call [`fn@bench`] per case and
//! print one aligned line each. No statistics beyond min/mean/max are
//! attempted: these lines are for reading, and no gate compares them.
//! Performance changes are judged over repeated parent/change pairs by
//! the `benchmark/` package's `compare`.

use std::time::{Duration, Instant};

/// Timing summary of one benchmark case.
#[derive(Debug, Clone, Copy)]
pub struct BenchResult {
    /// Iterations timed (after warmup).
    pub iters: u32,
    /// Fastest iteration.
    pub min: Duration,
    /// Mean iteration.
    pub mean: Duration,
    /// Slowest iteration.
    pub max: Duration,
}

impl BenchResult {
    /// Throughput in elements per second, given the per-iteration
    /// element count (0.0 when the mean rounds to zero time).
    #[must_use]
    pub fn throughput(&self, elements_per_iter: u64) -> f64 {
        let s = self.mean.as_secs_f64();
        if s > 0.0 {
            elements_per_iter as f64 / s
        } else {
            0.0
        }
    }

    /// One aligned report line: `name  min  mean  max [ throughput]`.
    #[must_use]
    pub fn report(&self, name: &str, elements_per_iter: Option<u64>) -> String {
        let mut line = format!(
            "{name:<40} min {:>12}  mean {:>12}  max {:>12}",
            fmt_duration(self.min),
            fmt_duration(self.mean),
            fmt_duration(self.max),
        );
        if let Some(n) = elements_per_iter {
            line.push_str(&format!("  {:>10.2} Melem/s", self.throughput(n) / 1e6));
        }
        line
    }
}

/// Formats a duration with an adaptive unit (ns / µs / ms / s).
#[must_use]
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// Times `f`: `warmup` untimed iterations, then `iters` timed ones.
///
/// The closure's return value is passed through [`std::hint::black_box`]
/// so the optimizer cannot delete the measured work.
///
/// # Panics
///
/// Panics if `iters` is zero.
pub fn bench<T>(warmup: u32, iters: u32, mut f: impl FnMut() -> T) -> BenchResult {
    assert!(iters > 0, "bench needs at least one timed iteration");
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let mut min = Duration::MAX;
    let mut max = Duration::ZERO;
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        let t0 = Instant::now();
        std::hint::black_box(f());
        let dt = t0.elapsed();
        min = min.min(dt);
        max = max.max(dt);
        total += dt;
    }
    BenchResult {
        iters,
        min,
        mean: total / iters,
        max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_counts_iterations_and_orders_min_mean_max() {
        let mut calls = 0u32;
        let r = bench(2, 5, || {
            calls += 1;
            std::thread::sleep(Duration::from_micros(50));
            calls
        });
        assert_eq!(calls, 7, "warmup + timed iterations");
        assert_eq!(r.iters, 5);
        assert!(r.min <= r.mean && r.mean <= r.max);
        assert!(r.min >= Duration::from_micros(50));
    }

    #[test]
    fn throughput_scales_with_elements() {
        let r = BenchResult {
            iters: 1,
            min: Duration::from_millis(10),
            mean: Duration::from_millis(10),
            max: Duration::from_millis(10),
        };
        let t = r.throughput(1_000_000);
        assert!((t - 1e8).abs() / 1e8 < 1e-9);
    }

    #[test]
    fn durations_format_with_adaptive_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000 s");
    }

    #[test]
    fn report_lines_are_stable_shape() {
        let r = bench(0, 1, || 1 + 1);
        let line = r.report("case", Some(100));
        assert!(line.starts_with("case"));
        assert!(line.contains("Melem/s"));
    }
}
