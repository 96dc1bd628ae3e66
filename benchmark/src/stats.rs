//! Summary statistics under the reporting rules of the benchmark: a
//! timing is a median plus the highest percentile with at least ten
//! samples beyond it, quartiles follow Python's
//! `statistics.quantiles(n=4)`, and open-loop arrivals follow a seeded
//! Poisson schedule.

use std::time::Duration;

use redsim_util::Rng;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count), as Python's
/// `statistics.median`.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile by Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
/// A single sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let d = sorted(xs);
    let ld = d.len();
    if ld == 1 {
        return [d[0]; 3];
    }
    let (n, m) = (4, ld + 1);
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        *slot = (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64;
    }
    out
}

/// The nearest-rank `p`-th percentile, or `None` when fewer than
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it (so p90 needs at least
/// 100 samples and p50 at least 20).
#[must_use]
pub fn percentile(xs: &[f64], p: u32) -> Option<f64> {
    let n = xs.len();
    let rank = (p as usize * n).div_ceil(100).max(1);
    if n == 0 || n - rank.min(n) < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(sorted(xs)[rank - 1])
}

/// Send offsets of an open-loop Poisson arrival process at `rate_hz`
/// on average: an endless sequence with exponentially distributed gaps
/// drawn from a generator seeded with `seed`.
pub fn poisson_schedule(seed: u64, rate_hz: f64) -> impl Iterator<Item = Duration> {
    let mut rng = Rng::new(seed);
    let mut at = 0.0f64;
    std::iter::from_fn(move || {
        // 1 - U lies in (0, 1], so the logarithm is finite.
        at += -(1.0 - rng.unit_f64()).ln() / rate_hz;
        Some(Duration::from_secs_f64(at))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(median(&ten), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn p90_is_refused_with_fewer_than_100_samples() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90), None, "only 9 samples beyond p90");
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90), Some(90.0));
        assert_eq!(percentile(&xs, 50), Some(50.0));
        assert_eq!(percentile(&xs[..19], 50), None, "p50 needs 20 samples");
        assert_eq!(percentile(&xs[..20], 50), Some(10.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn poisson_schedule_is_seeded_increasing_and_at_rate() {
        let take = |seed, n| poisson_schedule(seed, 30.0).take(n).collect::<Vec<_>>();
        let a = take(7, 20_000);
        assert_eq!(a, take(7, 20_000), "same seed, same schedule");
        assert_ne!(a[..10], take(8, 10)[..]);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let rate = a.len() as f64 / a.last().unwrap().as_secs_f64();
        assert!((rate - 30.0).abs() < 1.0, "mean rate {rate}");
        // Exponential gaps: about 1 - 1/e of them are shorter than the mean.
        let short = a
            .windows(2)
            .filter(|w| (w[1] - w[0]).as_secs_f64() < 1.0 / 30.0)
            .count() as f64
            / (a.len() - 1) as f64;
        assert!((short - (1.0 - (-1.0f64).exp())).abs() < 0.02, "{short}");
    }
}
