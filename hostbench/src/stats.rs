//! Order statistics for host-time samples.
//!
//! Timings are reported as a median plus the highest percentile that
//! still has at least [`TAIL_MIN_BEYOND`] samples beyond it, so a tail
//! figure never rests on one or two outliers.

use std::time::Duration;

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Nearest-rank percentile `p` (0–100) of `samples`; `0.0` when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The median (nearest-rank p50); `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest candidate percentile with at least ten samples beyond
/// it, or `None` when there are too few samples for any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n >= 1 && n - rank(n, p) >= TAIL_MIN_BEYOND)
}

/// A timing's tail: the value at [`tail_percentile`] and its label
/// (`"p90"`), falling back to the maximum (`"max"`) when the sample is
/// too small for any percentile.
pub fn tail(samples: &[f64]) -> (f64, String) {
    match tail_percentile(samples.len()) {
        Some(p) => (percentile(samples, p), format!("p{p}")),
        None => (percentile(samples, 100.0), "max".to_string()),
    }
}

/// Median per-call time of `f` in microseconds over `calls` calls.
pub fn per_call_us(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let times: Vec<f64> = (0..calls)
        .map(|i| {
            let t = std::time::Instant::now();
            f(i);
            secs(t.elapsed()) * 1e6
        })
        .collect();
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_selector_picks_the_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(120), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn tail_of_120_samples_is_their_p90() {
        let xs: Vec<f64> = (1..=120).map(f64::from).collect();
        let (value, label) = tail(&xs);
        assert_eq!(label, "p90");
        assert_eq!(value, 108.0);
        assert!(xs.iter().filter(|&&x| x > value).count() >= TAIL_MIN_BEYOND);
    }

    #[test]
    fn small_samples_fall_back_to_the_maximum() {
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, "max".to_string()));
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
