//! Order statistics over latency samples.

/// The median (mean of the two middle values for an even count);
/// `NaN` for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Fewest samples for which [`tail`] reports a percentile at or above
/// the median; below it the tail is the maximum.
pub const TAIL_MIN_SAMPLES: usize = 20;

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a latency distribution: the highest whole percentile
/// that still has at least [`TAIL_BEYOND`] samples beyond it, by the
/// nearest-rank rule. Returns `(percentile, value)`; with fewer than
/// [`TAIL_MIN_SAMPLES`] samples no percentile at or above the median
/// qualifies, and the maximum is returned as percentile 100.
pub fn tail(values: &[f64]) -> (u32, f64) {
    let sorted = sorted(values);
    let n = sorted.len();
    if n < TAIL_MIN_SAMPLES {
        return (100, sorted.last().copied().unwrap_or(f64::NAN));
    }
    // Nearest rank r = ceil(p·n/100) leaves n − r samples beyond it;
    // the largest whole p with r ≤ n − 10.
    let mut p = (100 * (n - TAIL_BEYOND) / n) as u32;
    while p > 0 && n - rank(p, n) < TAIL_BEYOND {
        p -= 1;
    }
    (p, sorted[rank(p, n) - 1])
}

fn rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// How decode latency grows with payload size: the p50 ratio between
/// the main and the probe size, divided by their row ratio. 1.0 is
/// linear growth; a quadratic stage pushes it toward the row ratio.
pub fn scale_ratio(main_p50: f64, probe_p50: f64, main_rows: usize, probe_rows: usize) -> f64 {
    (main_p50 / probe_p50) / (main_rows as f64 / probe_rows as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the functions must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        for n in [TAIL_MIN_SAMPLES, 21, 37, 100, 101, 250, 1000, 5000] {
            let values = ramp(n);
            let (p, v) = tail(&values);
            let beyond = values.iter().filter(|&&x| x > v).count();
            assert!(beyond >= TAIL_BEYOND, "n={n}: p{p} leaves {beyond} beyond");
            // One percentile higher would leave fewer than ten.
            if p < 100 {
                let next = rank(p + 1, n);
                assert!(n - next < TAIL_BEYOND || p + 1 > 99, "n={n}: p{} also qualifies", p + 1);
            }
            assert!(p >= 50, "n={n}: p{p} is below the median");
        }
    }

    #[test]
    fn tail_percentiles_at_round_counts() {
        assert_eq!(tail(&ramp(100)), (90, 90.0));
        assert_eq!(tail(&ramp(1000)), (99, 990.0));
        assert_eq!(tail(&ramp(20)), (50, 10.0));
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        assert_eq!(tail(&ramp(19)), (100, 19.0));
        assert_eq!(tail(&[5.0]), (100, 5.0));
        assert!(tail(&[]).1.is_nan());
    }

    #[test]
    fn scale_ratio_is_one_for_linear_growth() {
        assert!((scale_ratio(40.0, 10.0, 12_000, 3_000) - 1.0).abs() < 1e-12);
        // Quadratic growth over a 4x row ratio reads 4.
        assert!((scale_ratio(160.0, 10.0, 12_000, 3_000) - 4.0).abs() < 1e-12);
        // Fixed per-request cost dominating reads below 1.
        assert!(scale_ratio(11.0, 10.0, 12_000, 3_000) < 0.3);
    }
}
