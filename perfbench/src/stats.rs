//! Order statistics for the benchmark's reports.

/// Sorted copy of `values` (NaN-free input assumed; NaN sorts last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let n = 4usize;
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median (0 when undefined).
pub fn iqr_share(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// Nearest-rank percentile `p` (0–100); 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The percentiles a tail is reported at, highest first.
const TAILS: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 50.0];

/// The highest of [`TAILS`] that still has at least ten of `n` samples
/// beyond it; `None` when even the median has fewer.
pub fn highest_tail(n: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|p| (n as f64) * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
}

/// `"median 1.23 s, p90 1.40 s, iqr 3.1% of median (n=120)"`-style
/// summary of a timing.
pub fn describe(values: &[f64], unit: &str) -> String {
    let med = median(values);
    let tail = match highest_tail(values.len()) {
        Some(p) if p > 50.0 => format!(", p{p} {:.6} {unit}", percentile(values, p)),
        _ => ", too few samples for a tail".to_string(),
    };
    format!(
        "median {med:.6} {unit}{tail}, iqr {:.2}% of median (n={})",
        100.0 * iqr_share(values),
        values.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn highest_tail_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_tail(19), None);
        assert_eq!(highest_tail(20), Some(50.0));
        assert_eq!(highest_tail(99), Some(50.0));
        assert_eq!(highest_tail(100), Some(90.0));
        assert_eq!(highest_tail(200), Some(95.0));
        assert_eq!(highest_tail(999), Some(95.0));
        assert_eq!(highest_tail(1_000), Some(99.0));
        assert_eq!(highest_tail(10_000), Some(99.9));
        assert_eq!(highest_tail(100_000), Some(99.99));
    }
}
