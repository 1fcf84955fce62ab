//! Order statistics and means over timing samples.

/// How many samples must lie beyond a percentile before it is reported
/// (choosing-metrics §1: "the highest percentile that has at least ten
/// samples beyond it").
pub const MIN_BEYOND: usize = 10;

/// Sort a copy of `samples` ascending (NaNs are a harness bug).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in timing samples"));
    v
}

/// Median with linear interpolation between the two middle samples.
/// `None` on an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` in `(0, 1)`, reported only when at least
/// [`MIN_BEYOND`] samples lie strictly beyond its rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let v = sorted(samples);
    if v.is_empty() {
        return None;
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v.len() - rank >= MIN_BEYOND).then(|| v[rank - 1])
}

/// Geometric mean of strictly positive values. `None` when empty or when a
/// value is not positive (a zero-time row is a harness bug, not a datum).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Inter-quartile range as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) — the
/// spread figure the acceptance driver computes over ten runs.
pub fn iqr_share(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let quantile = |k: usize| {
        // Exclusive method: position k(n+1)/4 on a 1-based axis.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = median(&v)?;
    (med != 0.0).then(|| (quantile(3) - quantile(1)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p95_is_absent_without_ten_samples_beyond_it() {
        let few: Vec<f64> = (1..=199).map(f64::from).collect();
        // rank = ceil(0.95 * 199) = 190, 9 samples beyond.
        assert_eq!(percentile(&few, 0.95), None);
        let enough: Vec<f64> = (1..=200).map(f64::from).collect();
        // rank 190, 10 samples beyond.
        assert_eq!(percentile(&enough, 0.95), Some(190.0));
        assert_eq!(percentile(&enough, 0.50), Some(100.0));
        assert_eq!(percentile(&[], 0.95), None);
    }

    #[test]
    fn geomean_is_scale_fair() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        // One heavy row moves the arithmetic mean, barely the geomean.
        let g = geomean(&[1.0, 1.0, 1.0, 1000.0]).unwrap();
        assert!(g < 6.0);
    }

    #[test]
    fn iqr_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_share(&v).unwrap();
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[1.0]), None);
    }
}
