//! Estimators: percentiles over pooled samples, medians over segments.

/// The `p`-th percentile (0..=100) of `sorted`, by linear interpolation
/// between closest ranks; `0.0` for an empty slice.
#[must_use]
pub fn bm_percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Sorts a copy of `values` ascending (NaN-free input).
#[must_use]
pub fn bm_sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nanosecond samples as sorted microseconds.
#[must_use]
pub fn bm_sorted_us(ns: &[u64]) -> Vec<f64> {
    let us: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    bm_sorted(&us)
}

/// `(p25, p50, p75)` of `values`.
#[must_use]
pub fn bm_quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = bm_sorted(values);
    (
        bm_percentile(&s, 25.0),
        bm_percentile(&s, 50.0),
        bm_percentile(&s, 75.0),
    )
}

/// The median of `values`.
#[must_use]
pub fn bm_median(values: &[f64]) -> f64 {
    bm_quartiles(values).1
}

/// `num / den`, or `0.0` when the denominator is zero.
#[must_use]
pub fn bm_ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(bm_percentile(&s, 0.0), 1.0);
        assert_eq!(bm_percentile(&s, 50.0), 3.0);
        assert_eq!(bm_percentile(&s, 100.0), 5.0);
        assert_eq!(bm_percentile(&s, 25.0), 2.0);
        assert_eq!(bm_percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(bm_percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_of_unsorted_input() {
        assert_eq!(bm_quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), (2.0, 3.0, 4.0));
        assert_eq!(bm_median(&[9.0]), 9.0);
        assert_eq!(bm_ratio(1.0, 0.0), 0.0);
    }
}
