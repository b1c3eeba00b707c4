//! Order statistics for small samples. The vendored criterion stub prints
//! a mean of ten iterations, so the benchmark computes its own.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty sample or one holding a NaN.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values)?;
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `p` in `(0, 100]`. Refuses (`None`) unless at
/// least ten samples lie beyond the returned rank: a p99 of 200 samples
/// is the second-largest value, which says nothing about the tail.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let sorted = sorted(values)?;
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> Option<f64> {
    let m = median(values)?;
    let deviations: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&deviations)
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses, so `aa` prints the spread
/// the driver computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values)?;
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based scale; the index is clamped to
        // the sample and the weight is not, so the ends extrapolate.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Jobs per second as the median rate of `groups` equal consecutive
/// groups of completions, so that one neighbour burst on the host moves
/// one group and not the figure. `ends_ns` are completion times measured
/// from the start of the phase; trailing completions that do not fill a
/// group are left out. `None` when there are fewer completions than
/// groups.
pub fn grouped_rate_median(ends_ns: &[u64], groups: usize) -> Option<f64> {
    let per_group = ends_ns.len().checked_div(groups)?;
    if per_group == 0 {
        return None;
    }
    let mut ends = ends_ns.to_vec();
    ends.sort_unstable();
    let mut rates = Vec::with_capacity(groups);
    let mut group_start = 0u64;
    for g in 0..groups {
        let group_end = ends[(g + 1) * per_group - 1];
        let span_ns = group_end.saturating_sub(group_start).max(1);
        rates.push(per_group as f64 * 1e9 / span_ns as f64);
        group_start = group_end;
    }
    median(&rates)
}

fn sorted(values: &[f64]) -> Option<Vec<f64>> {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after the check above"));
    Some(sorted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn percentile_refuses_without_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        // p91 of 100 leaves nine samples beyond its rank.
        assert_eq!(percentile(&hundred, 91.0), None);
        assert_eq!(percentile(&hundred, 99.0), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), Some(990.0));
        // A median needs ten samples above it too.
        assert_eq!(percentile(&hundred[..19], 50.0), None);
        assert_eq!(percentile(&hundred[..20], 50.0), Some(10.0));
    }

    #[test]
    fn mad_is_robust_to_one_outlier() {
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 1000.0]), Some(1.0));
        assert_eq!(mad(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&ten).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[10.0, 20.0, 30.0]), Some((10.0, 30.0)));
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn grouped_rate_ignores_one_slow_group() {
        // 16 jobs, one per second, except that the third group stalls
        // for 100 s: the mean rate collapses, the group median does not.
        let mut ends = Vec::new();
        let mut t = 0u64;
        for job in 0..16u64 {
            t += if job == 5 {
                100_000_000_000
            } else {
                1_000_000_000
            };
            ends.push(t);
        }
        let rate = grouped_rate_median(&ends, 8).unwrap();
        assert!((rate - 1.0).abs() < 1e-9, "rate {rate}");
        assert_eq!(grouped_rate_median(&ends[..7], 8), None);
    }
}
