//! Order statistics and the regression verdict.

/// Sort a copy of `xs` ascending (NaN-free input).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// On an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so a
/// spread computed here matches one computed from the printed values.
/// Fewer than two values give that value for both.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The nearest-rank percentile: the smallest value with at least `p`
/// percent of the values at or below it.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Interquartile range as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs).abs()
}

/// How set `b` compares with set `a` on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is better by more than `a`'s own spread, within the bound.
    Better,
    /// `b` is worse by more than the bound.
    Worse,
    /// Neither.
    Unchanged,
    /// A set's own spread is wider than the bound, so the delta means
    /// nothing (unless every value of `b` beats every value of `a`).
    Unresolved,
}

/// The verdict on per-round values `a` (before) and `b` (after) of a
/// metric with regression `bound` (a share of `a`'s median).
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    // Positive `gain` means `b` is better.
    let gain = if higher_is_better {
        (mb - ma) / ma
    } else {
        (ma - mb) / ma
    };
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let all_b_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if spread(a).max(spread(b)) > bound {
        return if all_b_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if -gain > bound {
        Verdict::Worse
    } else if gain > spread(a) {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[4.0, 1.0, 3.0], 90.0), 4.0);
        assert_eq!(percentile(&[4.0], 0.0), 4.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn verdicts_against_the_bound() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower is better; 20 % slower with a 10 % bound is a regression.
        let slow: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &slow, false, 0.10), Verdict::Worse);
        // 5 % slower stays within the bound.
        let bit_slow: Vec<f64> = a.iter().map(|x| x * 1.05).collect();
        assert_eq!(verdict(&a, &bit_slow, false, 0.10), Verdict::Unchanged);
        // 5 % faster is more than a's ~1 % spread: a gain.
        let fast: Vec<f64> = a.iter().map(|x| x * 0.95).collect();
        assert_eq!(verdict(&a, &fast, false, 0.10), Verdict::Better);
        // The same numbers read as a throughput flip the direction.
        assert_eq!(verdict(&a, &fast, true, 0.10), Verdict::Unchanged);
        assert_eq!(verdict(&a, &slow, true, 0.10), Verdict::Better);
        assert_eq!(verdict(&a, &a, false, 0.10), Verdict::Unchanged);
    }

    #[test]
    fn wide_sets_are_unresolved_unless_separated() {
        let a = [100.0, 140.0, 80.0, 120.0, 60.0];
        let b = [101.0, 139.0, 81.0, 119.0, 61.0];
        assert_eq!(verdict(&a, &b, false, 0.10), Verdict::Unresolved);
        // Every b below every a: better despite the spread.
        let b = [10.0, 14.0, 8.0, 12.0, 6.0];
        assert_eq!(verdict(&a, &b, false, 0.10), Verdict::Better);
    }
}
