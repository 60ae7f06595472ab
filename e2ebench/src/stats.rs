//! Order statistics and span self-time arithmetic used to report the
//! benchmark's figures.

/// The value at quantile `q` (0..=1) of `sorted` by linear interpolation
/// between closest ranks. `sorted` must be non-empty and ascending.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (non-empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// First and third quartile of `values`, computed exactly like
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method, which extrapolates past the data for tiny
/// samples), since that is how the run-to-run spread is judged. Needs
/// two or more values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let s = sorted(values);
    let ld = s.len() as i64;
    let m = ld + 1;
    let at = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The highest percentile from `ladder` (descending, e.g.
/// `[99, 90, 50]`) that has at least ten of `n` samples beyond it, or
/// `None` when even the lowest rung does not. Integer arithmetic, so
/// exactly 1,000 samples qualify for p99.
pub fn tail_percentile(n: usize, ladder: &[u32]) -> Option<u32> {
    ladder
        .iter()
        .copied()
        .find(|&p| n * (100 - p as usize) >= 1_000)
}

/// Total length of the union of `intervals` (half-open `[start, end)`)
/// after clipping each to `[lo, hi)`.
pub fn covered(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// A span's self time: its duration minus the part of it that its
/// direct children cover (overlapping children are counted once) and
/// minus `folded_ns`, time of fine-grained child calls that were summed
/// instead of recorded one by one (those never overlap each other or
/// the recorded children). Saturates at zero.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)], folded_ns: u64) -> u64 {
    (end - start)
        .saturating_sub(covered(start, end, children))
        .saturating_sub(folded_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]:
        // the exclusive method extrapolates past tiny samples.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
        assert_eq!(quantile(&v, 0.875), 45.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let ladder = [99, 90, 50];
        assert_eq!(tail_percentile(1_000, &ladder), Some(99));
        assert_eq!(tail_percentile(999, &ladder), Some(90));
        assert_eq!(tail_percentile(100, &ladder), Some(90));
        assert_eq!(tail_percentile(99, &ladder), Some(50));
        assert_eq!(tail_percentile(20, &ladder), Some(50));
        assert_eq!(tail_percentile(19, &ladder), None);
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // Parent [0, 100) with children [10, 30) and [50, 60); the
        // grandchild [12, 20) lies inside its parent and is not a
        // direct child, so it is not passed here.
        assert_eq!(self_time(0, 100, &[(10, 30), (50, 60)], 0), 70);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two children on different threads overlap on [20, 30).
        assert_eq!(self_time(0, 100, &[(10, 30), (20, 40)], 0), 70);
        // A child contained in another adds nothing.
        assert_eq!(self_time(0, 100, &[(10, 50), (20, 30)], 0), 60);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time(10, 50, &[(0, 20), (40, 90)], 0), 20);
        assert_eq!(self_time(10, 50, &[(60, 90)], 0), 40);
    }

    #[test]
    fn self_time_subtracts_folded_calls_and_saturates() {
        assert_eq!(self_time(0, 100, &[(0, 50)], 20), 30);
        assert_eq!(self_time(0, 100, &[(0, 90)], 20), 0);
    }
}
