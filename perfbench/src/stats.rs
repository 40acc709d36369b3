//! Summary statistics: medians, the per-type geometric-mean combination and
//! the tail-percentile rule.

use std::collections::BTreeMap;

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Geometric mean of positive values. Returns 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Combine samples grouped by query type: the median of each type, then the
/// geometric mean across types. A mix of fast and slow query types cannot
/// flip the result the way a pooled median can.
pub fn per_type_geomean(by_type: &BTreeMap<&'static str, Vec<f64>>) -> f64 {
    let medians: Vec<f64> = by_type
        .values()
        .filter(|v| !v.is_empty())
        .map(|v| median(v))
        .collect();
    geomean(&medians)
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency and how it was taken.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The combined tail value.
    pub value: f64,
    /// The percentile actually used.
    pub percentile: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// 1-based nearest rank of percentile `pct` among `n` samples, lowered when
/// fewer than [`TAIL_MIN_BEYOND`] samples would lie beyond it, but never
/// below the rank just above the median (with 20 samples or fewer no
/// percentile above the median has enough beyond it). Returns the rank and
/// the percentile it represents.
pub fn tail_rank(n: usize, pct: f64) -> (usize, f64) {
    if n == 0 {
        return (0, 0.0);
    }
    let rank = ((pct / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    if n - rank >= TAIL_MIN_BEYOND {
        return (rank, pct);
    }
    let rank = n.saturating_sub(TAIL_MIN_BEYOND).max((n / 2 + 1).min(n));
    (rank, 100.0 * rank as f64 / n as f64)
}

/// The value at percentile `pct` of `values`, lowered by [`tail_rank`]
/// until at least [`TAIL_MIN_BEYOND`] samples lie beyond it.
pub fn tail_of(values: &[f64], pct: f64) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (rank, percentile) = tail_rank(sorted.len(), pct);
    if rank == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    Tail {
        value: sorted[rank - 1],
        percentile,
        samples: sorted.len(),
        beyond: sorted.len() - rank,
    }
}

/// The tail of a per-type sample set, combined like [`per_type_geomean`]:
/// every sample is divided by its type's median, [`tail_of`] the pooled
/// ratios gives the percentile, and the ratio there scales the geometric
/// mean of the type medians.
pub fn tail(by_type: &BTreeMap<&'static str, Vec<f64>>, pct: f64) -> Tail {
    let mut ratios = Vec::new();
    for v in by_type.values() {
        let m = median(v);
        if m > 0.0 {
            ratios.extend(v.iter().map(|x| x / m));
        }
    }
    let t = tail_of(&ratios, pct);
    Tail {
        value: per_type_geomean(by_type) * t.value,
        ..t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn types(entries: &[(&'static str, Vec<f64>)]) -> BTreeMap<&'static str, Vec<f64>> {
        entries.iter().cloned().collect()
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_rank_keeps_ten_samples_beyond() {
        // 100 samples: p90 has exactly 10 beyond and is kept.
        assert_eq!(tail_rank(100, 90.0), (90, 90.0));
        // p95 would leave 5 beyond: lowered to rank 90 (p90).
        assert_eq!(tail_rank(100, 95.0), (90, 90.0));
        // 50 samples asked for p75: rank 38, 12 beyond, kept.
        assert_eq!(tail_rank(50, 75.0), (38, 75.0));
        // 40 samples asked for p75: rank 30 leaves exactly 10 beyond.
        assert_eq!(tail_rank(40, 75.0), (30, 75.0));
        // 39 samples: p75 would leave 9; lowered to rank 29.
        let (rank, pct) = tail_rank(39, 75.0);
        assert_eq!(rank, 29);
        assert!((pct - 100.0 * 29.0 / 39.0).abs() < 1e-12);
        // Too few samples for a percentile above the median with 10
        // beyond: the rank just above the median.
        assert_eq!(tail_rank(5, 99.0), (3, 60.0));
        assert_eq!(tail_rank(4, 99.0), (3, 75.0));
        assert_eq!(tail_rank(1, 99.0), (1, 100.0));
        assert_eq!(tail_rank(20, 99.0), (11, 55.0));
        assert_eq!(tail_rank(21, 99.0), (11, 100.0 * 11.0 / 21.0));
        assert_eq!(tail_rank(0, 99.0), (0, 0.0));
    }

    #[test]
    fn tail_reports_percentile_and_counts() {
        let fast: Vec<f64> = (0..60).map(|i| 10.0 + (i % 7) as f64 / 7.0).collect();
        let slow: Vec<f64> = (0..60).map(|i| 100.0 + (i % 5) as f64).collect();
        let by_type = types(&[("fast", fast), ("slow", slow)]);
        let t = tail(&by_type, 90.0);
        assert_eq!(t.samples, 120);
        assert_eq!(t.beyond, 12);
        assert_eq!(t.percentile, 90.0);
        let p50 = per_type_geomean(&by_type);
        assert!(t.value > p50 && t.value < 1.1 * p50, "{} vs {p50}", t.value);
        // Isolated slow queries of one type are the tail.
        let spiky: Vec<f64> = (0..100)
            .map(|i| if i % 5 == 0 { 30.0 } else { 10.0 })
            .collect();
        let t = tail(&types(&[("q", spiky)]), 90.0);
        assert!((t.value - 30.0).abs() < 1e-9, "{}", t.value);
    }

    #[test]
    fn geomean_combination_is_not_flipped_by_a_bimodal_mix() {
        // A pooled median of a 50/50 mix of 10 ms and 1000 ms queries jumps
        // between the two modes when one more slow query lands; the per-type
        // combination stays at the geometric mean of the two medians.
        let even = types(&[("fast", vec![10.0; 5]), ("slow", vec![1000.0; 5])]);
        let skewed = types(&[("fast", vec![10.0; 5]), ("slow", vec![1000.0; 6])]);
        assert!((per_type_geomean(&even) - 100.0).abs() < 1e-9);
        assert!((per_type_geomean(&skewed) - 100.0).abs() < 1e-9);
        let mut pooled: Vec<f64> = skewed.values().flatten().copied().collect();
        pooled.sort_by(f64::total_cmp);
        assert_eq!(median(&pooled), 1000.0);
    }

    #[test]
    fn geomean_of_equal_values_is_that_value() {
        assert!((geomean(&[7.0, 7.0, 7.0]) - 7.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
