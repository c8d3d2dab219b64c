//! Order statistics over timing samples.

/// The `q`-quantile (`0.0..=1.0`) of `samples`, linearly interpolated
/// between the two nearest ranks; `None` for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Median, or 0 for a layer the workload never ran.
pub fn median_or_zero(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(0.0)
}

/// Distance between the best and the worst of `values` as a share of
/// the smallest magnitude among them — how far repeated sets of one
/// metric disagree. 0 when all are equal (including all zero); infinite
/// when a value is missing (not finite).
pub fn rel_spread(values: &[f64]) -> f64 {
    if values.iter().any(|v| !v.is_finite()) {
        return f64::INFINITY;
    }
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    if values.is_empty() || max == min {
        return 0.0;
    }
    let base = values.iter().map(|v| v.abs()).fold(f64::INFINITY, f64::min);
    if base == 0.0 {
        f64::INFINITY
    } else {
        (max - min) / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_known_vectors() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 0.9), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(11.0));
        // Four samples: rank 0.9 × 3 = 2.7 → 30 + 0.7 × 10.
        let p = percentile(&[40.0, 10.0, 30.0, 20.0], 0.9).unwrap();
        assert!((p - 37.0).abs() < 1e-12, "{p}");
    }

    #[test]
    fn rel_spread_is_relative_to_the_smallest_value() {
        assert_eq!(rel_spread(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(rel_spread(&[0.0, 0.0]), 0.0);
        assert!((rel_spread(&[100.0, 110.0]) - 0.1).abs() < 1e-12);
        assert!(rel_spread(&[0.0, 1.0]).is_infinite());
        assert!(rel_spread(&[5.0, f64::NAN]).is_infinite());
    }
}
