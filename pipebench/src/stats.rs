//! Small order statistics over run samples.

/// The `p`-th percentile (0–100) of `values`, linearly interpolated between
/// the two nearest ranks; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn interpolates_between_ranks() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.5);
        assert!(
            (percentile(&(1..=11).map(f64::from).collect::<Vec<_>>(), 90.0) - 10.0).abs() < 1e-9
        );
    }
}
