//! Percentiles under the benchmark's sample rule.

/// The `q` quantile of `values` (linear interpolation between closest
/// ranks), or an error when fewer than ten samples lie beyond it.
pub fn percentile(values: &[f64], q: f64) -> Result<f64, String> {
    // The epsilon keeps 100 × (1 − 0.9) from flooring to 9.
    let beyond = (values.len() as f64 * (1.0 - q) + 1e-9).floor() as usize;
    if beyond < 10 {
        return Err(format!(
            "p{} of {} samples has only {beyond} beyond it (need 10)",
            q * 100.0,
            values.len()
        ));
    }
    Ok(quantile(values, q))
}

/// The `q` quantile of a non-empty slice, with no sample-count rule (for
/// medians of a run's repeated set-ups and for per-layer readings).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_beyond() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(percentile(&v, 0.9).is_ok());
        assert!(percentile(&v[..99], 0.9).is_err());
        assert!(percentile(&v[..19], 0.5).is_err());
        assert_eq!(quantile(&v, 0.5), 49.5);
    }
}
