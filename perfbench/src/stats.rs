//! Order statistics over measured samples.

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs` (any order).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: the `(TAIL_BEYOND + 1)`-th largest sample, with the percentile it
/// sits at. `None` with too few samples to have such a percentile.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = v.len() - 1 - TAIL_BEYOND;
    let pct = 100.0 * (1.0 - TAIL_BEYOND as f64 / v.len() as f64);
    Some((v[idx], pct))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail(&xs).unwrap();
        assert_eq!(value, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > value).count(), TAIL_BEYOND);
        assert_eq!(pct, 90.0);
    }
}
