//! Order statistics for timings: medians, tail percentiles that refuse to
//! answer from too few samples, and the quartiles `compare` uses.

/// A tail percentile must have at least this many samples beyond it;
/// with fewer, its value is one or two outliers, not a percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count), or
/// `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The nearest-rank `q` percentile (`0.5 < q < 1`), or an error when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn tail_percentile(xs: &[f64], q: f64) -> Result<f64, String> {
    assert!(
        q > 0.5 && q < 1.0,
        "tail percentile wants 0.5 < q < 1, got {q}"
    );
    let n = xs.len();
    let rank = (q * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if rank == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{:.0} of {n} samples has {beyond} beyond it, needs {MIN_BEYOND}",
            q * 100.0
        ));
    }
    Ok(sorted(xs)[rank - 1])
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method)
/// computes them, so spreads here match the ones the calibration
/// procedure states. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile range as a share of the median, the spread measure the
/// benchmark's bounds are checked against.
pub fn relative_iqr(xs: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(xs)?;
    let med = median(xs)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_refuses_too_few_samples_beyond() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(
            tail_percentile(&xs, 0.9).is_err(),
            "99 samples leave 9 beyond p90"
        );
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.9), Ok(90.0));
        assert!(tail_percentile(&xs, 0.99).is_err());
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.99), Ok(990.0));
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(relative_iqr(&xs), Some(5.5 / 5.5));
    }
}
