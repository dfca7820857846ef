//! Order statistics, spread, and process memory.

/// Percentiles the benchmark may report as a tail, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// The highest tail percentile that leaves at least ten of `samples`
/// beyond it, or `None` when even the 75th would not. Each workload
/// fixes its tail from the sample count it always reaches, so the
/// reported percentile never changes with run speed.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|p| samples as f64 * (100.0 - p) / 100.0 >= 10.0)
}

/// Linear-interpolated percentile of unsorted values (`p` in 0..=100).
///
/// # Panics
///
/// Panics on an empty slice or a non-finite value.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = (sorted.len() - 1) as f64 * p / 100.0;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, which is how run-to-run spread
/// is judged. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = sorted.len();
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no samples");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The median of each group's values, then the geometric mean across
/// groups. `samples` are `(group, value)` pairs.
pub fn geomean_of_medians(samples: &[(usize, f64)]) -> f64 {
    let mut groups: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for &(group, value) in samples {
        groups.entry(group).or_default().push(value);
    }
    let medians: Vec<f64> = groups.values().map(|v| median(v)).collect();
    geomean(&medians)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(2400), Some(99.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(112), Some(90.0));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(3), None);
        for n in [40, 100, 199, 200, 1000, 5000] {
            let p = highest_supported_percentile(n).unwrap();
            assert!(n as f64 * (100.0 - p) / 100.0 >= 10.0, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        // Group 0's median is 2, group 1's is 8.
        let samples = [(0, 1.0), (1, 8.0), (0, 2.0), (0, 100.0), (1, 8.0)];
        assert!((geomean_of_medians(&samples) - 4.0).abs() < 1e-12);
    }
}
