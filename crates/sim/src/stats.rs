//! Sample statistics: means, confidence intervals, geometric means.

/// Summary statistics of repeated measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Raw samples.
    pub samples: Vec<f64>,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub stddev: f64,
    /// Half-width of the 95% confidence interval (t-distribution).
    pub ci95: f64,
}

impl Summary {
    /// Summarizes `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "no samples");
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = if samples.len() > 1 {
            samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        let stddev = var.sqrt();
        let ci95 = t_crit(samples.len() - 1) * stddev / n.sqrt();
        Self {
            samples: samples.to_vec(),
            mean,
            stddev,
            ci95,
        }
    }
}

/// Two-sided 95% t critical values by degrees of freedom (∞ → 1.96).
fn t_crit(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        return f64::INFINITY;
    }
    if df <= TABLE.len() {
        TABLE[df - 1]
    } else {
        1.96
    }
}

/// Geometric mean of positive values.
///
/// # Panics
///
/// Panics if `values` is empty or any value is non-positive.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "no values");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean needs positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Percent overhead of `candidate` relative to `baseline` for a
/// lower-is-better metric (positive = candidate slower).
#[must_use]
pub fn overhead_pct_lower_better(baseline: f64, candidate: f64) -> f64 {
    (candidate / baseline - 1.0) * 100.0
}

/// Percent overhead of `candidate` relative to `baseline` for a
/// higher-is-better metric (positive = candidate worse, i.e. slower).
#[must_use]
pub fn overhead_pct_higher_better(baseline: f64, candidate: f64) -> f64 {
    (baseline / candidate - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_statistics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.stddev - (2.5f64).sqrt()).abs() < 1e-12);
        // df = 4 -> t = 2.776.
        let expected_ci = 2.776 * s.stddev / 5f64.sqrt();
        assert!((s.ci95 - expected_ci).abs() < 1e-9);
    }

    #[test]
    fn single_sample_has_infinite_ci() {
        let s = Summary::of(&[2.0]);
        assert_eq!(s.stddev, 0.0);
        assert!(s.ci95.is_nan() || s.ci95 == 0.0 || s.ci95.is_infinite());
    }

    #[test]
    fn geomean_matches_hand_computation() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        let _ = geomean(&[1.0, 0.0]);
    }

    #[test]
    fn overhead_signs() {
        // Lower-better: slower candidate = positive overhead.
        assert!(overhead_pct_lower_better(100.0, 101.0) > 0.0);
        assert!(overhead_pct_lower_better(100.0, 99.0) < 0.0);
        // Higher-better: lower throughput = positive overhead.
        assert!(overhead_pct_higher_better(100.0, 99.0) > 0.0);
        assert!(overhead_pct_higher_better(100.0, 101.0) < 0.0);
    }
}
