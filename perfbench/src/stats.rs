//! Order statistics over timing samples.

/// Sample count, extremes and quartiles of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarize `samples` (any order). Empty input gives all zeros.
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let Some((&min, &max)) = s.first().zip(s.last()) else {
            return Summary::default();
        };
        Summary {
            n: s.len(),
            min,
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
            max,
        }
    }
}

/// Linear-interpolated quantile of sorted, non-empty samples.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// The tail sample: the highest one with at least ten samples above it,
/// and its percentile rank. With ten or fewer samples there is no such
/// sample; the maximum is returned at rank 100.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n <= 10 {
        return (s.last().copied().unwrap_or(0.0), 100.0);
    }
    (s[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.min, s.q1, s.median, s.q3, s.max), (5, 1.0, 2.0, 3.0, 4.0, 5.0));
        assert_eq!(Summary::of(&[]).n, 0);
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        let (value, pct) = tail(&samples);
        assert_eq!(value, 30.0);
        assert_eq!(samples.iter().filter(|v| **v > value).count(), 10);
        assert_eq!(pct, 75.0);
        assert_eq!(tail(&[2.0, 1.0]), (2.0, 100.0));
    }
}
