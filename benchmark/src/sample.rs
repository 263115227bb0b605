//! The one sampling type every measurement in the harness goes through.
//!
//! A [`Samples`] collects raw observations; [`Samples::summary`] reduces them
//! to the figures the benchmark reports: n, median, quartiles, min / max and
//! the tail percentile chosen by the "at least ten samples beyond it" rule.

/// The percentiles the tail rule chooses from, ascending, in hundredths of
/// a percent (integers: `99.9 / 100.0 * 10_000.0` is not 9990 in floating
/// point, and a rank off by one flips the rule at exactly ten samples).
const TAIL_PERCENTILES: [usize; 7] = [5000, 7500, 9000, 9500, 9900, 9990, 9999];

/// How many samples must lie beyond a percentile for it to be reported.
const TAIL_MIN_BEYOND: usize = 10;

/// Raw observations of one quantity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples(Vec<f64>);

/// The reduction of a [`Samples`] set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile (Python's `statistics.quantiles(v, n=4)[0]`).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile (`statistics.quantiles(v, n=4)[2]`).
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// The highest percentile with at least ten samples beyond it, and its
    /// nearest-rank value; `None` below twenty samples.
    pub tail: Option<(f64, f64)>,
}

impl Samples {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The observations in insertion order.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// Reduces the set; `None` when it is empty.
    pub fn summary(&self) -> Option<Summary> {
        if self.0.is_empty() {
            return None;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        Some(Summary {
            n,
            min: sorted[0],
            q1: quantile(&sorted, 1),
            median: quantile(&sorted, 2),
            q3: quantile(&sorted, 3),
            max: sorted[n - 1],
            tail: tail_rule(n).map(|p| (p as f64 / 100.0, sorted[rank(n, p) - 1])),
        })
    }

    /// The median; panics on an empty set (a measurement that took no
    /// sample is a harness bug, not a result).
    pub fn median(&self) -> f64 {
        self.summary()
            .expect("median of an empty sample set")
            .median
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self(iter.into_iter().collect())
    }
}

/// The `i`-th quartile cut (1..=3) of sorted data, by the exclusive method
/// Python's `statistics.quantiles` defaults to — the driver computes its
/// spreads with that function, so the harness prints the same numbers.
fn quantile(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// The tail rule: the highest percentile (in hundredths of a percent) with
/// at least [`TAIL_MIN_BEYOND`] of `n` samples beyond its nearest rank.
fn tail_rule(n: usize) -> Option<usize> {
    TAIL_PERCENTILES
        .into_iter()
        .rev()
        .find(|&p| n - rank(n, p) >= TAIL_MIN_BEYOND)
}

/// The highest reportable percentile for `n` samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    tail_rule(n).map(|p| p as f64 / 100.0)
}

/// Nearest-rank position (1-based) among `n` samples of a percentile given
/// in hundredths of a percent.
fn rank(n: usize, p: usize) -> usize {
    (p * n).div_ceil(10_000).clamp(1, n)
}
