//! Order statistics over small samples.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The middle value, or the mean of the two middle values. Empty input
/// gives 0.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Empty input gives 0.
pub fn min(values: &[f64]) -> f64 {
    sorted(values).first().copied().unwrap_or(0.0)
}

/// Empty input gives 0.
pub fn max(values: &[f64]) -> f64 {
    sorted(values).last().copied().unwrap_or(0.0)
}

/// The sample value at or above which `100 - p` percent of the sample
/// lies (nearest rank): a tail percentile is a value that was measured,
/// not an interpolation.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// The first and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (its default,
/// "exclusive" method), which is what the benchmark's driver computes its
/// spreads from. A sample of one is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let sorted = sorted(values);
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            n: values.len(),
            min: min(values),
            q1,
            median: median(values),
            q3,
            max: max(values),
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The time of one pass when every step takes the fastest time it took
/// in any pass. Each pass does identical work, so step `i` of every pass
/// is a sample of one quantity, and on a shared host the noise only adds
/// to it: for seconds at a time the machine runs a third slower, for
/// about half of all time. A median over passes follows that mix from run
/// to run; the fastest sample of each step does not, as long as one pass
/// crossed the step in a quiet moment.
pub fn fastest_pass_seconds(passes: &[&[f64]]) -> f64 {
    let steps = passes.first().map_or(0, |p| p.len());
    (0..steps).map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.min, s.q1, s.median, s.q3, s.max, s.n), (1.0, 1.5, 3.0, 4.5, 5.0, 5));
        // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
        let s = Summary::of(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((s.q1, s.median, s.q3), (12.5, 25.0, 37.5));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn percentile_is_a_sample_value_by_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0, 1.0, 9.0], 95.0), 9.0);
        assert_eq!(percentile(&[5.0, 1.0, 9.0], 1.0), 1.0);
    }

    #[test]
    fn fastest_pass_is_assembled_step_by_step() {
        // Three passes of three steps, each hit by noise somewhere: no
        // whole pass is clean, yet every step has a clean sample.
        let passes: [&[f64]; 3] = [&[9.0, 2.0, 3.0], &[1.0, 7.0, 8.0], &[4.0, 2.5, 3.5]];
        assert_eq!(fastest_pass_seconds(&passes), 6.0);
        assert_eq!(fastest_pass_seconds(&[&[1.5, 2.5]]), 4.0);
        assert_eq!(fastest_pass_seconds(&[]), 0.0);
    }
}
