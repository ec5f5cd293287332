//! Cumulative distributions across ASes (Figs. 2, 8, 9).

/// A CDF over ranked category counts (e.g. addresses per AS).
#[derive(Debug, Clone)]
pub struct RankCdf {
    /// Counts sorted descending.
    pub counts: Vec<u64>,
    /// Total across categories.
    pub total: u64,
}

impl RankCdf {
    /// Builds from unordered per-category counts.
    pub fn new(mut counts: Vec<u64>) -> RankCdf {
        counts.retain(|c| *c > 0);
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total = counts.iter().sum();
        RankCdf { counts, total }
    }

    /// Number of categories (ASes).
    pub fn categories(&self) -> usize {
        self.counts.len()
    }

    /// Share (0..=1) of the total held by the top category.
    pub fn top_share(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.counts.first().map(|c| *c as f64 / self.total as f64).unwrap_or(0.0)
    }

    /// Cumulative share covered by the top `k` categories.
    pub fn share_of_top(&self, k: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let s: u64 = self.counts.iter().take(k).sum();
        s as f64 / self.total as f64
    }

    /// Smallest number of categories covering at least `share` (0..=1) of
    /// the total.
    pub fn categories_for_share(&self, share: f64) -> usize {
        let target = (self.total as f64 * share).ceil() as u64;
        let mut acc = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return i + 1;
            }
        }
        self.counts.len()
    }

    /// `(rank, cumulative_share)` series for plotting (log-x CDF like
    /// Fig. 2). At most `points` entries, geometrically spaced.
    pub fn series(&self, points: usize) -> Vec<(usize, f64)> {
        if self.counts.is_empty() {
            return Vec::new();
        }
        let mut cum = Vec::with_capacity(self.counts.len());
        let mut acc = 0u64;
        for c in &self.counts {
            acc += c;
            cum.push(acc as f64 / self.total as f64);
        }
        let n = cum.len();
        let mut ranks: Vec<usize> = Vec::new();
        let mut r = 1usize;
        while r <= n {
            ranks.push(r);
            let next = (r as f64 * (n as f64).powf(1.0 / points as f64)).ceil() as usize;
            r = next.max(r + 1);
        }
        if *ranks.last().unwrap_or(&0) != n {
            ranks.push(n);
        }
        ranks.into_iter().map(|r| (r, cum[r - 1])).collect()
    }

    /// Gini-style skewness indicator in [0, 1]: 0 = perfectly even.
    pub fn skew(&self) -> f64 {
        let n = self.counts.len();
        if n <= 1 || self.total == 0 {
            return 0.0;
        }
        // Normalized area between the Lorenz curve of the sorted counts
        // and the uniform line.
        let mut acc = 0u64;
        let mut area = 0f64;
        for c in self.counts.iter().rev() {
            // ascending order
            acc += c;
            area += acc as f64 / self.total as f64;
        }
        let uniform_area = (n as f64 + 1.0) / 2.0;
        ((uniform_area - area) / uniform_area * 2.0).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_shares() {
        let cdf = RankCdf::new(vec![10, 30, 60]);
        assert_eq!(cdf.total, 100);
        assert_eq!(cdf.categories(), 3);
        assert!((cdf.top_share() - 0.6).abs() < 1e-9);
        assert!((cdf.share_of_top(2) - 0.9).abs() < 1e-9);
        assert_eq!(cdf.categories_for_share(0.5), 1);
        assert_eq!(cdf.categories_for_share(0.95), 3);
    }

    #[test]
    fn zeros_removed() {
        let cdf = RankCdf::new(vec![0, 5, 0, 5]);
        assert_eq!(cdf.categories(), 2);
    }

    #[test]
    fn skew_ordering() {
        let even = RankCdf::new(vec![10; 10]);
        let skewed = RankCdf::new(vec![91, 1, 1, 1, 1, 1, 1, 1, 1, 1]);
        assert!(even.skew() < 0.05, "{}", even.skew());
        assert!(skewed.skew() > 0.5, "{}", skewed.skew());
        assert!(skewed.skew() > even.skew());
    }

    #[test]
    fn series_monotone_and_complete() {
        let cdf = RankCdf::new((1..=500u64).collect());
        let s = cdf.series(20);
        assert!(s.len() <= 25);
        assert_eq!(s.last().unwrap().0, 500);
        assert!((s.last().unwrap().1 - 1.0).abs() < 1e-9);
        for w in s.windows(2) {
            assert!(w[1].0 > w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn empty_cdf() {
        let cdf = RankCdf::new(vec![]);
        assert_eq!(cdf.top_share(), 0.0);
        assert_eq!(cdf.skew(), 0.0);
        assert!(cdf.series(10).is_empty());
    }
}
