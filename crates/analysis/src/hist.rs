//! Histograms and matrices: aliased prefix sizes (Fig. 5), overlaps
//! (Figs. 7, 10), ASCII rendering helpers.

use std::collections::HashSet;

use sixdust_addr::Addr;

/// A histogram over prefix lengths.
#[derive(Debug, Clone)]
pub struct PlenHistogram {
    counts: Vec<u64>, // one bin per prefix length 0..=128
    total: u64,
}

impl Default for PlenHistogram {
    fn default() -> PlenHistogram {
        PlenHistogram { counts: vec![0; 129], total: 0 }
    }
}

impl PlenHistogram {
    /// Builds from prefix lengths.
    pub fn from_lens(lens: impl IntoIterator<Item = u8>) -> PlenHistogram {
        let mut h = PlenHistogram::default();
        for l in lens {
            h.counts[usize::from(l.min(128))] += 1;
            h.total += 1;
        }
        h
    }

    /// Count at one length.
    pub fn at(&self, len: u8) -> u64 {
        self.counts[usize::from(len)]
    }

    /// Share (0..=1) at one length.
    pub fn share(&self, len: u8) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.at(len) as f64 / self.total as f64
        }
    }

    /// Total prefixes counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `(len, count)` rows for non-empty bins.
    pub fn bins(&self) -> Vec<(u8, u64)> {
        (0..=128u8).filter(|l| self.at(*l) > 0).map(|l| (l, self.at(l))).collect()
    }
}

/// A row-normalized overlap matrix: entry `(i, j)` is the percentage of
/// row `i`'s set also present in set `j` (Fig. 7's convention).
#[derive(Debug, Clone)]
pub struct OverlapMatrix {
    /// Row/column labels.
    pub labels: Vec<String>,
    /// Percentages, row-major.
    pub pct: Vec<Vec<f64>>,
}

impl OverlapMatrix {
    /// Builds from labeled address sets.
    pub fn new(sets: &[(String, Vec<Addr>)]) -> OverlapMatrix {
        let hashed: Vec<HashSet<Addr>> =
            sets.iter().map(|(_, v)| v.iter().copied().collect()).collect();
        let mut pct = Vec::with_capacity(sets.len());
        for (i, (_, row_set)) in sets.iter().enumerate() {
            let mut row = Vec::with_capacity(sets.len());
            for (j, hj) in hashed.iter().enumerate() {
                if row_set.is_empty() {
                    row.push(0.0);
                } else if i == j {
                    row.push(100.0);
                } else {
                    let inter = row_set.iter().filter(|a| hj.contains(a)).count();
                    row.push(inter as f64 * 100.0 / row_set.len() as f64);
                }
            }
            pct.push(row);
        }
        OverlapMatrix { labels: sets.iter().map(|(l, _)| l.clone()).collect(), pct }
    }

    /// The overlap percentage of row `i` in column `j`.
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.pct[i][j]
    }

    /// Renders as an aligned text matrix.
    pub fn render(&self) -> String {
        let w = self.labels.iter().map(|l| l.len()).max().unwrap_or(6).max(6);
        let mut out = format!("{:<w$}", "");
        for l in &self.labels {
            out.push_str(&format!(" {l:>w$}"));
        }
        out.push('\n');
        for (i, l) in self.labels.iter().enumerate() {
            out.push_str(&format!("{l:<w$}"));
            for j in 0..self.labels.len() {
                out.push_str(&format!(" {:>w$.1}", self.pct[i][j]));
            }
            out.push('\n');
        }
        out
    }
}

/// Tiny ASCII sparkline for time series (log-friendly output in the
/// experiment binaries).
pub fn sparkline(values: &[u64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().max().unwrap_or(0).max(1);
    values.iter().map(|v| GLYPHS[((*v as f64 / max as f64) * 7.0).round() as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_shares() {
        let h = PlenHistogram::from_lens([64, 64, 64, 48, 28]);
        assert_eq!(h.total(), 5);
        assert_eq!(h.at(64), 3);
        assert!((h.share(64) - 0.6).abs() < 1e-9);
        assert_eq!(h.bins(), vec![(28, 1), (48, 1), (64, 3)]);
    }

    #[test]
    fn overlap_matrix_semantics() {
        let sets = vec![
            ("a".to_string(), vec![Addr(1), Addr(2), Addr(3), Addr(4)]),
            ("b".to_string(), vec![Addr(3), Addr(4)]),
            ("c".to_string(), vec![Addr(99)]),
        ];
        let m = OverlapMatrix::new(&sets);
        assert_eq!(m.at(0, 0), 100.0);
        assert_eq!(m.at(0, 1), 50.0, "half of a is in b");
        assert_eq!(m.at(1, 0), 100.0, "all of b is in a");
        assert_eq!(m.at(2, 0), 0.0);
        let s = m.render();
        assert!(s.contains("100.0"));
    }

    #[test]
    fn sparkline_scales() {
        let s = sparkline(&[0, 5, 10]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'));
    }
}
