//! Longitudinal series utilities: growth and spike detection over per-scan
//! records (the numeric backbone of Figs. 3 and 4).

/// A `(day, value)` time series with irregular spacing (scan cadence grows
/// from 1 to 5 days over the window).
///
/// ```
/// use sixdust_analysis::Series;
/// let mut pts: Vec<(u32, u64)> = (0..60).map(|d| (d, 100)).collect();
/// for d in 30..35 { pts[d as usize] = (d, 9_000); } // an injection era
/// let s = Series::new(pts);
/// assert_eq!(s.spike_windows(10.0, 3), vec![(30, 34)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series {
    /// `(day, value)` points in ascending day order.
    pub points: Vec<(u32, u64)>,
}

impl Series {
    /// Builds from points (sorts by day).
    pub fn new(mut points: Vec<(u32, u64)>) -> Series {
        points.sort_by_key(|(d, _)| *d);
        Series { points }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// End-over-start growth factor (`last / first`), ignoring zero starts.
    pub fn growth(&self) -> f64 {
        match (self.points.first(), self.points.last()) {
            (Some((_, a)), Some((_, b))) if *a > 0 => *b as f64 / *a as f64,
            _ => 0.0,
        }
    }

    /// Largest value and its day.
    pub fn peak(&self) -> Option<(u32, u64)> {
        self.points.iter().copied().max_by_key(|(_, v)| *v)
    }

    /// Detects spikes: points exceeding `factor` × the series median.
    /// Returns the spike days — how Fig. 3's injection events stand out.
    pub fn spikes(&self, factor: f64) -> Vec<u32> {
        if self.points.len() < 3 {
            return Vec::new();
        }
        let mut values: Vec<u64> = self.points.iter().map(|(_, v)| *v).collect();
        values.sort_unstable();
        let median = values[values.len() / 2] as f64;
        self.points
            .iter()
            .filter(|(_, v)| *v as f64 > median * factor && *v > 0)
            .map(|(d, _)| *d)
            .collect()
    }

    /// Groups consecutive spike days (gap ≤ `max_gap`) into event windows
    /// `(first_day, last_day)` — one window per GFW era, ideally.
    pub fn spike_windows(&self, factor: f64, max_gap: u32) -> Vec<(u32, u32)> {
        let days = self.spikes(factor);
        let mut out: Vec<(u32, u32)> = Vec::new();
        for d in days {
            match out.last_mut() {
                Some((_, end)) if d.saturating_sub(*end) <= max_gap => *end = d,
                _ => out.push((d, d)),
            }
        }
        out
    }

    /// Mean of the values.
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|(_, v)| *v as f64).sum::<f64>() / self.points.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spiky() -> Series {
        let mut pts: Vec<(u32, u64)> = (0..100).map(|d| (d, 100)).collect();
        for d in 40..44 {
            pts[d as usize] = (d, 5000);
        }
        for d in 70..75 {
            pts[d as usize] = (d, 8000);
        }
        Series::new(pts)
    }

    #[test]
    fn construction_sorts() {
        let s = Series::new(vec![(5, 1), (1, 2), (3, 3)]);
        assert_eq!(s.points, vec![(1, 2), (3, 3), (5, 1)]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn growth_and_peak() {
        let s = Series::new(vec![(0, 100), (50, 150), (100, 180)]);
        assert!((s.growth() - 1.8).abs() < 1e-9);
        assert_eq!(s.peak(), Some((100, 180)));
        assert_eq!(Series::default().growth(), 0.0);
    }

    #[test]
    fn spike_detection_finds_eras() {
        let s = spiky();
        let windows = s.spike_windows(5.0, 3);
        assert_eq!(windows, vec![(40, 43), (70, 74)]);
        // Baseline points are not spikes.
        assert!(!s.spikes(5.0).contains(&10));
    }

    #[test]
    fn spike_windows_merge_within_gap() {
        let mut pts: Vec<(u32, u64)> = (0..50).map(|d| (d, 10)).collect();
        pts[20] = (20, 1000);
        pts[23] = (23, 1000); // gap of 3 merges at max_gap=3
        let s = Series::new(pts);
        assert_eq!(s.spike_windows(5.0, 3), vec![(20, 23)]);
        assert_eq!(s.spike_windows(5.0, 1), vec![(20, 20), (23, 23)]);
    }

    #[test]
    fn mean_value() {
        let s = Series::new(vec![(0, 10), (1, 30)]);
        assert!((s.mean() - 20.0).abs() < 1e-9);
    }

    /// Paper-shaped responsive-count series: a UDP/53 baseline around
    /// 4 500 with GFW-injection eras two orders of magnitude above it
    /// (Fig. 3). Offline spike detection and the online MAD monitor must
    /// agree on where the eras are.
    fn gfw_shaped() -> (Series, Vec<(u32, u32)>) {
        let eras = vec![(330, 430), (650, 800), (940, 1040)];
        let mut pts = Vec::new();
        for day in (0..1100u32).step_by(5) {
            // Mild deterministic jitter so the baseline is not constant.
            let base = 4_500 + u64::from(day % 7) * 40;
            let in_era = eras.iter().any(|&(a, b)| (a..=b).contains(&day));
            pts.push((day, if in_era { 100_000 + u64::from(day % 11) * 500 } else { base }));
        }
        (Series::new(pts), eras)
    }

    #[test]
    fn offline_spikes_and_online_mad_agree_on_gfw_eras() {
        let (series, eras) = gfw_shaped();
        let windows = series.spike_windows(10.0, 5);
        assert_eq!(windows.len(), eras.len(), "offline finds each era once: {windows:?}");
        for (&(start, end), &(wa, wb)) in eras.iter().zip(&windows) {
            assert!(wa >= start && wb <= end, "window ({wa},{wb}) inside era ({start},{end})");
        }

        let flagged = sixdust_telemetry::flag_series(
            &series.points,
            &sixdust_telemetry::MadConfig::default(),
        );
        assert!(!flagged.is_empty());
        // Every day the online monitor flags lies inside an offline era,
        // and every era is caught online from its first scan day on.
        for day in &flagged {
            assert!(
                eras.iter().any(|&(a, b)| (a..=b).contains(day)),
                "online flag at day {day} outside all eras"
            );
        }
        for &(start, end) in &eras {
            let in_era: Vec<u32> =
                flagged.iter().copied().filter(|d| (start..=end).contains(d)).collect();
            assert_eq!(
                in_era.first(),
                Some(&start),
                "era ({start},{end}) flagged from its first scan day"
            );
            assert!(in_era.len() >= ((end - start) / 5) as usize, "era stays flagged throughout");
        }
    }

    #[test]
    fn steady_series_is_clean_for_both_detectors() {
        let pts: Vec<(u32, u64)> =
            (0..400u32).step_by(5).map(|d| (d, 4_500 + u64::from(d % 7) * 40)).collect();
        let series = Series::new(pts);
        assert!(series.spikes(10.0).is_empty());
        assert!(series.spike_windows(10.0, 5).is_empty());
        let flagged = sixdust_telemetry::flag_series(
            &series.points,
            &sixdust_telemetry::MadConfig::default(),
        );
        assert!(flagged.is_empty(), "steady baseline must not alarm: {flagged:?}");
    }
}
