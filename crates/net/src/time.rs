//! Simulation time: days since the IPv6 Hitlist service launch.
//!
//! Day 0 is 2018-07-01, the first scan in the published data. The paper's
//! analysis window closes at 2022-04-07 (day 1376). All event boundaries
//! (GFW eras, source additions, the Trafficforce flood, the GFW filter
//! deployment) are constants here so the whole timeline is auditable in one
//! place.

use sixdust_json::{Error, FromJson, ToJson, Value};

/// A simulation day (days since 2018-07-01).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Day(pub u32);

impl ToJson for Day {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

impl FromJson for Day {
    fn from_value(v: &Value) -> Result<Day, Error> {
        u32::from_value(v).map(Day)
    }
}

impl Day {
    /// Service launch, 2018-07-01.
    pub const LAUNCH: Day = Day(0);
    /// The paper's final snapshot, 2022-04-07.
    pub const PAPER_END: Day = Day(1376);

    /// Yearly snapshot days used by Table 1 and Fig. 5
    /// (2018-07-01, 2019-04-01, 2020-04-01, 2021-04-02, 2022-04-07).
    pub const SNAPSHOTS: [Day; 5] = [Day(0), Day(274), Day(640), Day(1006), Day(1376)];

    /// Days elapsed since another day (saturating).
    pub fn since(self, earlier: Day) -> u32 {
        self.0.saturating_sub(earlier.0)
    }

    /// This day plus `n` days.
    pub fn plus(self, n: u32) -> Day {
        Day(self.0 + n)
    }

    /// Renders as an ISO date assuming day 0 = 2018-07-01 (civil calendar,
    /// Gregorian leap rules).
    pub fn to_date(self) -> String {
        // Days since 1970-01-01 for 2018-07-01 is 17713.
        let mut days = 17713 + self.0 as i64;
        let mut year = 1970i64;
        loop {
            let ylen = if leap(year) { 366 } else { 365 };
            if days < ylen {
                break;
            }
            days -= ylen;
            year += 1;
        }
        let month_lens =
            [31, if leap(year) { 29 } else { 28 }, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];
        let mut month = 0usize;
        while days >= month_lens[month] {
            days -= month_lens[month];
            month += 1;
        }
        format!("{year:04}-{:02}-{:02}", month + 1, days + 1)
    }
}

fn leap(y: i64) -> bool {
    (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
}

/// Event timeline constants (all in days since launch).
pub mod events {
    use super::Day;

    /// One-time rDNS source injection (early 2019), the cause of the small
    /// 2019→2020 dip once those addresses decayed (Table 1 discussion).
    pub const RDNS_IMPORT: Day = Day(250);

    /// First GFW injection era (A records): a spike in 2019.
    pub const GFW_ERA1: (Day, Day) = (Day(330), Day(430));
    /// Second GFW injection era (A records): a spike in 2020.
    pub const GFW_ERA2: (Day, Day) = (Day(650), Day(800));
    /// Third and largest era (Teredo AAAA records), early 2021 until the
    /// paper's filter deployment.
    pub const GFW_ERA3: (Day, Day) = (Day(940), Day(1340));

    /// The paper's GFW filter goes live in the service (February 2022):
    /// UDP/53 results are cleaned post-scan from here on.
    pub const GFW_FILTER_DEPLOYED: Day = Day(1310);

    /// Trafficforce (AS212144) starts announcing and answering its /64
    /// flood (February 2022).
    pub const TRAFFICFORCE_FLOOD: Day = Day(1315);

    /// Scan cadence: daily at launch, slowing as the input grows. Returns
    /// the inter-scan gap in days at a given day (1 → 5, matching the
    /// "runtime grew to several days" note and the churn growth in Fig. 4).
    pub fn scan_gap(day: Day) -> u32 {
        match day.0 {
            0..=399 => 1,
            400..=799 => 2,
            800..=1099 => 3,
            1100..=1299 => 4,
            _ => 5,
        }
    }

    /// The round days of the historical cadence over `[from, until]`:
    /// `from`, then a [`scan_gap`] after each round, and a final round
    /// pinned to `until` (a window that starts at or past `until` is that
    /// one round).
    pub fn cadence(from: Day, until: Day) -> Vec<Day> {
        let mut days = Vec::new();
        let mut day = from;
        while day < until {
            days.push(day);
            day = day.plus(scan_gap(day)).min(until);
        }
        days.push(until);
        days
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_date() {
        assert_eq!(Day::LAUNCH.to_date(), "2018-07-01");
    }

    #[test]
    fn paper_end_date() {
        assert_eq!(Day::PAPER_END.to_date(), "2022-04-07");
    }

    #[test]
    fn snapshot_dates_match_table1() {
        let dates: Vec<String> = Day::SNAPSHOTS.iter().map(|d| d.to_date()).collect();
        assert_eq!(
            dates,
            vec!["2018-07-01", "2019-04-01", "2020-04-01", "2021-04-02", "2022-04-07"]
        );
    }

    #[test]
    fn leap_year_handling() {
        // 2020-02-29 exists: day 608 = 2020-02-29.
        assert_eq!(Day(608).to_date(), "2020-02-29");
        assert_eq!(Day(609).to_date(), "2020-03-01");
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Day(10).plus(5), Day(15));
        assert_eq!(Day(10).since(Day(3)), 7);
        assert_eq!(Day(3).since(Day(10)), 0, "saturates");
    }

    #[test]
    fn cadence_slows() {
        assert_eq!(events::scan_gap(Day(0)), 1);
        assert!(events::scan_gap(Day::PAPER_END) > events::scan_gap(Day(0)));
    }

    #[test]
    fn cadence_matches_the_service_walk() {
        let days = events::cadence(Day(0), Day(10));
        assert_eq!(days.first(), Some(&Day(0)));
        assert_eq!(days.last(), Some(&Day(10)));
        for pair in days.windows(2) {
            assert!(pair[0] < pair[1], "strictly increasing");
        }
        // Degenerate window still lands the final round on `until`.
        assert_eq!(events::cadence(Day(7), Day(7)), vec![Day(7)]);
    }

    #[test]
    fn eras_ordered_and_inside_window() {
        let (s1, e1) = events::GFW_ERA1;
        let (s2, e2) = events::GFW_ERA2;
        let (s3, e3) = events::GFW_ERA3;
        assert!(s1 < e1 && e1 < s2 && s2 < e2 && e2 < s3 && s3 < e3);
        assert!(e3 <= Day::PAPER_END.plus(100));
        assert!(events::GFW_FILTER_DEPLOYED < e3);
    }
}
