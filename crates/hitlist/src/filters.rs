//! The filter chain of the hitlist pipeline (Fig. 1, middle).
//!
//! In pipeline order: the request-based **blocklist**, the **aliased
//! prefix filter** (fed by the detector), the **GFW filter** this paper
//! added, and the **30-day unresponsive filter**. Each is a small, testable
//! unit; the service composes them. The 30-day filter holds the input and
//! the clocks of its active addresses; its dropped pool is never stored.

use sixdust_addr::{Addr, AddrHashMap, AddrHashSet, AddrSet, Prefix, PrefixSet};
use sixdust_net::Day;
use sixdust_scan::{Detail, ScanResult};

/// The request-based blocklist: operators who opted out of scanning.
///
/// ```
/// use sixdust_hitlist::Blocklist;
/// let mut b = Blocklist::new();
/// b.add("2001:db8::/32".parse().unwrap());
/// assert!(!b.allows("2001:db8::1".parse().unwrap()));
/// assert!(b.allows("2001:db9::1".parse().unwrap()));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Blocklist {
    prefixes: PrefixSet,
}

impl Blocklist {
    /// Creates an empty blocklist.
    pub fn new() -> Blocklist {
        Blocklist::default()
    }

    /// Seeds the blocklist (the paper seeds from the existing service's
    /// list to honour prior opt-outs).
    pub fn seed(prefixes: impl IntoIterator<Item = Prefix>) -> Blocklist {
        Blocklist { prefixes: prefixes.into_iter().collect() }
    }

    /// Registers an opt-out request.
    pub fn add(&mut self, prefix: Prefix) {
        self.prefixes.insert(prefix);
    }

    /// Whether scanning this address is permitted.
    pub fn allows(&self, addr: Addr) -> bool {
        !self.prefixes.covers_addr(addr)
    }

    /// Number of blocked prefixes.
    pub fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// Whether the blocklist is empty.
    pub fn is_empty(&self) -> bool {
        self.prefixes.is_empty()
    }
}

/// The GFW cleaning filter (Sec. 4.2): removes UDP/53 successes whose
/// responses carried injection markers (A records answering AAAA queries,
/// or Teredo AAAA records), and remembers every address ever flagged.
#[derive(Debug, Clone, Default)]
pub struct GfwFilter {
    impacted: AddrSet,
}

impl GfwFilter {
    /// Creates the filter.
    pub fn new() -> GfwFilter {
        GfwFilter::default()
    }

    /// Rebuilds the filter from a checkpointed impacted set.
    pub fn restore(impacted: AddrSet) -> GfwFilter {
        GfwFilter { impacted }
    }

    /// Scans a UDP/53 result: records injected-flagged targets and returns
    /// the cleaned hit list.
    pub fn clean(&mut self, result: &ScanResult) -> Vec<Addr> {
        let (mut clean, mut injected) = (Vec::new(), Vec::new());
        for h in &result.hits {
            match h.detail {
                Detail::Dns { injected: true, .. } => injected.push(h.target.0),
                _ => clean.push(h.target),
            }
        }
        self.impacted.union_in_place(&AddrSet::from_unsorted(injected));
        clean
    }

    /// Every address ever seen with an injected response.
    pub fn impacted(&self) -> &AddrSet {
        &self.impacted
    }
}

/// The 30-day unresponsive filter: drops addresses unresponsive for 30+
/// days from the scan target list — and, true to the original service,
/// never re-tests them (Sec. 3.1; re-scanning that pool is Sec. 6's
/// "unresponsive addresses" source). It owns the service's input and a
/// clock for each active address: the dropped pool is the input without a
/// clock, stored nowhere, and a dropped address cannot come back.
///
/// Days inside **quarantined** windows (degraded rounds: heavy loss or an
/// outage at the vantage) do not count toward an address's silence, so a
/// multi-round outage cannot mass-evict the pool: eviction is deferred by
/// exactly the quarantined days, not skipped.
#[derive(Debug, Clone)]
pub struct UnresponsiveFilter {
    /// Every address ever admitted, active or dropped.
    input: AddrHashSet,
    /// Day an active address last answered (or entered the input).
    last_seen: AddrHashMap<Day>,
    /// The cutoff in days.
    pub window: u32,
    /// Half-open `[from, until)` day windows whose silence is forgiven.
    /// Absent in checkpoints written before quarantine existed.
    quarantined: Vec<(Day, Day)>,
}

impl Default for UnresponsiveFilter {
    fn default() -> UnresponsiveFilter {
        UnresponsiveFilter {
            input: AddrHashSet::default(),
            last_seen: AddrHashMap::default(),
            window: 30,
            quarantined: Vec::new(),
        }
    }
}

impl UnresponsiveFilter {
    /// Creates the filter with the paper's 30-day window.
    pub fn new() -> UnresponsiveFilter {
        UnresponsiveFilter::default()
    }

    /// Admits an address to the input and starts its clock on `day`.
    /// Returns whether it was new: an address already admitted, active or
    /// dropped, keeps its clock or its lack of one.
    pub fn register(&mut self, addr: Addr, day: Day) -> bool {
        let new = self.input.insert(addr);
        if new {
            self.last_seen.insert(addr, day);
        }
        new
    }

    /// Marks an address responsive on `day`: restarts the clock of an
    /// active address. An address never registered, or already dropped,
    /// has no clock and gets none.
    pub fn mark_responsive(&mut self, addr: Addr, day: Day) {
        if let Some(last) = self.last_seen.get_mut(&addr) {
            *last = day;
        }
    }

    /// Whether the address is still in the scan rotation.
    pub fn active(&self, addr: Addr) -> bool {
        self.last_seen.contains_key(&addr)
    }

    /// Quarantines the half-open day window `[from, until)`: silence
    /// accumulated across those days is forgiven in [`sweep`](Self::sweep),
    /// because an address cannot prove liveness while the measurement
    /// itself is degraded. Empty or inverted windows are ignored.
    pub fn quarantine(&mut self, from: Day, until: Day) {
        if from < until {
            self.quarantined.push((from, until));
        }
    }

    /// The quarantined `[from, until)` day windows recorded so far.
    pub fn quarantined(&self) -> &[(Day, Day)] {
        &self.quarantined
    }

    /// Ages the filter: addresses silent longer than the window (net of
    /// quarantined days) lose their clock for good. Returns how many were
    /// dropped this sweep.
    pub fn sweep(&mut self, day: Day) -> usize {
        let window = self.window;
        let before = self.last_seen.len();
        let quarantined = &self.quarantined;
        self.last_seen.retain(|_, last| {
            // Silent days are (last, day] = [last+1, day+1); forgive the
            // days intersecting any quarantined [from, until) window.
            let credit: u32 = quarantined
                .iter()
                .map(|(from, until)| {
                    let lo = from.0.max(last.0 + 1);
                    let hi = until.0.min(day.0 + 1);
                    hi.saturating_sub(lo)
                })
                .sum();
            day.since(*last).saturating_sub(credit) < window
        });
        before - self.last_seen.len()
    }

    /// Rebuilds a filter from checkpointed parts (the resume path of
    /// [`ServiceState`](crate::ServiceState)): the input is the active
    /// addresses and the dropped ones.
    pub fn restore(
        active: impl IntoIterator<Item = (Addr, Day)>,
        dropped: impl IntoIterator<Item = Addr>,
        window: u32,
        quarantined: Vec<(Day, Day)>,
    ) -> UnresponsiveFilter {
        let last_seen: AddrHashMap<Day> = active.into_iter().collect();
        let input = last_seen.keys().copied().chain(dropped).collect();
        UnresponsiveFilter { input, last_seen, window, quarantined }
    }

    /// Every address ever admitted, active or dropped.
    pub fn input(&self) -> &AddrHashSet {
        &self.input
    }

    /// Active scan targets.
    pub fn active_targets(&self) -> impl Iterator<Item = Addr> + '_ {
        self.last_seen.keys().copied()
    }

    /// Active addresses with the day they last answered (checkpoint
    /// capture).
    pub fn active_entries(&self) -> impl Iterator<Item = (Addr, Day)> + '_ {
        self.last_seen.iter().map(|(a, d)| (*a, *d))
    }

    /// The permanently dropped pool (Sec. 6's re-scan source): the input
    /// without a clock, built on each call.
    pub fn dropped_pool(&self) -> AddrSet {
        self.input.iter().filter(|a| !self.last_seen.contains_key(*a)).copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use sixdust_net::Protocol;
    use sixdust_scan::{Hit, ScanStats};

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    #[test]
    fn blocklist_covers() {
        let mut b = Blocklist::new();
        assert!(b.allows(a("2001:db8::1")));
        b.add("2001:db8::/32".parse().unwrap());
        assert!(!b.allows(a("2001:db8::1")));
        assert!(b.allows(a("2001:db9::1")));
        assert_eq!(b.len(), 1);
    }

    fn dns_result(hits: Vec<Hit>) -> ScanResult {
        ScanResult { protocol: Protocol::Udp53, day: Day(1), hits, stats: ScanStats::default() }
    }

    #[test]
    fn gfw_filter_splits_injected() {
        let mut f = GfwFilter::new();
        let clean = f.clean(&dns_result(vec![
            Hit { target: a("2400::1"), detail: Detail::Dns { responses: 3, injected: true } },
            Hit {
                target: a("2001:db8::53"),
                detail: Detail::Dns { responses: 1, injected: false },
            },
        ]));
        assert_eq!(clean, vec![a("2001:db8::53")]);
        assert!(f.impacted().contains_addr(a("2400::1")));
        assert_eq!(f.impacted().len(), 1);
    }

    #[test]
    fn unresponsive_filter_lifecycle() {
        let mut f = UnresponsiveFilter::new();
        f.register(a("::1"), Day(0));
        f.register(a("::2"), Day(0));
        f.mark_responsive(a("::1"), Day(20));
        assert_eq!(f.sweep(Day(29)), 0, "nothing out of window yet");
        // ::2 has been silent since day 0.
        assert_eq!(f.sweep(Day(30)), 1);
        assert!(f.active(a("::1")));
        assert!(!f.active(a("::2")));
        assert!(f.dropped_pool().contains_addr(a("::2")));
        // Dropped addresses never re-enter.
        f.register(a("::2"), Day(31));
        f.mark_responsive(a("::2"), Day(31));
        assert!(!f.active(a("::2")), "never re-tested after exclusion");
    }

    #[test]
    fn an_address_the_input_never_admitted_gets_no_clock() {
        let mut f = UnresponsiveFilter::new();
        f.register(a("::1"), Day(0));
        f.mark_responsive(a("::9"), Day(5));
        assert!(!f.active(a("::9")));
        assert_eq!(f.active_targets().collect::<Vec<_>>(), vec![a("::1")]);
        // It never ages out either: it was never in the rotation.
        assert_eq!(f.sweep(Day(40)), 1);
        assert!(!f.dropped_pool().contains_addr(a("::9")));
    }

    #[test]
    fn register_does_not_reset_clock() {
        let mut f = UnresponsiveFilter::new();
        f.register(a("::1"), Day(0));
        f.register(a("::1"), Day(25));
        assert_eq!(f.sweep(Day(31)), 1, "re-registration must not refresh");
    }

    #[test]
    fn quarantine_defers_eviction_by_exactly_the_window() {
        let mut f = UnresponsiveFilter::new();
        f.register(a("::1"), Day(0));
        // A 10-day outage: days 20..30 are quarantined.
        f.quarantine(Day(20), Day(30));
        assert_eq!(f.sweep(Day(30)), 0, "30 silent days minus 10 forgiven");
        assert_eq!(f.sweep(Day(39)), 0, "still 29 effective silent days");
        assert_eq!(f.sweep(Day(40)), 1, "eviction deferred, not cancelled");
    }

    #[test]
    fn quarantine_outside_silence_interval_grants_nothing() {
        let mut f = UnresponsiveFilter::new();
        f.register(a("::1"), Day(0));
        f.mark_responsive(a("::1"), Day(10));
        // Window entirely before the address went silent.
        f.quarantine(Day(3), Day(8));
        assert_eq!(f.sweep(Day(40)), 1, "credit only for silent days");
    }

    #[test]
    fn quarantine_windows_accumulate_and_empty_windows_are_ignored() {
        let mut f = UnresponsiveFilter::new();
        f.register(a("::1"), Day(0));
        f.quarantine(Day(5), Day(10));
        f.quarantine(Day(15), Day(20));
        f.quarantine(Day(30), Day(30)); // empty, ignored
        f.quarantine(Day(9), Day(4)); // inverted, ignored
        assert_eq!(f.quarantined().len(), 2);
        // 40 silent days, 10 forgiven.
        assert_eq!(f.sweep(Day(39)), 0);
        assert_eq!(f.sweep(Day(40)), 1);
    }

    /// The filter as it was before it owned the input: the caller's input
    /// set, a clock map and a dropped set, kept in step by hand.
    #[derive(Default)]
    struct ThreeTables {
        input: BTreeSet<Addr>,
        last_seen: BTreeMap<Addr, Day>,
        dropped: BTreeSet<Addr>,
        quarantined: Vec<(Day, Day)>,
    }

    impl ThreeTables {
        /// The caller's `input.insert`, then the old `register`.
        fn register(&mut self, addr: Addr, day: Day) -> bool {
            let new = self.input.insert(addr);
            if new && !self.dropped.contains(&addr) {
                self.last_seen.entry(addr).or_insert(day);
            }
            new
        }

        fn mark_responsive(&mut self, addr: Addr, day: Day) {
            if let Some(last) = self.last_seen.get_mut(&addr) {
                *last = day;
            }
        }

        fn quarantine(&mut self, from: Day, until: Day) {
            if from < until {
                self.quarantined.push((from, until));
            }
        }

        fn sweep(&mut self, day: Day, window: u32) -> usize {
            let expired: Vec<Addr> = self
                .last_seen
                .iter()
                .filter(|(_, last)| {
                    let credit: u32 = self
                        .quarantined
                        .iter()
                        .map(|(from, until)| {
                            until.0.min(day.0 + 1).saturating_sub(from.0.max(last.0 + 1))
                        })
                        .sum();
                    day.since(**last).saturating_sub(credit) >= window
                })
                .map(|(a, _)| *a)
                .collect();
            for a in &expired {
                self.last_seen.remove(a);
                self.dropped.insert(*a);
            }
            expired.len()
        }
    }

    #[test]
    fn the_filter_matches_the_three_table_reference() {
        let mut rng = sixdust_addr::prf::PrfStream::new(0xf117e5, 0, 0);
        let mut revisits = 0;
        for case in 0..96 {
            // A dozen addresses over three /64s, so admissions repeat and
            // dropped addresses are offered again.
            let pool: Vec<Addr> =
                (0..12u128).map(|i| Addr(((0x2001_0db8_0000_0000 + i % 3) << 64) | i)).collect();
            let mut f = UnresponsiveFilter::new();
            f.window = 2 + rng.next_bounded(8) as u32;
            let mut model = ThreeTables::default();
            let mut day = Day(0);
            for step in 0..60 {
                day = day.plus(rng.next_bounded(3) as u32);
                let addr = pool[rng.next_bounded(pool.len() as u64) as usize];
                let what = match rng.next_bounded(10) {
                    0..=3 => {
                        revisits += usize::from(model.dropped.contains(&addr));
                        let got = f.register(addr, day);
                        assert_eq!(got, model.register(addr, day), "case {case} step {step}");
                        "register"
                    }
                    4..=6 => {
                        f.mark_responsive(addr, day);
                        model.mark_responsive(addr, day);
                        "mark_responsive"
                    }
                    7 => {
                        let from = Day(day.0.saturating_sub(rng.next_bounded(6) as u32));
                        let until = from.plus(rng.next_bounded(6) as u32);
                        f.quarantine(from, until);
                        model.quarantine(from, until);
                        "quarantine"
                    }
                    _ => {
                        let got = f.sweep(day);
                        assert_eq!(got, model.sweep(day, f.window), "case {case} step {step}");
                        "sweep"
                    }
                };
                let at = format!("case {case} step {step} ({what} on {day:?})");
                for a in &pool {
                    assert_eq!(f.active(*a), model.last_seen.contains_key(a), "{at}: {a}");
                }
                let entries: BTreeMap<Addr, Day> = f.active_entries().collect();
                assert_eq!(entries, model.last_seen, "{at}: clocks");
                let dropped: AddrSet = model.dropped.iter().copied().collect();
                assert_eq!(f.dropped_pool(), dropped, "{at}: dropped pool");
                let input: BTreeSet<Addr> = f.input().iter().copied().collect();
                assert_eq!(input, model.input, "{at}: input");
                assert_eq!(f.quarantined(), model.quarantined, "{at}: quarantine");
            }
        }
        assert!(revisits >= 100, "{revisits} dropped addresses offered again");
    }

    #[test]
    fn restore_round_trips_filter_parts() {
        let mut f = UnresponsiveFilter::new();
        f.register(a("::1"), Day(0));
        f.register(a("::2"), Day(5));
        f.quarantine(Day(7), Day(9));
        f.sweep(Day(32)); // drops ::1 (32 silent − 2 forgiven ≥ 30)
        assert!(!f.active(a("::1")));
        let g = UnresponsiveFilter::restore(
            f.active_entries(),
            f.dropped_pool().addrs(),
            f.window,
            f.quarantined().to_vec(),
        );
        assert!(g.active(a("::2")));
        assert!(!g.active(a("::1")));
        assert!(g.dropped_pool().contains_addr(a("::1")));
        assert_eq!(g.quarantined(), f.quarantined());
    }
}
