//! The filter chain of the hitlist pipeline (Fig. 1, middle).
//!
//! In pipeline order: the request-based **blocklist**, the **aliased
//! prefix filter** (fed by the detector), the **GFW filter** this paper
//! added, and the **30-day unresponsive filter**. Each is a small, testable
//! unit; the service composes them. The 30-day filter holds the input and
//! the clocks of its active addresses; its dropped pool is never stored.

use sixdust_addr::{Addr, AddrSet, Prefix, PrefixSet};
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
/// clock for each active address, as two columns side by side: the
/// input ascending, and beside each address the day it last answered or
/// `None` once dropped. The dropped pool is the input without a clock,
/// stored nowhere, and a dropped address cannot come back.
///
/// Days inside **quarantined** windows (degraded rounds: heavy loss or an
/// outage at the vantage) do not count toward an address's silence, so a
/// multi-round outage cannot mass-evict the pool: eviction is deferred by
/// exactly the quarantined days, not skipped.
#[derive(Debug, Clone)]
pub struct UnresponsiveFilter {
    /// Every address ever admitted, active or dropped, strictly ascending.
    input: Vec<Addr>,
    /// Beside each input address: the day it last answered (or entered
    /// the input), `None` once dropped.
    clocks: Vec<Option<Day>>,
    /// The cutoff in days.
    pub window: u32,
    /// Half-open `[from, until)` day windows whose silence is forgiven.
    /// Absent in checkpoints written before quarantine existed.
    quarantined: Vec<(Day, Day)>,
}

impl Default for UnresponsiveFilter {
    fn default() -> UnresponsiveFilter {
        UnresponsiveFilter { input: vec![], clocks: vec![], window: 30, quarantined: vec![] }
    }
}

impl UnresponsiveFilter {
    /// Creates the filter with the paper's 30-day window.
    pub fn new() -> UnresponsiveFilter {
        UnresponsiveFilter::default()
    }

    /// Admits a batch of addresses, in any order and with repeats, to the
    /// input and starts their clocks on `day`. Returns how many were new:
    /// an address already admitted, active or dropped, keeps its clock or
    /// its lack of one. The batch is sorted, what the input holds is
    /// dropped from it in one galloping walk, and the rest is merged into
    /// both columns in place, back to front.
    pub fn register(&mut self, mut addrs: Vec<Addr>, day: Day) -> usize {
        addrs.sort_unstable();
        addrs.dedup();
        let mut at = 0;
        addrs.retain(|a| {
            at += gallop(&self.input[at..], a);
            self.input.get(at) != Some(a)
        });
        let (mut old, mut new) = (self.input.len(), addrs.len());
        self.input.resize(old + new, Addr(0));
        self.clocks.resize(old + new, None);
        // Back to front: the old entries above the largest address left (found
        // by doubling steps down) move up past all those left; it goes below.
        while new > 0 {
            new -= 1;
            let mut step = 1;
            while step <= old && self.input[old - step] > addrs[new] {
                step *= 2;
            }
            let lo = old.saturating_sub(step);
            let above = lo + self.input[lo..old].partition_point(|k| *k < addrs[new]);
            self.input.copy_within(above..old, above + new + 1);
            self.clocks.copy_within(above..old, above + new + 1);
            self.input[above + new] = addrs[new];
            self.clocks[above + new] = Some(day);
            old = above;
        }
        addrs.len()
    }

    /// Marks a set of addresses responsive on `day`, in one forward walk
    /// of the input: restarts the clock of each active one. An address
    /// never registered, or already dropped, has no clock and gets none.
    pub fn mark_responsive(&mut self, addrs: &AddrSet, day: Day) {
        let mut at = 0;
        for a in addrs.addrs() {
            at += gallop(&self.input[at..], &a);
            if let Some(Some(last)) = self.clocks.get_mut(at).filter(|_| self.input[at] == a) {
                *last = day;
            }
        }
    }

    /// Whether the address is still in the scan rotation.
    pub fn active(&self, addr: Addr) -> bool {
        self.input.binary_search(&addr).is_ok_and(|at| self.clocks[at].is_some())
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
        let quarantined = &self.quarantined;
        let mut dropped = 0;
        for clock in &mut self.clocks {
            let Some(last) = *clock else { continue };
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
            if day.since(last).saturating_sub(credit) >= window {
                *clock = None;
                dropped += 1;
            }
        }
        dropped
    }

    /// Rebuilds a filter from checkpointed parts (the resume path of
    /// [`ServiceState`](crate::ServiceState)): the input, with the clock
    /// of each active address; an input address without one is dropped.
    pub fn restore(
        input: impl IntoIterator<Item = Addr>,
        active: impl IntoIterator<Item = (Addr, Day)>,
        window: u32,
        quarantined: Vec<(Day, Day)>,
    ) -> UnresponsiveFilter {
        let mut entries: Vec<(Addr, Option<Day>)> = active
            .into_iter()
            .map(|(a, day)| (a, Some(day)))
            .chain(input.into_iter().map(|a| (a, None)))
            .collect();
        // Stable, so an active address's clock comes before its input
        // entry and is the one the dedup keeps.
        entries.sort_by_key(|(a, _)| *a);
        entries.dedup_by_key(|(a, _)| *a);
        let (input, clocks) = entries.into_iter().unzip();
        UnresponsiveFilter { input, clocks, window, quarantined }
    }

    /// Every address ever admitted, active or dropped, ascending.
    pub fn input(&self) -> &[Addr] {
        &self.input
    }

    /// Active scan targets, ascending.
    pub fn active_targets(&self) -> impl Iterator<Item = Addr> + '_ {
        self.active_entries().map(|(a, _)| a)
    }

    /// Active addresses with the day they last answered, ascending
    /// (checkpoint capture).
    pub fn active_entries(&self) -> impl Iterator<Item = (Addr, Day)> + '_ {
        self.input.iter().zip(&self.clocks).filter_map(|(a, clock)| clock.map(|day| (*a, day)))
    }

    /// The permanently dropped pool (Sec. 6's re-scan source): the input
    /// without a clock, built on each call.
    pub fn dropped_pool(&self) -> AddrSet {
        self.input.iter().zip(&self.clocks).filter_map(|(a, c)| c.is_none().then_some(*a)).collect()
    }
}

/// How many of the ascending `sorted` lie below `x`: doubling steps from the
/// front, then a binary search, so skipping `k` entries costs O(log k).
fn gallop(sorted: &[Addr], x: &Addr) -> usize {
    let mut end = 1;
    while end < sorted.len() && sorted[end] < *x {
        end *= 2;
    }
    sorted[..end.min(sorted.len())].partition_point(|k| k < x)
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

    fn set(addrs: &[&str]) -> AddrSet {
        addrs.iter().map(|s| a(s)).collect()
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
        f.register(vec![a("::1")], Day(0));
        f.register(vec![a("::2")], Day(0));
        f.mark_responsive(&set(&["::1"]), Day(20));
        assert_eq!(f.sweep(Day(29)), 0, "nothing out of window yet");
        // ::2 has been silent since day 0.
        assert_eq!(f.sweep(Day(30)), 1);
        assert!(f.active(a("::1")));
        assert!(!f.active(a("::2")));
        assert!(f.dropped_pool().contains_addr(a("::2")));
        // Dropped addresses never re-enter.
        f.register(vec![a("::2")], Day(31));
        f.mark_responsive(&set(&["::2"]), Day(31));
        assert!(!f.active(a("::2")), "never re-tested after exclusion");
    }

    #[test]
    fn an_address_the_input_never_admitted_gets_no_clock() {
        let mut f = UnresponsiveFilter::new();
        f.register(vec![a("::1")], Day(0));
        f.mark_responsive(&set(&["::9"]), Day(5));
        assert!(!f.active(a("::9")));
        assert_eq!(f.active_targets().collect::<Vec<_>>(), vec![a("::1")]);
        // It never ages out either: it was never in the rotation.
        assert_eq!(f.sweep(Day(40)), 1);
        assert!(!f.dropped_pool().contains_addr(a("::9")));
    }

    #[test]
    fn register_does_not_reset_clock() {
        let mut f = UnresponsiveFilter::new();
        f.register(vec![a("::1")], Day(0));
        f.register(vec![a("::1")], Day(25));
        assert_eq!(f.sweep(Day(31)), 1, "re-registration must not refresh");
    }

    #[test]
    fn quarantine_defers_eviction_by_exactly_the_window() {
        let mut f = UnresponsiveFilter::new();
        f.register(vec![a("::1")], Day(0));
        // A 10-day outage: days 20..30 are quarantined.
        f.quarantine(Day(20), Day(30));
        assert_eq!(f.sweep(Day(30)), 0, "30 silent days minus 10 forgiven");
        assert_eq!(f.sweep(Day(39)), 0, "still 29 effective silent days");
        assert_eq!(f.sweep(Day(40)), 1, "eviction deferred, not cancelled");
    }

    #[test]
    fn quarantine_outside_silence_interval_grants_nothing() {
        let mut f = UnresponsiveFilter::new();
        f.register(vec![a("::1")], Day(0));
        f.mark_responsive(&set(&["::1"]), Day(10));
        // Window entirely before the address went silent.
        f.quarantine(Day(3), Day(8));
        assert_eq!(f.sweep(Day(40)), 1, "credit only for silent days");
    }

    #[test]
    fn quarantine_windows_accumulate_and_empty_windows_are_ignored() {
        let mut f = UnresponsiveFilter::new();
        f.register(vec![a("::1")], Day(0));
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
                let roll = rng.next_bounded(10);
                // A few pool addresses, repeats and known ones included.
                let mut draw = |most: u64| -> Vec<Addr> {
                    let n = rng.next_bounded(most + 1);
                    (0..n).map(|_| pool[rng.next_bounded(pool.len() as u64) as usize]).collect()
                };
                let what = match roll {
                    0..=3 => {
                        let batch = draw(4);
                        revisits += batch.iter().filter(|a| model.dropped.contains(a)).count();
                        let got = f.register(batch.clone(), day);
                        let expected = batch.iter().filter(|a| model.register(**a, day)).count();
                        assert_eq!(got, expected, "case {case} step {step}");
                        "register"
                    }
                    4..=6 => {
                        let marked = draw(3);
                        f.mark_responsive(&marked.iter().copied().collect(), day);
                        for a in marked {
                            model.mark_responsive(a, day);
                        }
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
                assert!(f.input().is_sorted_by(|x, y| x < y), "{at}: input not strictly ascending");
                let input: Vec<Addr> = model.input.iter().copied().collect();
                assert_eq!(f.input(), input, "{at}: input");
                assert_eq!(f.quarantined(), model.quarantined, "{at}: quarantine");
            }
        }
        assert!(revisits >= 100, "{revisits} dropped addresses offered again");
    }

    #[test]
    fn restore_round_trips_filter_parts() {
        let mut f = UnresponsiveFilter::new();
        f.register(vec![a("::1")], Day(0));
        f.register(vec![a("::2")], Day(5));
        f.quarantine(Day(7), Day(9));
        f.sweep(Day(32)); // drops ::1 (32 silent − 2 forgiven ≥ 30)
        assert!(!f.active(a("::1")));
        let g = UnresponsiveFilter::restore(
            f.input().iter().copied(),
            f.active_entries(),
            f.window,
            f.quarantined().to_vec(),
        );
        assert!(g.active(a("::2")));
        assert!(!g.active(a("::1")));
        assert!(g.dropped_pool().contains_addr(a("::1")));
        assert_eq!(g.quarantined(), f.quarantined());
    }
}
