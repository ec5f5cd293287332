//! The filter chain of the hitlist pipeline (Fig. 1, middle).
//!
//! In pipeline order: the request-based **blocklist**, the **aliased
//! prefix filter** (fed by the detector), the **GFW filter** this paper
//! added, and the **30-day unresponsive filter**. Each is a small, testable
//! unit; the service composes them.

use sixdust_addr::{Addr, AddrHashMap, AddrHashSet, Prefix, PrefixSet};
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
    impacted: AddrHashSet,
}

impl GfwFilter {
    /// Creates the filter.
    pub fn new() -> GfwFilter {
        GfwFilter::default()
    }

    /// Rebuilds the filter from a checkpointed impacted set.
    pub fn restore(impacted: impl IntoIterator<Item = Addr>) -> GfwFilter {
        GfwFilter { impacted: impacted.into_iter().collect() }
    }

    /// Scans a UDP/53 result: records injected-flagged targets and returns
    /// the cleaned hit list.
    pub fn clean(&mut self, result: &ScanResult) -> Vec<Addr> {
        let mut clean = Vec::new();
        for o in &result.outcomes {
            match &o.detail {
                Detail::Dns { injected: true, .. } => {
                    self.impacted.insert(o.target);
                }
                _ if o.success => clean.push(o.target),
                _ => {}
            }
        }
        clean
    }

    /// Every address ever seen with an injected response.
    pub fn impacted(&self) -> &AddrHashSet {
        &self.impacted
    }
}

/// The 30-day unresponsive filter: drops addresses unresponsive for 30+
/// days from the scan target list — and, true to the original service,
/// never re-tests them (Sec. 3.1; re-scanning that pool is Sec. 6's
/// "unresponsive addresses" source).
///
/// Days inside **quarantined** windows (degraded rounds: heavy loss or an
/// outage at the vantage) do not count toward an address's silence, so a
/// multi-round outage cannot mass-evict the pool: eviction is deferred by
/// exactly the quarantined days, not skipped.
#[derive(Debug, Clone)]
pub struct UnresponsiveFilter {
    /// Day an address last answered any protocol (or entered the input).
    last_seen: AddrHashMap<Day>,
    /// Addresses permanently dropped.
    dropped: AddrHashSet,
    /// The cutoff in days.
    pub window: u32,
    /// Half-open `[from, until)` day windows whose silence is forgiven.
    /// Absent in checkpoints written before quarantine existed.
    quarantined: Vec<(Day, Day)>,
}

impl Default for UnresponsiveFilter {
    fn default() -> UnresponsiveFilter {
        UnresponsiveFilter {
            last_seen: AddrHashMap::default(),
            dropped: AddrHashSet::default(),
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

    /// Registers a new input address (its clock starts now).
    pub fn register(&mut self, addr: Addr, day: Day) {
        if !self.dropped.contains(&addr) {
            self.last_seen.entry(addr).or_insert(day);
        }
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
    /// quarantined days) are permanently dropped. Returns how many were
    /// dropped this sweep.
    pub fn sweep(&mut self, day: Day) -> usize {
        let window = self.window;
        let mut dropped_now = Vec::new();
        let quarantined = std::mem::take(&mut self.quarantined);
        self.last_seen.retain(|addr, last| {
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
            if day.since(*last).saturating_sub(credit) >= window {
                dropped_now.push(*addr);
                false
            } else {
                true
            }
        });
        self.quarantined = quarantined;
        let n = dropped_now.len();
        self.dropped.extend(dropped_now);
        n
    }

    /// Rebuilds a filter from checkpointed parts (the resume path of
    /// [`ServiceState`](crate::ServiceState)).
    pub fn restore(
        active: impl IntoIterator<Item = (Addr, Day)>,
        dropped: impl IntoIterator<Item = Addr>,
        window: u32,
        quarantined: Vec<(Day, Day)>,
    ) -> UnresponsiveFilter {
        UnresponsiveFilter {
            last_seen: active.into_iter().collect(),
            dropped: dropped.into_iter().collect(),
            window,
            quarantined,
        }
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

    /// The permanently dropped pool (Sec. 6's re-scan source).
    pub fn dropped_pool(&self) -> &AddrHashSet {
        &self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sixdust_net::Protocol;
    use sixdust_scan::{ScanOutcome, ScanStats};

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

    fn dns_result(outcomes: Vec<ScanOutcome>) -> ScanResult {
        ScanResult { protocol: Protocol::Udp53, day: Day(1), outcomes, stats: ScanStats::default() }
    }

    #[test]
    fn gfw_filter_splits_injected() {
        let mut f = GfwFilter::new();
        let clean = f.clean(&dns_result(vec![
            ScanOutcome {
                target: a("2400::1"),
                success: true,
                detail: Detail::Dns { responses: 3, injected: true },
            },
            ScanOutcome {
                target: a("2001:db8::53"),
                success: true,
                detail: Detail::Dns { responses: 1, injected: false },
            },
            ScanOutcome { target: a("2001:db8::99"), success: false, detail: Detail::Silent },
        ]));
        assert_eq!(clean, vec![a("2001:db8::53")]);
        assert!(f.impacted().contains(&a("2400::1")));
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
        assert!(f.dropped_pool().contains(&a("::2")));
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
        assert!(!f.dropped_pool().contains(&a("::9")));
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
            f.dropped_pool().iter().copied(),
            f.window,
            f.quarantined().to_vec(),
        );
        assert!(g.active(a("::2")));
        assert!(!g.active(a("::1")));
        assert!(g.dropped_pool().contains(&a("::1")));
        assert_eq!(g.quarantined(), f.quarantined());
    }
}
