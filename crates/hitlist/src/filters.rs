//! The filter chain of the hitlist pipeline (Fig. 1, middle), and the
//! service's one per-address table.
//!
//! In pipeline order: the request-based **blocklist**, the **aliased
//! prefix filter** (the detector's labels), the **GFW cleaning** this
//! paper added, and the **30-day unresponsive filter**. The last owns the
//! input, which never shrinks and holds every address the service learns
//! anything about, so each per-address fact is a column beside it.

use sixdust_addr::{Addr, AddrSet, Prefix, PrefixSet};
use sixdust_net::{Day, ProtoSet};
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

/// The GFW cleaning filter (Sec. 4.2): splits a UDP/53 scan's hits into
/// the clean ones and the injected ones, whose responses carried
/// injection markers (A records answering AAAA queries, or Teredo AAAA
/// records), each in the scan's order.
pub fn gfw_clean(result: &ScanResult) -> (Vec<Addr>, Vec<Addr>) {
    let (mut clean, mut injected) = (Vec::new(), Vec::new());
    for h in &result.hits {
        match h.detail {
            Detail::Dns { injected: true, .. } => injected.push(h.target),
            _ => clean.push(h.target),
        }
    }
    (clean, injected)
}

/// What the service has learned of one input address, in one byte: bits
/// 0–4 are the protocols it has answered in the cleaned view (a
/// [`ProtoSet`]), bit 5 says the GFW filter cleaned an injected answer
/// from it, and bits 6 and 7 are never set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Seen(pub u8);

impl Seen {
    /// Bit 5: the GFW filter cleaned an injected UDP/53 answer.
    pub const GFW_CLEANED: Seen = Seen(1 << 5);

    /// The protocols the address has answered in the cleaned view.
    pub fn protos(self) -> ProtoSet {
        ProtoSet(self.0 & !Seen::GFW_CLEANED.0)
    }

    /// Whether the GFW filter cleaned an injected answer from the address.
    pub fn gfw_cleaned(self) -> bool {
        self.0 & Seen::GFW_CLEANED.0 != 0
    }
}

/// The clock of a dropped address: a day no round reaches.
pub(crate) const DROPPED: Day = Day(u32::MAX);

/// The service's input and the 30-day unresponsive filter over it: drops
/// addresses unresponsive for 30+ days from the scan target list — and,
/// true to the original service, never re-tests them (Sec. 3.1;
/// re-scanning that pool is Sec. 6's "unresponsive addresses" source).
///
/// Three columns side by side: the input ascending; beside each address
/// the day it last answered (or entered the input), a sentinel once it
/// is dropped for good; and its [`Seen`] byte. The dropped pool, the
/// cumulative responders and the GFW-impacted set are views of them.
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
    /// the input), `DROPPED` once dropped.
    clocks: Vec<Day>,
    /// Beside each input address: what the service has learned of it.
    seen: Vec<Seen>,
    /// The cutoff in days.
    pub window: u32,
    /// Half-open `[from, until)` day windows whose silence is forgiven.
    quarantined: Vec<(Day, Day)>,
}

impl Default for UnresponsiveFilter {
    /// The empty filter with the paper's 30-day window.
    fn default() -> UnresponsiveFilter {
        UnresponsiveFilter::restore([], [], 30, vec![])
    }
}

impl UnresponsiveFilter {
    /// Admits a batch of addresses, in any order and with repeats, to the
    /// input and starts their clocks on `day`, with nothing seen. Returns
    /// how many were new: an address already admitted, active or dropped,
    /// keeps its row. The batch is sorted, what the input holds is dropped
    /// from it in one galloping walk, and the rest is merged into the
    /// columns in place, back to front.
    pub fn register(&mut self, mut addrs: Vec<Addr>, day: Day) -> usize {
        addrs.sort_unstable();
        addrs.dedup();
        let mut at = 0;
        addrs.retain(|a| seek(&self.input, &mut at, *a).is_none());
        let (mut old, mut new) = (self.input.len(), addrs.len());
        self.input.resize(old + new, Addr(0));
        self.clocks.resize(old + new, DROPPED);
        self.seen.resize(old + new, Seen::default());
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
            self.seen.copy_within(above..old, above + new + 1);
            self.input[above + new] = addrs[new];
            self.clocks[above + new] = day;
            self.seen[above + new] = Seen::default();
            old = above;
        }
        addrs.len()
    }

    /// Marks a set of addresses responsive on `day`, in one forward walk
    /// of the input: restarts the clock of each active one. An address
    /// never registered, or already dropped, has no clock and gets none.
    pub fn mark_responsive(&mut self, addrs: &AddrSet, day: Day) {
        let mut at = 0;
        for i in addrs.addrs().filter_map(|a| seek(&self.input, &mut at, a)) {
            if self.clocks[i] != DROPPED {
                self.clocks[i] = day;
            }
        }
    }

    /// ORs a byte into the row of each address (ascending), in one forward
    /// walk of the input. An address the input never admitted is passed
    /// over.
    pub fn mark_seen(&mut self, marks: impl IntoIterator<Item = (Addr, Seen)>) {
        let mut at = 0;
        for (a, bits) in marks {
            if let Some(i) = seek(&self.input, &mut at, a) {
                self.seen[i].0 |= bits.0;
            }
        }
    }

    /// How many of `addrs` (ascending) have answered some protocol before,
    /// in one forward walk of the input.
    pub fn count_answered(&self, addrs: impl IntoIterator<Item = Addr>) -> usize {
        let mut at = 0;
        let rows = addrs.into_iter().filter_map(|a| seek(&self.input, &mut at, a));
        rows.filter(|&i| !self.seen[i].protos().is_empty()).count()
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
        for clock in self.clocks.iter_mut().filter(|clock| **clock != DROPPED) {
            let last = *clock;
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
                *clock = DROPPED;
                dropped += 1;
            }
        }
        dropped
    }

    /// Rebuilds a filter from checkpointed parts (the resume path of
    /// [`ServiceState`](crate::ServiceState)): the input ascending with
    /// each address's byte, and the clock of each active address. An
    /// input address without a clock is dropped; a clock outside the
    /// input is passed over.
    pub fn restore(
        rows: impl IntoIterator<Item = (Addr, Seen)>,
        active: impl IntoIterator<Item = (Addr, Day)>,
        window: u32,
        quarantined: Vec<(Day, Day)>,
    ) -> UnresponsiveFilter {
        let (input, seen): (Vec<Addr>, Vec<Seen>) = rows.into_iter().unzip();
        let mut clocks = vec![DROPPED; input.len()];
        let mut active: Vec<(Addr, Day)> = active.into_iter().collect();
        active.sort_unstable();
        let mut at = 0;
        for (a, day) in active {
            if let Some(i) = seek(&input, &mut at, a) {
                clocks[i] = day;
            }
        }
        UnresponsiveFilter { input, clocks, seen, window, quarantined }
    }

    /// Every address ever admitted, active or dropped, ascending.
    pub fn input(&self) -> &[Addr] {
        &self.input
    }

    /// Each input address with its clock (`None` once dropped) and its
    /// byte, ascending.
    pub fn rows(&self) -> impl Iterator<Item = (Addr, Option<Day>, Seen)> + '_ {
        let clocks = self.clocks.iter().map(|&day| (day != DROPPED).then_some(day));
        let rows = self.input.iter().copied().zip(clocks).zip(self.seen.iter().copied());
        rows.map(|((a, clock), seen)| (a, clock, seen))
    }

    /// Active addresses with the day they last answered, ascending
    /// (target selection and checkpoint capture).
    pub fn active_entries(&self) -> impl Iterator<Item = (Addr, Day)> + '_ {
        self.rows().filter_map(|(a, clock, _)| clock.map(|day| (a, day)))
    }

    /// Resident bytes of the byte column.
    pub fn seen_bytes(&self) -> usize {
        std::mem::size_of::<Vec<Seen>>() + self.seen.capacity()
    }
}

/// Where `a` lies in the ascending `sorted`, searched from `*at` on by
/// doubling steps and then a binary search, so that skipping `k` entries
/// costs O(log k). `*at` is left at the first entry not below `a`.
fn seek(sorted: &[Addr], at: &mut usize, a: Addr) -> Option<usize> {
    let rest = &sorted[*at..];
    let mut end = 1;
    while end < rest.len() && rest[end] < a {
        end *= 2;
    }
    *at += rest[..end.min(rest.len())].partition_point(|k| *k < a);
    (sorted.get(*at) == Some(&a)).then_some(*at)
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

    fn active(f: &UnresponsiveFilter, addr: Addr) -> bool {
        f.active_entries().any(|(a, _)| a == addr)
    }

    fn dropped_pool(f: &UnresponsiveFilter) -> AddrSet {
        f.rows().filter_map(|(a, clock, _)| clock.is_none().then_some(a)).collect()
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
        let (clean, injected) = gfw_clean(&dns_result(vec![
            Hit { target: a("2400::1"), detail: Detail::Dns { responses: 3, injected: true } },
            Hit {
                target: a("2001:db8::53"),
                detail: Detail::Dns { responses: 1, injected: false },
            },
        ]));
        assert_eq!(clean, vec![a("2001:db8::53")]);
        assert_eq!(injected, vec![a("2400::1")]);
    }

    #[test]
    fn unresponsive_filter_lifecycle() {
        let mut f = UnresponsiveFilter::default();
        f.register(vec![a("::1")], Day(0));
        f.register(vec![a("::2")], Day(0));
        f.mark_responsive(&set(&["::1"]), Day(20));
        assert_eq!(f.sweep(Day(29)), 0, "nothing out of window yet");
        // ::2 has been silent since day 0.
        assert_eq!(f.sweep(Day(30)), 1);
        assert!(active(&f, a("::1")));
        assert!(!active(&f, a("::2")));
        assert!(dropped_pool(&f).contains_addr(a("::2")));
        // Dropped addresses never re-enter.
        f.register(vec![a("::2")], Day(31));
        f.mark_responsive(&set(&["::2"]), Day(31));
        assert!(!active(&f, a("::2")), "never re-tested after exclusion");
    }

    #[test]
    fn an_address_the_input_never_admitted_gets_no_clock() {
        let mut f = UnresponsiveFilter::default();
        f.register(vec![a("::1")], Day(0));
        f.mark_responsive(&set(&["::9"]), Day(5));
        assert!(!active(&f, a("::9")));
        assert_eq!(f.active_entries().map(|(a, _)| a).collect::<Vec<_>>(), vec![a("::1")]);
        // It never ages out either: it was never in the rotation.
        assert_eq!(f.sweep(Day(40)), 1);
        assert!(!dropped_pool(&f).contains_addr(a("::9")));
    }

    #[test]
    fn register_does_not_reset_clock() {
        let mut f = UnresponsiveFilter::default();
        f.register(vec![a("::1")], Day(0));
        f.register(vec![a("::1")], Day(25));
        assert_eq!(f.sweep(Day(31)), 1, "re-registration must not refresh");
    }

    #[test]
    fn quarantine_defers_eviction_by_exactly_the_window() {
        let mut f = UnresponsiveFilter::default();
        f.register(vec![a("::1")], Day(0));
        // A 10-day outage: days 20..30 are quarantined.
        f.quarantine(Day(20), Day(30));
        assert_eq!(f.sweep(Day(30)), 0, "30 silent days minus 10 forgiven");
        assert_eq!(f.sweep(Day(39)), 0, "still 29 effective silent days");
        assert_eq!(f.sweep(Day(40)), 1, "eviction deferred, not cancelled");
    }

    #[test]
    fn quarantine_outside_silence_interval_grants_nothing() {
        let mut f = UnresponsiveFilter::default();
        f.register(vec![a("::1")], Day(0));
        f.mark_responsive(&set(&["::1"]), Day(10));
        // Window entirely before the address went silent.
        f.quarantine(Day(3), Day(8));
        assert_eq!(f.sweep(Day(40)), 1, "credit only for silent days");
    }

    #[test]
    fn quarantine_windows_accumulate_and_empty_windows_are_ignored() {
        let mut f = UnresponsiveFilter::default();
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
    /// With, beside them, the byte of each input address.
    #[derive(Default)]
    struct ThreeTables {
        input: BTreeSet<Addr>,
        last_seen: BTreeMap<Addr, Day>,
        dropped: BTreeSet<Addr>,
        quarantined: Vec<(Day, Day)>,
        seen: BTreeMap<Addr, u8>,
    }

    impl ThreeTables {
        /// The caller's `input.insert`, then the old `register`.
        fn register(&mut self, addr: Addr, day: Day) -> bool {
            let new = self.input.insert(addr);
            if new && !self.dropped.contains(&addr) {
                self.last_seen.entry(addr).or_insert(day);
            }
            if new {
                self.seen.insert(addr, 0);
            }
            new
        }

        fn mark_seen(&mut self, addr: Addr, bits: u8) {
            if let Some(byte) = self.seen.get_mut(&addr) {
                *byte |= bits;
            }
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
        let (mut revisits, mut below_marked, mut gfw_marks) = (0, 0, 0);
        for case in 0..96 {
            // A dozen addresses over three /64s, so admissions repeat and
            // dropped addresses are offered again.
            let pool: Vec<Addr> =
                (0..12u128).map(|i| Addr(((0x2001_0db8_0000_0000 + i % 3) << 64) | i)).collect();
            let window = 2 + rng.next_bounded(8) as u32;
            let mut f = UnresponsiveFilter { window, ..Default::default() };
            let mut model = ThreeTables::default();
            let mut day = Day(0);
            for step in 0..60 {
                day = day.plus(rng.next_bounded(3) as u32);
                let roll = rng.next_bounded(12);
                // A few pool addresses, repeats and known ones included.
                let mut draw = |most: u64| -> Vec<Addr> {
                    let n = rng.next_bounded(most + 1);
                    (0..n).map(|_| pool[rng.next_bounded(pool.len() as u64) as usize]).collect()
                };
                let what = match roll {
                    0..=3 => {
                        let batch = draw(4);
                        revisits += batch.iter().filter(|a| model.dropped.contains(a)).count();
                        let lowest_marked =
                            model.seen.iter().find(|(_, b)| **b != 0).map(|(a, _)| *a);
                        below_marked += batch
                            .iter()
                            .filter(|a| {
                                !model.input.contains(a) && lowest_marked.is_some_and(|m| **a < m)
                            })
                            .count();
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
                    8 | 9 => {
                        // Protocols, or the GFW bit, ORed in ascending.
                        let mut marked = draw(4);
                        marked.sort_unstable();
                        let bits = match rng.next_bounded(3) {
                            0 => Seen::GFW_CLEANED.0,
                            _ => 1 + rng.next_bounded(0x1f) as u8,
                        };
                        gfw_marks += usize::from(bits == Seen::GFW_CLEANED.0);
                        let answered = marked
                            .iter()
                            .filter(|a| model.seen.get(a).is_some_and(|b| b & 0x1f != 0))
                            .count();
                        assert_eq!(f.count_answered(marked.iter().copied()), answered);
                        f.mark_seen(marked.iter().map(|a| (*a, Seen(bits))));
                        for a in marked {
                            model.mark_seen(a, bits);
                        }
                        "mark_seen"
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
                    assert_eq!(active(&f, *a), model.last_seen.contains_key(a), "{at}: {a}");
                }
                let entries: BTreeMap<Addr, Day> = f.active_entries().collect();
                assert_eq!(entries, model.last_seen, "{at}: clocks");
                let dropped: AddrSet = model.dropped.iter().copied().collect();
                assert_eq!(dropped_pool(&f), dropped, "{at}: dropped pool");
                assert!(f.input().is_sorted_by(|x, y| x < y), "{at}: input not strictly ascending");
                let input: Vec<Addr> = model.input.iter().copied().collect();
                assert_eq!(f.input(), input, "{at}: input");
                assert_eq!(f.quarantined(), model.quarantined, "{at}: quarantine");
                let rows: BTreeMap<Addr, u8> = f.rows().map(|(a, _, seen)| (a, seen.0)).collect();
                for a in &pool {
                    assert_eq!(rows.get(a), model.seen.get(a), "{at}: the byte of {a}");
                }
                let g = UnresponsiveFilter::restore(
                    f.rows().map(|(a, _, seen)| (a, seen)),
                    f.active_entries(),
                    f.window,
                    f.quarantined().to_vec(),
                );
                assert!(g.rows().eq(f.rows()), "{at}: restored");
            }
        }
        assert!(revisits >= 100, "{revisits} dropped addresses offered again");
        assert!(below_marked >= 100, "{below_marked} registered below a marked row");
        assert!(gfw_marks >= 100, "{gfw_marks} GFW marks");
    }

    #[test]
    fn restore_round_trips_filter_parts() {
        let mut f = UnresponsiveFilter::default();
        f.register(vec![a("::1")], Day(0));
        f.register(vec![a("::2")], Day(5));
        f.quarantine(Day(7), Day(9));
        f.sweep(Day(32)); // drops ::1 (32 silent − 2 forgiven ≥ 30)
        assert!(!active(&f, a("::1")));
        f.mark_seen([(a("::1"), Seen(0b11)), (a("::2"), Seen::GFW_CLEANED)]);
        let g = UnresponsiveFilter::restore(
            f.rows().map(|(a, _, seen)| (a, seen)),
            f.active_entries(),
            f.window,
            f.quarantined().to_vec(),
        );
        assert!(g.rows().map(|(.., seen)| seen).eq([Seen(0b11), Seen::GFW_CLEANED]));
        assert!(active(&g, a("::2")));
        assert!(!active(&g, a("::1")));
        assert!(dropped_pool(&g).contains_addr(a("::1")));
        assert_eq!(g.quarantined(), f.quarantined());
    }
}
