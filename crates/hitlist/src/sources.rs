//! The IPv6 Hitlist's input sources (Fig. 1, left).
//!
//! The service accumulates candidates from domain resolutions (AAAA), CT
//! logs, RIPE-Atlas-style probe data, a one-time rDNS import, and its own
//! traceroutes. Each source is a pure function of the simulated Internet
//! and the day, so the accumulation is replayable. The per-source flavours
//! matter for the paper's bias findings:
//!
//! * `domains_aaaa` / `ct_logs` pull rotating CDN load-balancer addresses
//!   → the Amazon-style aliased input mass (32 % of the raw input).
//! * `ripe_atlas` observes the CPE fleets' *current* addresses → rotating
//!   EUI-64 accumulation (ANTEL, DTAG).
//! * `rdns_import` fires once (early 2019) and its addresses decay → the
//!   2019→2020 dip of Table 1.
//! * `passive_visible` is the small public sample of dense server
//!   deployments (the seeds TGAs later extrapolate).
//!
//! A service round ingests through [`for_each_due`], which streams what
//! is due on the day into a sink and computes nothing else. The zone is
//! the expensive source and the service *samples* it once a week: its
//! answers move faster than that (cloud load balancers rotate on
//! `day / 4`, narrow prefixes on `day / 7`, see `DnsZones::resolve`), so
//! which rotation slots the input accumulates depends on the days the
//! service walks the zone, and the caller decides when a walk is due. A
//! walk goes through the simulator's index of the zone's distinct answers
//! and costs per answer, not per domain. The per-source functions below
//! return one source's candidates on their own, one per domain for the
//! zone-backed two (bias analysis, and the eager reference the streamed
//! ingestion is tested against).

use sixdust_addr::{prf, Addr};
use sixdust_net::{events, Day, Internet};
use sixdust_telemetry::TraceJournal;

/// The AAAA answer of every `step`-th domain of the zone file.
fn zone_answers(net: &Internet, day: Day, step: usize) -> impl Iterator<Item = Addr> + '_ {
    let zones = net.zones();
    let pop = net.population();
    (0..zones.total_domains()).step_by(step).map(move |d| zones.resolve(pop, d, day).0)
}

/// AAAA resolutions of the full zone file, one answer per domain.
pub fn domains_aaaa(net: &Internet, day: Day) -> Vec<Addr> {
    zone_answers(net, day, 1).collect()
}

/// CT-log-derived domains: a third of the namespace, same resolution path
/// — so always a subset of [`domains_aaaa`] on the same day, and a round
/// that walks the zone learns nothing more from walking this slice again.
pub fn ct_logs(net: &Internet, day: Day) -> Vec<Addr> {
    zone_answers(net, day, 3).collect()
}

fn atlas_addrs(net: &Internet, day: Day) -> impl Iterator<Item = Addr> + '_ {
    let pop = net.population();
    let cpe = pop.cpe_fleets().iter().flat_map(move |fleet| fleet.current_addrs(day));
    let routers = pop
        .router_pools()
        .iter()
        .filter(|pool| pool.rotation_days == 0)
        .flat_map(move |pool| pool.addrs_at(day).take(16));
    cpe.chain(routers)
}

/// RIPE-Atlas-style source: the current addresses of every CPE fleet plus
/// a sample of stable router interfaces.
pub fn ripe_atlas(net: &Internet, day: Day) -> Vec<Addr> {
    atlas_addrs(net, day).collect()
}

/// Feeds `sink` the live addresses on `day` that `picks` selects, hidden
/// dense clusters excluded (they were never public): what a sampling feed
/// sees of the population. The pick and the dense check come before a
/// member's liveness, so the walk draws liveness for the picked few only.
fn sample_population(
    net: &Internet,
    day: Day,
    picks: impl Fn(Addr) -> bool,
    mut sink: impl FnMut(Addr),
) {
    let pop = net.population();
    pop.for_each_responsive(day, |a| picks(a) && !pop.is_dense_member(a), |a, _, _| sink(a));
}

fn collect_sample(net: &Internet, day: Day, picks: impl Fn(Addr) -> bool) -> Vec<Addr> {
    let mut out = Vec::new();
    sample_population(net, day, picks, |a| out.push(a));
    out
}

fn rdns_picks(a: Addr) -> bool {
    prf::chance(0xD45, a.0, 0x1, 3, 10)
}

fn launch_picks(a: Addr) -> bool {
    prf::chance(0xB007, a.0, 0, 11, 20)
}

fn drip_picks(a: Addr, day: Day) -> bool {
    prf::chance(0xD819, a.0, u64::from(day.0 / 7), 3, 100)
}

/// One-time rDNS import (fires only on the configured day): a broad sample
/// of the then-current server and flaky populations.
pub fn rdns_import(net: &Internet, day: Day) -> Vec<Addr> {
    if day != events::RDNS_IMPORT {
        return Vec::new();
    }
    collect_sample(net, day, rdns_picks)
}

/// The slow discovery drip: the union of many minor feeds (peer lists,
/// software telemetry, additional traceroute campaigns…) surfaces a small
/// weekly sample of the live population, which is how newly activated
/// deployments keep entering the hitlist between the big sources.
pub fn discovery_drip(net: &Internet, day: Day) -> Vec<Addr> {
    collect_sample(net, day, |a| drip_picks(a, day))
}

/// The service's launch import: the 2018 hitlist already started from a
/// 90 M-address corpus, so day 0 sees a bulk sample of the then-live
/// population (hidden dense clusters excluded — they were never public).
pub fn initial_import(net: &Internet, day: Day) -> Vec<Addr> {
    if day != Day(0) {
        return Vec::new();
    }
    collect_sample(net, day, launch_picks)
}

/// The public sample of dense deployments (per-AS visibility fractions).
pub fn passive_visible(net: &Internet, day: Day) -> Vec<Addr> {
    net.population().dense_visible(day)
}

/// Streams every candidate that is due on `day` into `sink` and returns
/// how many that was: the zone's AAAA answers when `zone_due` (the CT-log
/// slice is among them), the RIPE-Atlas view, the public dense sample, and
/// — from one walk of the live population — the weekly drip plus, on their
/// days, the launch and rDNS imports. Duplicates included, except the
/// zone's: a walk counts one candidate per domain, as [`domains_aaaa`]
/// would offer, and hands `sink` each distinct answer once
/// ([`Internet::for_each_zone_answer`]).
///
/// With a journal, the zone walk (the first walk's index build included)
/// is a `service.ingest.zone` span and the rest a `service.ingest.feeds`
/// span.
pub fn for_each_due(
    net: &Internet,
    day: Day,
    zone_due: bool,
    tracer: Option<&TraceJournal>,
    mut sink: impl FnMut(Addr),
) -> u64 {
    let mut offered = 0;
    if zone_due {
        let _span = tracer.map(|t| t.span("service.ingest.zone"));
        net.for_each_zone_answer(day, &mut sink);
        offered += net.zones().total_domains();
    }
    let _span = tracer.map(|t| t.span("service.ingest.feeds"));
    let mut counted = |a| {
        offered += 1;
        sink(a);
    };
    atlas_addrs(net, day).for_each(&mut counted);
    passive_visible(net, day).into_iter().for_each(&mut counted);
    let rdns = day == events::RDNS_IMPORT;
    let launch = day == Day(0);
    sample_population(
        net,
        day,
        |a| drip_picks(a, day) || (launch && launch_picks(a)) || (rdns && rdns_picks(a)),
        counted,
    );
    offered
}

#[cfg(test)]
mod tests {
    use super::*;
    use sixdust_net::{FaultConfig, Scale};

    fn net() -> Internet {
        Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless())
    }

    #[test]
    fn domains_resolve_and_rotate() {
        let net = net();
        let a = domains_aaaa(&net, Day(0));
        let b = domains_aaaa(&net, Day(0));
        assert_eq!(a, b, "deterministic");
        assert!(!a.is_empty());
        let later = domains_aaaa(&net, Day(21));
        let fresh: usize = later.iter().filter(|x| !a.contains(x)).count();
        assert!(fresh > 0, "rotating CDN answers accumulate new addresses");
    }

    #[test]
    fn ct_logs_are_a_subset_of_the_zone_walk() {
        let net = net();
        // Days 3 → 4 and 7 → 8 cross a `day / 4` rotation of the cloud
        // answers, 6 → 7 a `day / 7` one.
        for day in [0, 3, 4, 6, 7, 8, 21, 400].map(Day) {
            let zone: std::collections::HashSet<Addr> =
                domains_aaaa(&net, day).into_iter().collect();
            let ct = ct_logs(&net, day);
            assert!(!ct.is_empty());
            assert!(ct.iter().all(|a| zone.contains(a)), "{day:?}");
        }
        let rotated = domains_aaaa(&net, Day(3)) != domains_aaaa(&net, Day(4));
        assert!(rotated, "cloud answers move inside a week");
    }

    #[test]
    fn ripe_atlas_tracks_cpe_rotation() {
        let net = net();
        let a: std::collections::HashSet<Addr> = ripe_atlas(&net, Day(0)).into_iter().collect();
        let b: std::collections::HashSet<Addr> = ripe_atlas(&net, Day(30)).into_iter().collect();
        assert!(!a.is_empty());
        let moved = a.difference(&b).count();
        assert!(moved > 0, "prefix rotation mints new input addresses");
    }

    #[test]
    fn rdns_fires_once() {
        let net = net();
        assert!(rdns_import(&net, Day(0)).is_empty());
        assert!(!rdns_import(&net, events::RDNS_IMPORT).is_empty());
        assert!(rdns_import(&net, events::RDNS_IMPORT.plus(1)).is_empty());
    }

    #[test]
    fn passive_visible_is_a_strict_sample() {
        let net = net();
        let day = Day(600);
        let visible = passive_visible(&net, day);
        assert!(!visible.is_empty());
        // Every visible address is genuinely responsive.
        for a in visible.iter().take(50) {
            assert!(net.population().lookup(*a, day).is_some(), "{a}");
        }
    }

    #[test]
    fn each_feed_samples_the_public_live_population() {
        for mult in [1, 50] {
            let net = Internet::build(Scale::tiny().with_population_mult(mult));
            let pop = net.population();
            for day in [Day(0), events::RDNS_IMPORT, Day(700)] {
                let public: Vec<Addr> = (pop.enumerate_responsive(day).into_iter())
                    .map(|(a, ..)| a)
                    .filter(|&a| !pop.is_dense_member(a))
                    .collect();
                let (launch, rdns) = (day == Day(0), day == events::RDNS_IMPORT);
                let picks: [(&str, &dyn Fn(Addr) -> bool); 4] = [
                    ("drip", &|a| drip_picks(a, day)),
                    ("launch", &launch_picks),
                    ("rdns", &rdns_picks),
                    ("due", &|a| {
                        drip_picks(a, day) || (launch && launch_picks(a)) || (rdns && rdns_picks(a))
                    }),
                ];
                for (feed, pick) in picks {
                    let expected: Vec<Addr> = public.iter().copied().filter(|&a| pick(a)).collect();
                    assert!(!expected.is_empty(), "{feed} on {day:?} at x{mult}");
                    assert_eq!(
                        collect_sample(&net, day, pick),
                        expected,
                        "{feed} on {day:?} at x{mult}"
                    );
                }
            }
        }
    }

    #[test]
    fn drip_rotates_weekly() {
        let net = net();
        let a: std::collections::HashSet<Addr> =
            discovery_drip(&net, Day(700)).into_iter().collect();
        let b: std::collections::HashSet<Addr> =
            discovery_drip(&net, Day(707)).into_iter().collect();
        assert!(!a.is_empty());
        assert!(a != b, "different weekly samples");
    }
}
