//! Property tests for the alias toolkit: seeded loops, 32 cases each.

use std::sync::OnceLock;

use sixdust_addr::prf::PrfStream;
use sixdust_addr::{Addr, Prefix};
use sixdust_alias::{
    candidates, minimal_cover, too_big_trick, AliasDetector, DetectorConfig, TbtOutcome,
};
use sixdust_net::{Day, FaultConfig, Internet, Scale};

const CASES: u64 = 32;

fn stream(property: u64, case: u64) -> PrfStream {
    PrfStream::new(0xA11A5, u128::from(case), property)
}

fn wide(rng: &mut PrfStream) -> u128 {
    u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64())
}

fn net() -> &'static Internet {
    static NET: OnceLock<Internet> = OnceLock::new();
    NET.get_or_init(|| Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless()))
}

#[test]
fn minimal_cover_is_minimal_and_covering() {
    for case in 0..CASES {
        let rng = &mut stream(1, case);
        // Prefixes of 8..=124 bits, half of them under one /16 so that
        // covering relations actually occur.
        let base = wide(rng) & !(u128::MAX >> 16);
        let prefixes: Vec<Prefix> = (0..1 + rng.next_bounded(39))
            .map(|i| {
                let bits = if i % 2 == 0 { base | wide(rng) >> 16 } else { wide(rng) };
                Prefix::new(Addr(bits), 8 + rng.next_bounded(117) as u8)
            })
            .collect();
        let cover = minimal_cover(&prefixes);
        // 1. Every input prefix is covered by some cover element.
        for p in &prefixes {
            assert!(cover.iter().any(|c| c.covers(*p)), "{p} uncovered");
        }
        // 2. No cover element covers another.
        for (i, a) in cover.iter().enumerate() {
            for (j, b) in cover.iter().enumerate() {
                assert!(i == j || !a.covers(*b), "{a} covers {b}");
            }
        }
        // 3. Every cover element came from the input.
        for c in &cover {
            assert!(prefixes.contains(c));
        }
    }
}

#[test]
fn candidate_classes_sound() {
    for case in 0..CASES {
        let rng = &mut stream(2, case);
        // Build an input with known clustering, then verify every /64 of
        // every input address is a candidate and the >=100 rule holds.
        let per_base = 1 + rng.next_bounded(149) as u128;
        let mut input = Vec::new();
        for _ in 0..1 + rng.next_bounded(5) {
            let net64 = (0x2001_0db8_0000_0000u128 | u128::from(rng.next_u64() & 0xffff)) << 64;
            input.extend((0..per_base).map(|i| Addr(net64 | i)));
        }
        let cands = candidates(net(), &input, 100);
        for a in &input {
            assert!(cands.contains(&Prefix::new(*a, 64)), "missing /64 of {a}");
        }
        // Long-prefix candidates only where a cluster really has >=100.
        for c in cands.iter().filter(|c| c.len() > 64) {
            let n = input.iter().filter(|a| c.contains(**a)).count();
            assert!(n >= 100, "{c} has only {n} input addrs");
        }
    }
}

#[test]
fn detector_never_labels_dark_prefixes() {
    for case in 0..CASES {
        let rng = &mut stream(3, case);
        // A prefix in unallocated space can never be fully responsive.
        let p =
            Prefix::new(Addr(0x3fff_0000_0000_0000_0000_0000_0000_0000u128 | (wide(rng) >> 4)), 64);
        let mut det = AliasDetector::new(DetectorConfig::default());
        det.run_round(net(), &[p], Day(rng.next_bounded(1376) as u32));
        assert!(!det.aliased().contains_exact(p));
    }
}

#[test]
fn detector_merge_is_monotone() {
    for case in 0..CASES {
        // Labels can only accumulate inside the merge window.
        let day = Day(stream(4, case).next_bounded(1300) as u32);
        let truth: Vec<Prefix> =
            net().population().aliased_groups(day).map(|g| g.prefix).take(20).collect();
        if truth.is_empty() {
            continue;
        }
        let mut det = AliasDetector::new(DetectorConfig::default());
        det.run_round(net(), &truth, day);
        let after_one = det.aliased().len();
        det.run_round(net(), &truth, day.plus(1));
        assert!(det.aliased().len() >= after_one);
    }
}

#[test]
fn tbt_outcomes_are_exhaustive_and_stable() {
    for case in 0..CASES {
        let rng = &mut stream(5, case);
        let day = Day(200 + rng.next_bounded(1100) as u32);
        let groups: Vec<Prefix> = net()
            .population()
            .aliased_groups(day)
            .filter(|g| g.protos.contains(sixdust_net::Protocol::Icmp))
            .map(|g| g.prefix)
            .collect();
        if groups.is_empty() {
            continue;
        }
        let p = groups[rng.next_bounded(groups.len() as u64) as usize];
        net().reset_state();
        let a = too_big_trick(net(), p, day, 7);
        net().reset_state();
        let b = too_big_trick(net(), p, day, 7);
        assert_eq!(a.outcome, b.outcome, "TBT must be reproducible");
        match a.outcome {
            TbtOutcome::SharedPartial(n) => assert!((1..=6).contains(&n)),
            TbtOutcome::SharedAll | TbtOutcome::SharedNone | TbtOutcome::Unsuitable => {}
        }
    }
}
