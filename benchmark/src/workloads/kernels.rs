//! Kernel replays: a layer's public functions called on inputs captured
//! from the workload that is being traced, each sampled for a fixed
//! budget of host time and reported as a median.

use std::hint::black_box;
use std::time::Duration;

use sixdust_addr::{prf, Addr, AddrSet, PrefixSet};
use sixdust_alias::{candidates, AliasDetector, DetectorConfig};
use sixdust_net::{Day, Internet, ProbeKind, Protocol, Scale};
use sixdust_scan::engine::build_probe_bytes;
use sixdust_scan::{scan_segment, scan_with, CyclicPermutation, ScanConfig};
use sixdust_serve::codec::{apply_delta, decode_full, encode_delta, encode_full};
use sixdust_telemetry::{Counter, Histogram, SpanTimer};
use sixdust_wire::Packet;

use crate::harness::{ns_per_elem, time_call, Layers};
use crate::spec::THREADS;

/// `addr`: the set algebra on two of the workload's own sets, and the
/// PRF every seeded decision in the system draws from.
pub fn addr_sets(layers: &mut Layers, budget: Duration, seed: u64, a: &AddrSet, b: &AddrSet) {
    // The members of `a` in a seeded order: what ingestion hands
    // `from_unsorted`.
    let mut shuffled: Vec<u128> = a.to_vec();
    shuffled.sort_by_key(|&v| prf::prf_u128(seed, v, 0x5e7));
    let both = a.len() + b.len();
    layers.set(
        "addr.from_unsorted_ns_per_elem",
        time_call(budget, || shuffled.clone(), |raw| AddrSet::from_unsorted(raw).len()) * 1e9
            / a.len().max(1) as f64,
    );
    layers.set(
        "addr.union_ns_per_elem",
        time_call(
            budget,
            || a.clone(),
            |mut set| {
                set.union_in_place(b);
                set.len()
            },
        ) * 1e9
            / both.max(1) as f64,
    );
    layers.set(
        "addr.intersect_count_ns_per_elem",
        ns_per_elem(budget, both, || black_box(a).intersect_count(black_box(b))),
    );
    layers.set(
        "addr.diff_count_ns_per_elem",
        ns_per_elem(budget, both, || black_box(a).diff_count(black_box(b))),
    );
    layers.set(
        "addr.iter_ns_per_elem",
        ns_per_elem(budget, a.len(), || black_box(a).iter().fold(0u64, |acc, v| acc ^ v as u64)),
    );
    layers.set("addr.mem_bytes_per_addr", a.mem_bytes() as f64 / a.len().max(1) as f64);
    layers.set(
        "addr.prf_ns",
        ns_per_elem(budget, a.len(), || {
            black_box(a).iter().fold(0u64, |acc, v| acc ^ prf::prf_u128(seed, v, 0x42))
        }),
    );
}

/// `addr.trie_lookup_ns`: the covering-prefix query target selection
/// asks of the aliased-prefix set, once per candidate target.
pub fn trie_lookup(layers: &mut Layers, budget: Duration, aliased: &PrefixSet, targets: &[Addr]) {
    layers.set(
        "addr.trie_lookup_ns",
        ns_per_elem(budget, targets.len(), || {
            targets.iter().filter(|a| black_box(aliased).covers_addr(**a)).count()
        }),
    );
}

/// `wire` and `net`: probe packets built and parsed for the round's
/// targets, semantic probes toward responsive and dark addresses, and
/// the wire-level path. The round kernels use the semantic path only;
/// the wire numbers are here so that a change to them is visible.
pub fn wire_and_net(
    layers: &mut Layers,
    budget: Duration,
    scale: Scale,
    net: &Internet,
    day: Day,
    targets: &[Addr],
    responsive: &AddrSet,
) {
    let src = net.source_addr();
    let sample: Vec<Addr> = targets.iter().copied().take(2_000).collect();
    let build = |i: usize, dst: Addr| {
        build_probe_bytes(
            Protocol::ALL[i % Protocol::ALL.len()],
            src,
            dst,
            "www.google.com",
            i as u32,
        )
    };
    layers.set(
        "wire.build_probe_ns",
        ns_per_elem(budget, sample.len(), || {
            sample.iter().enumerate().map(|(i, dst)| build(i, *dst).len()).sum::<usize>()
        }),
    );
    let packets: Vec<Vec<u8>> = sample.iter().enumerate().map(|(i, dst)| build(i, *dst)).collect();
    layers.set(
        "wire.parse_ns",
        ns_per_elem(budget, packets.len(), || {
            packets.iter().filter(|bytes| Packet::parse(black_box(bytes)).is_ok()).count()
        }),
    );

    layers.set("net.build_s", time_call(budget, || scale, |s| Internet::build(s).registry().len()));
    let probe = ProbeKind::IcmpEcho { size: 8 };
    let alive: Vec<Addr> = responsive.addrs().take(2_000).collect();
    layers.set(
        "net.probe_hit_ns",
        ns_per_elem(budget, alive.len(), || {
            alive.iter().map(|a| net.probe(black_box(*a), &probe, day).len()).sum::<usize>()
        }),
    );
    // 3fff::/20 is documentation space: routed nowhere in the simulation.
    let dark: Vec<Addr> =
        (0..2_000u128).map(|i| Addr((0x3fff_u128 << 112) | (i * 0x1_0001))).collect();
    layers.set(
        "net.probe_dark_ns",
        ns_per_elem(budget, dark.len(), || {
            dark.iter().map(|a| net.probe(black_box(*a), &probe, day).len()).sum::<usize>()
        }),
    );
    let wire_sample = &packets[..packets.len().min(400)];
    layers.set(
        "net.send_bytes_ns",
        ns_per_elem(budget, wire_sample.len(), || {
            wire_sample
                .iter()
                .map(|bytes| net.send_bytes(black_box(bytes), day).len())
                .sum::<usize>()
        }),
    );
}

/// `scan`: the permutation walk, one protocol scan of the round's target
/// list on one thread (`scan_segment`) and on the benchmark's thread
/// budget (`scan_with`).
pub fn scan(
    layers: &mut Layers,
    budget: Duration,
    net: &Internet,
    day: Day,
    config: &ScanConfig,
    targets: &[Addr],
) {
    let n = targets.len() as u64;
    let perm = CyclicPermutation::new(n, config.seed ^ u64::from(day.0));
    let cycle = perm.cycle_len();
    layers.set(
        "scan.permute_ns_per_draw",
        ns_per_elem(budget, targets.len(), || black_box(&perm).segment(0, cycle).sum::<u64>()),
    );
    let mut sent = 0u64;
    let one_thread = time_call(
        budget,
        || (),
        |()| {
            let (outcomes, tally) =
                scan_segment(net, Protocol::Icmp, targets, day, config, &perm, 0, cycle);
            sent = tally.sent;
            outcomes.len()
        },
    );
    let threaded_config = config.clone().with_threads(THREADS);
    let threaded = time_call(
        budget,
        || (),
        |()| scan_with(net, Protocol::Icmp, targets, day, &threaded_config, None).stats.sent,
    );
    layers.set("scan.segment_ns_per_probe", one_thread * 1e9 / sent.max(1) as f64);
    layers.set("scan.scan_ns_per_probe", threaded * 1e9 / sent.max(1) as f64);
    layers.set("scan.thread_speedup", one_thread / threaded);
}

/// `alias`: candidate selection over the service's input and one
/// detection round over those candidates, on a detector of its own.
pub fn alias(
    layers: &mut Layers,
    budget: Duration,
    net: &Internet,
    day: Day,
    config: &DetectorConfig,
    input: &[Addr],
) {
    layers.set(
        "alias.candidates_ms",
        time_call(budget, || (), |()| candidates(net, input, config.min_addrs_long).len()) * 1e3,
    );
    let cands = candidates(net, input, config.min_addrs_long);
    let mut probes = 0u64;
    let detect = time_call(
        budget,
        || AliasDetector::new(config.clone()),
        |mut detector| {
            let round = detector.run_round(net, &cands, day);
            probes = round.probes;
            round.detected.len()
        },
    );
    layers.set("alias.detect_ms", detect * 1e3);
    layers.set("alias.probes", probes as f64);
    layers.set("alias.ns_per_probe", detect * 1e9 / probes.max(1) as f64);
}

/// `tga`: the paper's generator line-up over the workload's last
/// snapshot. Millisecond-scale at this size; kept so a regression shows.
pub fn tga(layers: &mut Layers, budget: Duration, scale: Scale, seeds: &[Addr]) {
    let lineup = sixdust_tga::paper_lineup(scale.addr_div);
    let mut generated = 0usize;
    let took = time_call(
        budget,
        || (),
        |()| {
            generated = lineup.iter().map(|(g, n)| g.generate(seeds, *n).len()).sum();
            generated
        },
    );
    layers.set("tga.generate_ms", took * 1e3);
    layers.set("tga.candidates", generated as f64);
}

/// `serve.codec`: full and delta encoding between two consecutive
/// generations of one of the workload's sets, with the round trips
/// checked.
pub fn codec(
    layers: &mut Layers,
    budget: Duration,
    prev: &AddrSet,
    next: &AddrSet,
    violations: &mut Vec<String>,
) {
    let full = encode_full(next);
    let delta = encode_delta(prev, next);
    if decode_full(&full).ok().as_ref() != Some(next) {
        violations.push("decode_full(encode_full(x)) != x".to_string());
    }
    if apply_delta(prev, &delta).ok().as_ref() != Some(next) {
        violations.push("apply_delta(a, encode_delta(a, b)) != b".to_string());
    }
    let elems = next.len();
    layers.set(
        "serve.codec.encode_full_ns_per_elem",
        ns_per_elem(budget, elems, || encode_full(black_box(next)).len()),
    );
    layers.set(
        "serve.codec.decode_full_ns_per_elem",
        ns_per_elem(budget, elems, || decode_full(black_box(&full)).map(|s| s.len())),
    );
    layers.set(
        "serve.codec.encode_delta_ns_per_elem",
        ns_per_elem(budget, elems, || encode_delta(black_box(prev), black_box(next)).len()),
    );
    layers.set(
        "serve.codec.apply_delta_ns_per_elem",
        ns_per_elem(budget, elems, || {
            apply_delta(black_box(prev), black_box(&delta)).map(|s| s.len())
        }),
    );
    layers.set("serve.codec.full_bytes_per_addr", full.len() as f64 / elems.max(1) as f64);
    layers.set("serve.codec.delta_bytes_ratio", delta.len() as f64 / full.len().max(1) as f64);
}

/// `telemetry`: what one counter add, one histogram record and one span
/// timer cost.
pub fn telemetry(layers: &mut Layers, budget: Duration) {
    const BATCH: usize = 10_000;
    let counter = Counter::new();
    layers.set(
        "telemetry.counter_add_ns",
        ns_per_elem(budget, BATCH, || {
            for i in 0..BATCH as u64 {
                black_box(&counter).add(i);
            }
            counter.get()
        }),
    );
    let histogram = Histogram::new();
    layers.set(
        "telemetry.histogram_record_ns",
        ns_per_elem(budget, BATCH, || {
            for i in 0..BATCH as u64 {
                black_box(&histogram).record(i);
            }
            histogram.count()
        }),
    );
    layers.set(
        "telemetry.span_ns",
        ns_per_elem(budget, BATCH, || {
            for _ in 0..BATCH {
                black_box(SpanTimer::start(&histogram));
            }
            histogram.count()
        }),
    );
}
