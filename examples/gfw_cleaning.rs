//! The Great-Firewall story of the paper (Sec. 4.2), end to end:
//! probe a dark Chinese address for a blocked domain during an injection
//! era, watch ZMap count the injected answer as success, then apply the
//! paper's cleaning filter.
//!
//! ```sh
//! cargo run --release --example gfw_cleaning
//! ```

use sixdust::addr::{teredo, Addr};
use sixdust::net::{events, Day, FaultConfig, Internet, Protocol, Scale};
use sixdust::scan::{scan, Detail, ScanConfig};
use sixdust::wire::dns::Rdata;

fn main() {
    let net = Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless());

    // Pick addresses inside China Telecom Backbone's space that host
    // nothing at all.
    let ct = net.registry().by_asn(4134).expect("AS4134 registered");
    let block = net.registry().get(ct).prefixes[0].network();
    let targets: Vec<Addr> = (0..20u128).map(|i| Addr(block.0 | (0xd00d_0000 + i))).collect();
    let quiet_day = Day(100);
    let era_day = events::GFW_ERA3.0.plus(30);

    println!("== GFW DNS injection, as the scanner sees it ==\n");
    for (label, day) in
        [("outside any injection era", quiet_day), ("during the Teredo era", era_day)]
    {
        let result = scan(&net, Protocol::Udp53, &targets, day, &ScanConfig::default());
        println!(
            "{label} (day {}): {} of {} dark addresses counted 'responsive'",
            day.0,
            result.stats.hits,
            targets.len()
        );
        // A scan keeps only its hits: here, every dark address the
        // injectors answered for.
        if let Some(hit) = result.hits.first() {
            if let Detail::Dns { responses, injected } = &hit.detail {
                println!(
                    "  e.g. {} answered with {} response(s), injection markers: {}",
                    hit.target, responses, injected
                );
            }
        }
        // The paper's filter: keep only non-injected successes.
        println!("  after the cleaning filter: {} remain\n", result.clean_hits().count());
    }

    // Look inside one injected answer: a Teredo AAAA whose embedded IPv4
    // belongs to an unrelated operator — the tell the filter keys on.
    let probe = sixdust::net::ProbeKind::Dns { qname: "www.google.com".into() };
    let responses = net.probe(targets[0], &probe, era_day);
    for r in responses.iter().take(1) {
        if let sixdust::net::Response::Dns(msg) = r {
            for rec in &msg.answers {
                if let Rdata::Aaaa(a6) = rec.rdata {
                    let parts = teredo::decode(a6).expect("era-3 answers are Teredo");
                    println!(
                        "injected AAAA {} is a Teredo address embedding IPv4 {} — not Google's",
                        a6,
                        teredo::fmt_v4(parts.server_v4)
                    );
                }
            }
        }
    }

    // And the part the paper stresses: unblocked domains get silence, so
    // the targets really are dark.
    let own = sixdust::net::ProbeKind::Dns { qname: "sixdust-owned.test".into() };
    let silent = net.probe(targets[0], &own, era_day);
    println!("same address queried for an unblocked domain: {} responses (silence)", silent.len());
}
