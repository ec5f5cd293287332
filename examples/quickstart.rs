//! Quickstart: build a simulated IPv6 Internet, scan it like ZMapv6,
//! and look at what comes back.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sixdust::net::{Day, FaultConfig, Internet, Protocol, Scale};
use sixdust::scan::{scan, ScanConfig};

fn main() {
    // A miniature Internet: ~120 ASes, deterministic from the seed.
    let net = Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless());
    let day = Day(100);

    println!("== sixdust quickstart ==");
    println!(
        "registry: {} ASes, vantage point {}",
        net.registry().len(),
        net.registry().vantage_addr()
    );

    // Ground truth (only the simulator can see this).
    let truth = net.population().enumerate_responsive(day);
    println!("ground truth on day {}: {} responsive addresses", day.0, truth.len());

    // A measurement tool cannot enumerate; it needs candidates. Take the
    // ground truth as a stand-in target list and scan each protocol the
    // IPv6 Hitlist probes. A scan keeps the responsive targets
    // (`result.hits`); every other probe is a count in `result.stats`.
    let targets: Vec<_> = truth.iter().map(|(a, ..)| *a).take(2000).collect();
    for proto in Protocol::ALL {
        let result = scan(&net, proto, &targets, day, &ScanConfig::default());
        println!(
            "  {:>8}: {:>5} of {} targets responsive ({} probes, {:.2}s virtual)",
            proto.to_string(),
            result.hits.len(),
            targets.len(),
            result.stats.sent,
            result.stats.duration_secs
        );
    }

    // Aliased prefixes answer on every address.
    let aliased = net
        .population()
        .aliased_groups(day)
        .next()
        .expect("the simulated Internet always has aliased prefixes");
    let random_addr = aliased.prefix.random_addr(42);
    let responses = net.probe(random_addr, &sixdust::net::ProbeKind::IcmpEcho { size: 8 }, day);
    println!(
        "\naliased prefix {}: random address {} answers: {}",
        aliased.prefix,
        random_addr,
        !responses.is_empty()
    );
}
