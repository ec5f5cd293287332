//! Map the simulated Internet's topology with Yarrp's full (target, TTL)
//! sweep — the wide form of the last-hop traces a hitlist round takes —
//! and watch the Chinese last-hop rotation that feeds the GFW-impacted
//! input (Sec. 4.2).
//!
//! ```sh
//! cargo run --release --example topology
//! ```

use std::collections::{HashMap, HashSet};

use sixdust::addr::Addr;
use sixdust::net::{Day, FaultConfig, Internet, Scale};
use sixdust::scan::{yarrp, YarrpConfig};

fn main() {
    let net = Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless());
    let day = Day(400);

    // Trace a broad sample: live hosts plus dark Chinese space.
    let mut targets: Vec<Addr> = net
        .population()
        .enumerate_responsive(day)
        .into_iter()
        .map(|(a, ..)| a)
        .step_by(7)
        .take(120)
        .collect();
    let ct = net.registry().by_asn(4134).expect("AS4134");
    let ct_block = net.registry().get(ct).prefixes[0].network();
    targets.extend((0..30u128).map(|i| Addr(ct_block.0 | (0xaaaa_0000 + i))));

    let result = yarrp(&net, &targets, day, &YarrpConfig::default());
    let routers = result.discovered_routers();
    println!("traced {} targets with {} probes", result.traces.len(), result.sent);
    println!("discovered {} distinct router interfaces", routers.len());

    // Which ASes do the routers sit in?
    let mut by_as: HashMap<String, usize> = HashMap::new();
    for r in &routers {
        if let Some(id) = net.registry().origin(*r) {
            *by_as.entry(net.registry().get(id).name.clone()).or_default() += 1;
        }
    }
    let mut rows: Vec<_> = by_as.into_iter().collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.1));
    println!("\nrouter interfaces per AS:");
    for (name, n) in rows.iter().take(8) {
        println!("  {name:<28} {n}");
    }

    // Path-length distribution.
    let mut lens: HashMap<usize, usize> = HashMap::new();
    for t in &result.traces {
        *lens.entry(t.hops.len()).or_default() += 1;
    }
    let mut lens: Vec<_> = lens.into_iter().collect();
    lens.sort();
    println!("\nhops observed per trace: {lens:?}");

    // The accumulation effect: re-trace the dark Chinese targets two weeks
    // later and count how many *new* last-hop interfaces appear.
    let dark: Vec<Addr> =
        targets.iter().filter(|a| ct_block.0 >> 96 == a.0 >> 96).copied().collect();
    let before: HashSet<Addr> = yarrp(&net, &dark, day, &YarrpConfig::default())
        .traces
        .iter()
        .filter_map(|t| t.last_responsive_hop())
        .collect();
    let after: HashSet<Addr> = yarrp(&net, &dark, day.plus(14), &YarrpConfig::default())
        .traces
        .iter()
        .filter_map(|t| t.last_responsive_hop())
        .collect();
    let fresh = after.difference(&before).count();
    println!(
        "\nChinese last-hop rotation: {} of {} last hops are new after 14 days",
        fresh,
        after.len()
    );
    println!("(each rotation mints input addresses that the GFW later makes look DNS-responsive)");
}
