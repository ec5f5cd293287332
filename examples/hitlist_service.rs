//! Run the full IPv6 Hitlist service pipeline for the first simulated
//! year and watch it work: input accumulation, alias filtering, scans,
//! the 30-day filter, and churn — plus the telemetry the pipeline
//! reports along the way.
//!
//! ```sh
//! cargo run --release --example hitlist_service
//! ```

use sixdust::hitlist::{HitlistService, ServiceConfig};
use sixdust::net::{Day, FaultConfig, Internet, Scale};
use sixdust::telemetry::Registry;

fn main() {
    let registry = Registry::new();
    let net = Internet::build(Scale::tiny())
        .with_faults(FaultConfig::lossless().with_drop_permille(2))
        .with_telemetry(&registry);
    let config = ServiceConfig::default().with_alias_every_days(28);
    let mut svc = HitlistService::new(config).with_telemetry(registry.clone());

    println!("== one simulated year of the IPv6 Hitlist service ==\n");
    println!(
        "{:>5} {:>9} {:>8} {:>7} {:>7} {:>7} {:>8} {:>7}",
        "day", "input", "targets", "icmp", "tcp80", "udp53", "aliased", "churn"
    );
    let mut day = Day(0);
    while day <= Day(365) {
        let r = svc.run_round(&net, day);
        if day.0.is_multiple_of(28) {
            println!(
                "{:>5} {:>9} {:>8} {:>7} {:>7} {:>7} {:>8} {:>7}",
                r.day.0,
                r.input_total,
                r.targets,
                r.cleaned[0],
                r.cleaned[2],
                r.cleaned[4],
                r.aliased_prefixes,
                r.churn_brand_new + r.churn_recurring + r.churn_gone,
            );
        }
        let next = day.plus(sixdust::net::events::scan_gap(day));
        day = next;
    }

    println!("\nafter one year:");
    println!("  accumulated input:        {}", svc.input().len());
    println!("  responsive (cleaned):     {}", svc.current_responsive().len());
    println!("  ever responsive:          {}", svc.cumulative().members.len());
    println!("  aliased prefixes labeled: {}", svc.aliased().len());
    println!("  30-day filtered pool:     {}", svc.unresponsive_pool().len());
    println!("  GFW-impacted addresses:   {}", svc.gfw_impacted().len());

    let snap = registry.snapshot();
    println!("\ntelemetry (shared registry, see README \"Observability\"):");
    for name in ["service.rounds", "service.targets", "scan.icmp.probes_sent", "net.probes"] {
        println!("  {:<24} {}", name, snap.counter(name).unwrap_or(0));
    }
    if let Some(h) = snap.histogram("service.round.phase.scan_ms") {
        println!("  scan phase ms             mean {:.1}, max {}", h.mean(), h.max);
    }
}
