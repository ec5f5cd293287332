//! Aliased-prefix experiments: Fig. 5, Fig. 6, Table 2, the Sec. 5.1
//! fingerprint/TBT measurements and the Sec. 5.2 domain analysis.

use std::collections::HashMap;

use sixdust_addr::Prefix;
use sixdust_alias::{fingerprint_all, minimal_cover, tbt_all};
use sixdust_analysis::{human, pct, PlenHistogram, TextTable};
use sixdust_json::json;
use sixdust_net::{Day, ProbeKind, Protocol, Response};

use crate::context::Ctx;
use crate::ExpOutput;

fn trafficforce_as(ctx: &Ctx) -> Option<sixdust_net::AsId> {
    ctx.net.registry().by_asn(212144)
}

fn aliased_with_as(
    ctx: &Ctx,
    prefixes: impl IntoIterator<Item = Prefix>,
) -> Vec<(Prefix, sixdust_net::AsId)> {
    prefixes
        .into_iter()
        .filter_map(|p| ctx.net.registry().origin(p.network()).map(|id| (p, id)))
        .collect()
}

/// Fig. 5: distribution of aliased prefix lengths per yearly snapshot
/// (2022 excluding Trafficforce, like the paper).
pub fn fig5(ctx: &Ctx) -> ExpOutput {
    let tf = trafficforce_as(ctx);
    let mut text = String::from(
        "Fig. 5 — aliased prefix sizes over time (2022 excludes Trafficforce)\n\
         paper shape: >90 % /64 every year; counts grow 12 k -> 42.8 k; short /28 tail (EpicUp)\n\n",
    );
    let mut years = Vec::new();
    for snap_day in Day::SNAPSHOTS {
        let snap = ctx.snapshot_at(snap_day);
        let with_as = aliased_with_as(ctx, snap.aliased.iter());
        let filtered: Vec<u8> =
            with_as.iter().filter(|(_, id)| Some(*id) != tf).map(|(p, _)| p.len()).collect();
        let h = PlenHistogram::from_lens(filtered);
        text.push_str(&format!(
            "{}: {:>6} prefixes, /64 share {}  bins {:?}\n",
            snap.day.to_date(),
            h.total(),
            pct(h.share(64)),
            h.bins()
        ));
        years.push(json!({ "date": snap.day.to_date(), "total": h.total(),
            "share64": h.share(64), "bins": h.bins() }));
    }
    // The Trafficforce jump.
    let last = ctx.snapshot_at(Day::PAPER_END);
    let tf_count =
        aliased_with_as(ctx, last.aliased.iter()).iter().filter(|(_, id)| Some(*id) == tf).count();
    text.push_str(&format!(
        "Trafficforce /64 flood in the final snapshot: {tf_count} prefixes (paper: 66.4 k, ICMP-only)\n"
    ));
    ExpOutput { text, json: json!({ "years": years, "trafficforce": tf_count }) }
}

/// Fig. 6: per-AS aliased address space vs announced space.
pub fn fig6(ctx: &Ctx) -> ExpOutput {
    let last = ctx.snapshot_at(Day::PAPER_END);
    let cover = minimal_cover(&last.aliased.iter().collect::<Vec<_>>());
    let mut per_as: HashMap<sixdust_net::AsId, f64> = HashMap::new();
    for (p, id) in aliased_with_as(ctx, cover) {
        *per_as.entry(id).or_insert(0.0) += 2f64.powi(i32::from(p.size_log2()));
    }
    let mut rows: Vec<(String, u32, f64, f64)> = per_as
        .into_iter()
        .map(|(id, aliased_space)| {
            let info = ctx.net.registry().get(id);
            let announced = 2f64.powf(info.announced_space_log2());
            (info.name.clone(), info.asn, aliased_space.log2(), aliased_space / announced)
        })
        .collect();
    // `per_as` iterates in no fixed order: ties go by ASN.
    rows.sort_by(|a, b| b.3.partial_cmp(&a.3).expect("finite").then(a.1.cmp(&b.1)));
    let over50 = rows.iter().filter(|r| r.3 > 0.5).count();
    let over90 = rows.iter().filter(|r| r.3 > 0.9).count();
    let mut t = TextTable::new(&["AS", "ASN", "aliased space (2^x)", "share of announced"]);
    for (name, asn, log2, share) in rows.iter().take(12) {
        t.row(vec![name.clone(), asn.to_string(), format!("{log2:.1}"), pct(*share)]);
    }
    let text = format!(
        "Fig. 6 — aliased space per AS vs announced space ({} ASes with aliased prefixes)\n\
         paper shape: {} ASes >50 % aliased (paper: 80), {} ASes >90 % (paper: 61);\n\
         Fastly ≈95 %, Cloudflare-London & Akamai-ALIAS = 100 %, EpicUp's /28s largest absolute\n\n{}",
        rows.len(),
        over50,
        over90,
        t.render()
    );
    let jrows: Vec<_> = rows
        .iter()
        .map(|(name, asn, log2, share)| json!({ "as": name, "asn": asn, "log2": log2, "share": share }))
        .collect();
    ExpOutput { text, json: json!({ "ases": jrows, "over50": over50, "over90": over90 }) }
}

/// Table 2: responsiveness of one random address per aliased prefix
/// (Trafficforce excluded), per protocol.
pub fn table2(ctx: &Ctx) -> ExpOutput {
    let day = Day::PAPER_END;
    let tf = trafficforce_as(ctx);
    let prefixes: Vec<(Prefix, sixdust_net::AsId)> =
        aliased_with_as(ctx, ctx.snapshot_at(day).aliased.iter())
            .into_iter()
            .filter(|(_, id)| Some(*id) != tf)
            .collect();
    let mut t = TextTable::new(&["Protocol", "# Prefixes", "# ASes"]);
    let mut jrows = Vec::new();
    for proto in
        [Protocol::Icmp, Protocol::Tcp443, Protocol::Tcp80, Protocol::Udp443, Protocol::Udp53]
    {
        let probe = sixdust_scan::engine::probe_for(proto, "www.google.com");
        let mut hit_prefixes = 0usize;
        let mut ases: std::collections::HashSet<sixdust_net::AsId> = Default::default();
        for (p, id) in &prefixes {
            let target = p.random_addr(0x7AB2);
            let ok = ctx.net.probe(target, &probe, day).iter().any(|r| {
                matches!(
                    r,
                    Response::EchoReply { .. }
                        | Response::SynAck { .. }
                        | Response::QuicVn
                        | Response::Dns(_)
                )
            });
            if ok {
                hit_prefixes += 1;
                ases.insert(*id);
            }
        }
        t.row(vec![proto.to_string(), hit_prefixes.to_string(), ases.len().to_string()]);
        jrows.push(
            json!({ "protocol": proto.to_string(), "prefixes": hit_prefixes, "ases": ases.len() }),
        );
    }
    let text = format!(
        "Table 2 — responsiveness of aliased prefixes (one random address each; {} prefixes, Trafficforce excluded)\n\
         paper shape: ICMP ≈ TCP/80 ≈ TCP/443 ≳ UDP/443 ≫ UDP/53 (172 prefixes only)\n\n{}",
        prefixes.len(),
        t.render()
    );
    ExpOutput { text, json: json!({ "prefixes": prefixes.len(), "rows": jrows }) }
}

/// Sec. 5.1: TCP fingerprints + the Too Big Trick over the labeled set.
pub fn fingerprints(ctx: &Ctx) -> ExpOutput {
    let day = Day::PAPER_END;
    let prefixes: Vec<Prefix> = ctx.snapshot_at(day).aliased.iter().collect();
    // TCP fingerprinting (needs TCP/80 responders).
    let (_, fp) = fingerprint_all(&ctx.net, &prefixes, day, 0x519);
    // TBT over everything (Trafficforce excluded like Table 2's scan).
    let tf = trafficforce_as(ctx);
    let tbt_prefixes: Vec<Prefix> = aliased_with_as(ctx, prefixes.iter().copied())
        .into_iter()
        .filter(|(_, id)| Some(*id) != tf)
        .map(|(p, _)| p)
        .collect();
    ctx.net.reset_state();
    let (_, tbt) = tbt_all(&ctx.net, &tbt_prefixes, day, 0x7B7);
    let uniform_share = fp.uniform as f64 / fp.fingerprintable.max(1) as f64;
    let shared_share = tbt.shared_all as f64 / tbt.successful.max(1) as f64;
    let text = format!(
        "Sec. 5.1 — fingerprinting the aliased prefixes ({} labels)\n\n\
         TCP fingerprints: {} fingerprintable; {} uniform ({}) — paper: 33.5 k, 99.5 %\n\
           window-only differences: {} (paper: 154 of 160); other features: {}\n\n\
         Too Big Trick: {} successful, {} unsuitable — paper: 29.4 k of 111 k\n\
           shared-all (single host):   {} ({}) — paper: 93.75 %\n\
           shared-none (per-address):  {} — paper: 0.85 %\n\
           partial (load-balanced):    {} — paper: 5.4 %, mostly Akamai/Cloudflare\n",
        prefixes.len(),
        fp.fingerprintable,
        fp.uniform,
        pct(uniform_share),
        fp.window_only_diff,
        fp.other_diff,
        tbt.successful,
        tbt.unsuitable,
        tbt.shared_all,
        pct(shared_share),
        tbt.shared_none,
        tbt.shared_partial,
    );
    ExpOutput {
        text,
        json: json!({
            "fingerprintable": fp.fingerprintable, "uniform": fp.uniform,
            "window_only": fp.window_only_diff, "other_diff": fp.other_diff,
            "tbt_successful": tbt.successful, "tbt_shared_all": tbt.shared_all,
            "tbt_shared_none": tbt.shared_none, "tbt_partial": tbt.shared_partial,
        }),
    }
}

/// Sec. 5.2: domains hosted inside aliased prefixes, incl. top lists.
pub fn domains(ctx: &Ctx) -> ExpOutput {
    let day = Day::PAPER_END;
    let zones = ctx.net.zones();
    let pop = ctx.net.population();
    let aliased = ctx.svc.aliased();
    let mut total_in_aliased = 0u64;
    let mut per_prefix: HashMap<Prefix, u64> = HashMap::new();
    let mut per_as: HashMap<sixdust_net::AsId, u64> = HashMap::new();
    for d in 0..zones.total_domains() {
        let (addr, host) = zones.resolve(pop, d, day);
        if aliased.covers_addr(addr) {
            total_in_aliased += 1;
            if let Some(gid) = host.aliased {
                *per_prefix.entry(pop.group(gid).prefix).or_insert(0) += 1;
            }
            *per_as.entry(host.asid).or_insert(0) += 1;
        }
    }
    let max_prefix = per_prefix.iter().max_by_key(|(_, n)| **n);
    let mut as_rows: Vec<(String, u64)> =
        per_as.iter().map(|(id, n)| (ctx.net.registry().get(*id).name.clone(), *n)).collect();
    as_rows.sort_by_key(|row| std::cmp::Reverse(row.1));

    // Top lists.
    let mut toplist_counts = Vec::new();
    for (list, name) in [(0u8, "Alexa-like"), (1, "Majestic-like"), (2, "Umbrella-like")] {
        let mut n = 0u64;
        let mut top1k = 0u64;
        for rank in 0..zones.toplist_len() {
            let d = zones.toplist_domain(list, rank);
            let (addr, _) = zones.resolve(pop, d, day);
            if aliased.covers_addr(addr) {
                n += 1;
                if rank < zones.toplist_len() / 1000 {
                    top1k += 1;
                }
            }
        }
        toplist_counts.push((name, n, top1k));
    }

    let mut text = format!(
        "Sec. 5.2 — domains hosted in aliased prefixes (day {})\n\
         total domains resolved: {}   in aliased prefixes: {} ({})\n\
         distinct aliased prefixes hosting domains: {}   ASes: {}\n\
         busiest prefix: {} with {} domains (paper: a Cloudflare /48 with 3.94 M)\n\n",
        day.to_date(),
        human(zones.total_domains()),
        human(total_in_aliased),
        pct(total_in_aliased as f64 / zones.total_domains().max(1) as f64),
        per_prefix.len(),
        per_as.len(),
        max_prefix.map(|(p, _)| p.to_string()).unwrap_or_default(),
        human(max_prefix.map(|(_, n)| *n).unwrap_or(0)),
    );
    text.push_str("top ASes hosting aliased domains:\n");
    for (name, n) in as_rows.iter().take(6) {
        text.push_str(&format!("  {name:<24} {}\n", human(*n)));
    }
    text.push_str(
        "\ntop-list domains inside aliased prefixes (paper: 177 k / 170 k / 118 k of 1 M):\n",
    );
    for (name, n, top1k) in &toplist_counts {
        text.push_str(&format!(
            "  {name:<14} {:>8} of {} ({}) — top-1k cohort: {}\n",
            n,
            zones.toplist_len(),
            pct(*n as f64 / zones.toplist_len().max(1) as f64),
            top1k
        ));
    }
    ExpOutput {
        text,
        json: json!({
            "total_domains": zones.total_domains(),
            "in_aliased": total_in_aliased,
            "hosting_prefixes": per_prefix.len(),
            "hosting_ases": per_as.len(),
            "max_prefix_domains": max_prefix.map(|(_, n)| *n).unwrap_or(0),
            "toplists": toplist_counts.iter().map(|(n, c, t)| json!({ "list": n, "count": c, "top1k": t })).collect::<Vec<_>>(),
        }),
    }
}

/// Sec. 4.2: validation of remaining UDP/53 responders with a controlled
/// domain.
pub fn dnsvalidate(ctx: &Ctx) -> ExpOutput {
    use sixdust_wire::dns::Rcode;
    let day = Day::PAPER_END;
    let snap = ctx.snapshot_at(day);
    let dns_responders = snap.cleaned_for(Protocol::Udp53);
    ctx.net.reset_state();
    let mut refused = 0u64;
    let mut correct_matching = 0u64;
    let mut referral = 0u64;
    let mut proxied = 0u64;
    let mut broken = 0u64;
    let mut silent = 0u64;
    for (i, target) in dns_responders.addrs().enumerate() {
        // A unique-hash subdomain per probe, mapping probes to NS queries.
        let qname = format!("h{i:08x}.{}", sixdust_net::zones::CONTROLLED_DOMAIN);
        let responses = ctx.net.probe(target, &ProbeKind::Dns { qname: qname.clone() }, day);
        let log = ctx.net.take_ns_log();
        let Some(Response::Dns(msg)) = responses.first() else {
            silent += 1;
            continue;
        };
        match msg.rcode {
            Rcode::Refused => refused += 1,
            Rcode::NoError if !msg.answers.is_empty() => {
                // Did the recursive query reach our name server from the
                // probed address?
                if log.iter().any(|(src, q)| *src == target && *q == qname) {
                    correct_matching += 1;
                } else {
                    proxied += 1;
                }
            }
            Rcode::NoError if !msg.authority.is_empty() => {
                if msg.authority.iter().any(|r| {
                    matches!(&r.rdata,
                    sixdust_wire::dns::Rdata::Ns(n) if n == "localhost")
                }) {
                    broken += 1;
                } else {
                    referral += 1;
                }
            }
            _ => broken += 1,
        }
    }
    let total = dns_responders.len() as u64;
    let text = format!(
        "Sec. 4.2 — controlled-domain validation of {} cleaned UDP/53 responders\n\
         paper shape: 93.8 % valid-but-erroring, 4.6 % recursive+matching, 593 referrals, 15 proxied, 1.1 % broken\n\n\
         REFUSED / error codes:      {} ({})\n\
         recursive, source matches:  {} ({})\n\
         referral to root/parent:    {}\n\
         correct but proxied source: {}\n\
         broken (localhost, odd rc): {}\n\
         silent (loss):              {}\n",
        total,
        refused,
        sixdust_analysis::pct(refused as f64 / total.max(1) as f64),
        correct_matching,
        sixdust_analysis::pct(correct_matching as f64 / total.max(1) as f64),
        referral,
        proxied,
        broken,
        silent,
    );
    ExpOutput {
        text,
        json: json!({ "total": total, "refused": refused, "recursive": correct_matching,
            "referral": referral, "proxied": proxied, "broken": broken, "silent": silent }),
    }
}
