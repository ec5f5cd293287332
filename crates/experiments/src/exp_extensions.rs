//! Extension experiments beyond the paper's tables:
//!
//! * `seedless` — the Sec. 7 future-work direction (AddrMiner-style
//!   discovery in ASes without seeds, aiming at the 38 % of announced
//!   prefixes the hitlist does not cover).
//! * `publish` — render the community artifact set the updated service
//!   ships, like ipv6hitlist.github.io does.

use std::collections::HashSet;

use sixdust_addr::Addr;
use sixdust_analysis::{human, pct, TextTable};
use sixdust_hitlist::publish::publish;
use sixdust_json::json;
use sixdust_net::{Day, ProbeKind, Protocol};
use sixdust_tga::Seedless;

use crate::context::Ctx;
use crate::ExpOutput;

/// Sec. 7 extension: seedless discovery in uncovered announced prefixes.
pub fn seedless(ctx: &Ctx) -> ExpOutput {
    let day = Day::PAPER_END;
    let seeds: Vec<Addr> = ctx.svc.input().to_vec();
    let announced: Vec<_> = ctx
        .net
        .registry()
        .announced_prefixes()
        .map(|(p, _)| p)
        .filter(|p| p.len() <= 48) // operator-scale announcements
        .collect();
    let uncovered = Seedless::uncovered(announced.iter().copied(), &seeds);
    let coverage_before = 1.0 - uncovered.len() as f64 / announced.len().max(1) as f64;

    let generator = Seedless::default();
    let conventions = Seedless::mine_conventions(&seeds, 4);
    let raw = generator.generate_for(announced.iter().copied(), &seeds, 200_000);
    // Aliased prefixes answer on any address — they must be filtered here
    // exactly like in every other source evaluation, or seedless "hits"
    // would just be CDN space.
    let aliased = ctx.svc.aliased();
    let candidates: Vec<Addr> = raw.into_iter().filter(|a| !aliased.covers_addr(*a)).collect();

    // Scan the candidates (ICMP, like AddrMiner's seedless validation).
    let mut responsive: Vec<Addr> = Vec::new();
    for c in &candidates {
        if !ctx.net.probe(*c, &ProbeKind::IcmpEcho { size: 8 }, day).is_empty() {
            responsive.push(*c);
        }
    }
    // Newly covered announced prefixes.
    let covered_now: HashSet<_> =
        uncovered.iter().filter(|p| responsive.iter().any(|a| p.contains(*a))).collect();
    let coverage_after =
        1.0 - (uncovered.len() - covered_now.len()) as f64 / announced.len().max(1) as f64;

    let mut t = TextTable::new(&["metric", "value"]);
    t.row(vec!["announced prefixes (≤/48)".into(), announced.len().to_string()]);
    t.row(vec!["covered by hitlist input".into(), pct(coverage_before)]);
    t.row(vec!["uncovered (the seedless target)".into(), uncovered.len().to_string()]);
    t.row(vec!["candidates generated".into(), human(candidates.len() as u64)]);
    t.row(vec!["responsive".into(), human(responsive.len() as u64)]);
    t.row(vec!["hit rate".into(), pct(responsive.len() as f64 / candidates.len().max(1) as f64)]);
    t.row(vec!["newly covered prefixes".into(), covered_now.len().to_string()]);
    t.row(vec!["coverage after".into(), pct(coverage_after)]);
    let text = format!(
        "Sec. 7 extension — seedless discovery (AddrMiner direction)\n\
         paper: hitlist covers 62 % of announced prefixes; AddrMiner proposes reaching the rest\n\n{}\n\
         mined conventions (transfer knowledge): {:?}\n",
        t.render(),
        conventions.iter().map(|c| format!("::{c:x}")).collect::<Vec<_>>(),
    );
    ExpOutput {
        text,
        json: json!({
            "announced": announced.len(),
            "coverage_before": coverage_before,
            "coverage_after": coverage_after,
            "candidates": candidates.len(),
            "responsive": responsive.len(),
            "newly_covered": covered_now.len(),
        }),
    }
}

/// Render and persist the service's community artifacts.
pub fn publish_artifacts(ctx: &Ctx, out_dir: &std::path::Path) -> ExpOutput {
    let publication = publish(&ctx.svc);
    let dir = out_dir.join("artifacts");
    publication.write_to(&dir).expect("write artifacts");
    let mut t = TextTable::new(&["artifact", "entries"]);
    for (name, count) in &publication.manifest.counts {
        t.row(vec![name.clone(), count.to_string()]);
    }
    // Consistency check mirroring what a downstream consumer would do.
    let responsive = sixdust_hitlist::Publication::parse_addresses(&publication.responsive)
        .expect("published addresses parse");
    let per53 = publication
        .per_protocol
        .iter()
        .find(|(s, _)| s == "responsive-udp53.txt")
        .map(|(_, b)| b.lines().count())
        .unwrap_or(0);
    let text = format!(
        "Service artifacts (the files ipv6hitlist.github.io publishes), {}\n\
         written to {}\n\n{}\n\
         downstream check: {} responsive addresses parse; UDP/53 file holds {}\n\
         gfw filter active in this publication: {}\n",
        publication.date,
        dir.display(),
        t.render(),
        responsive.len(),
        per53,
        publication.manifest.gfw_filter_active,
    );
    let date = publication.date.clone();
    ExpOutput {
        text,
        json: json!({
            "date": date,
            "counts": publication.manifest.counts,
            "gfw_filter_active": publication.manifest.gfw_filter_active,
        }),
    }
}

/// Sec. 4.1 companion: IID-class breakdown of input vs responsive.
pub fn iidclasses(ctx: &Ctx) -> ExpOutput {
    use sixdust_addr::IidBreakdown;
    let input = IidBreakdown::of(ctx.svc.input().iter().copied());
    let snap = ctx.snapshot_at(Day::PAPER_END);
    let responsive = IidBreakdown::of(snap.cleaned_total().addrs());
    let mut t = TextTable::new(&["class", "input", "input %", "responsive", "responsive %"]);
    for ((label, n_in), (_, n_resp)) in input.rows().into_iter().zip(responsive.rows()) {
        t.row(vec![
            label.to_string(),
            human(n_in),
            pct(n_in as f64 / input.total.max(1) as f64),
            human(n_resp),
            pct(n_resp as f64 / responsive.total.max(1) as f64),
        ]);
    }
    let text = format!(
        "IID classes of input vs responsive addresses (Sec. 4.1 companion)\n\
         paper shape: input dominated by EUI-64 (rotating CPE) and random (routers, LBs);\n\
         the responsive set leans low-byte (servers)\n\n{}",
        t.render()
    );
    let _ = Protocol::Icmp; // keep the import honest if the table shrinks
    ExpOutput { text, json: json!({ "input": input.rows(), "responsive": responsive.rows() }) }
}
