//! Experiments drawn from the service's longitudinal run:
//! Fig. 2, Fig. 3, Fig. 4, Table 1, Table 5, Fig. 9, Fig. 10, and the
//! Fig. 1 pipeline diagram the service realizes.

use std::collections::{HashMap, HashSet};

use sixdust_addr::Addr;
use sixdust_analysis::{human, pct, sparkline, OverlapMatrix, RankCdf, Series, TextTable};
use sixdust_json::{json, Value};
use sixdust_net::{events, AsId, Day, Protocol};

use crate::context::Ctx;
use crate::ExpOutput;

fn as_counts(ctx: &Ctx, addrs: impl Iterator<Item = Addr>) -> HashMap<AsId, u64> {
    let mut m: HashMap<AsId, u64> = HashMap::new();
    for a in addrs {
        if let Some(id) = ctx.net.registry().origin(a) {
            *m.entry(id).or_insert(0) += 1;
        }
    }
    m
}

fn cdf_of(ctx: &Ctx, addrs: impl Iterator<Item = Addr>) -> RankCdf {
    RankCdf::new(as_counts(ctx, addrs).into_values().collect())
}

/// Fig. 2: CDFs of input / input-without-aliased / GFW-impacted /
/// responsive addresses across ASes.
pub fn fig2(ctx: &Ctx) -> ExpOutput {
    let input = ctx.svc.input();
    let aliased = ctx.svc.aliased();
    let gfw = ctx.svc.gfw_impacted();
    let responsive = ctx.snapshot_at(Day::PAPER_END).cleaned_total();

    let full = cdf_of(ctx, input.iter().copied());
    let unaliased = cdf_of(ctx, input.iter().filter(|a| !aliased.covers_addr(**a)).copied());
    let gfw_cdf = cdf_of(ctx, gfw.addrs());
    let resp_cdf = cdf_of(ctx, responsive.addrs());

    // Who is the input's top AS, before aliased filtering?
    let counts = as_counts(ctx, input.iter().copied());
    let top_input = counts
        .iter()
        .max_by_key(|(_, n)| **n)
        .map(|(id, n)| (ctx.net.registry().get(*id).name.clone(), *n))
        .unwrap_or_default();

    let mut t = TextTable::new(&[
        "set",
        "addresses",
        "ASes",
        "top-AS share",
        "top-10 share",
        "ASes for 80%",
    ]);
    for (name, cdf) in [
        ("input (full)", &full),
        ("input w/o aliased", &unaliased),
        ("GFW impacted", &gfw_cdf),
        ("responsive", &resp_cdf),
    ] {
        t.row(vec![
            name.to_string(),
            human(cdf.total),
            cdf.categories().to_string(),
            pct(cdf.top_share()),
            pct(cdf.share_of_top(10)),
            cdf.categories_for_share(0.8).to_string(),
        ]);
    }
    let text = format!(
        "Fig. 2 — AS distribution of hitlist address sets (scale 1/{})\n\
         paper shape: full input skewed (Amazon ≈32 % pre-filter), responsive well spread (top <10 %),\n\
         GFW set concentrated (93 % in 10 ASes)\n\n{}\ntop input AS: {} with {}\n",
        ctx.scale.addr_div,
        t.render(),
        top_input.0,
        human(top_input.1),
    );
    let series: Vec<_> = [
        ("input", &full),
        ("input_no_aliased", &unaliased),
        ("gfw", &gfw_cdf),
        ("responsive", &resp_cdf),
    ]
    .iter()
    .map(|(k, c)| {
        json!({ "set": k, "total": c.total, "ases": c.categories(),
        "top_share": c.top_share(), "top10_share": c.share_of_top(10),
        "cdf": c.series(40) })
    })
    .collect();
    ExpOutput { text, json: json!({ "sets": series }) }
}

/// Fig. 3: responsiveness over time, published vs cleaned, per protocol.
pub fn fig3(ctx: &Ctx) -> ExpOutput {
    let rounds = ctx.svc.rounds();
    let idx53 = Protocol::ALL.iter().position(|p| *p == Protocol::Udp53).expect("udp53");
    let pub53: Vec<u64> = rounds.iter().map(|r| r.published[idx53]).collect();
    let clean53: Vec<u64> = rounds.iter().map(|r| r.cleaned[idx53]).collect();
    let total_pub: Vec<u64> = rounds.iter().map(|r| r.total_published).collect();
    let total_clean: Vec<u64> = rounds.iter().map(|r| r.total_cleaned).collect();

    let spike = *pub53.iter().max().unwrap_or(&0);
    let clean_max = *clean53.iter().max().unwrap_or(&0);
    let icmp_last = rounds.last().map(|r| r.cleaned[0]).unwrap_or(0);
    let icmp_first = rounds.first().map(|r| r.cleaned[0]).unwrap_or(0);

    // Detect injection events from the published series alone (no ground
    // truth) and compare against the true era windows.
    let series = Series::new(rounds.iter().map(|r| (r.day.0, r.published[idx53])).collect());
    let detected = series.spike_windows(8.0, 30);
    let true_eras = [events::GFW_ERA1, events::GFW_ERA2, events::GFW_ERA3].map(|(a, b)| (a.0, b.0));

    let text = format!(
        "Fig. 3 — responsiveness over time (published left / cleaned right in the paper)\n\
         published UDP/53   {}\n\
         cleaned   UDP/53   {}\n\
         published total    {}\n\
         cleaned   total    {}\n\
         UDP/53 spike (published): {}   vs cleaned max: {}  (spike factor {:.0}x)\n\
         cleaned ICMP: {} -> {} ({:.2}x growth)\n",
        sparkline(&pub53),
        sparkline(&clean53),
        sparkline(&total_pub),
        sparkline(&total_clean),
        human(spike),
        human(clean_max),
        spike as f64 / clean_max.max(1) as f64,
        human(icmp_first),
        human(icmp_last),
        icmp_last as f64 / icmp_first.max(1) as f64,
    );
    let text = format!(
        "{text}\
         spike windows detected from the published series: {detected:?}\n\
         true injection eras:                              {true_eras:?}\n"
    );
    let jseries: Vec<_> = rounds
        .iter()
        .map(|r| {
            json!({
                "day": r.day.0, "date": r.day.to_date(),
                "published": r.published, "cleaned": r.cleaned,
                "total_published": r.total_published, "total_cleaned": r.total_cleaned,
            })
        })
        .collect();
    ExpOutput {
        text,
        json: json!({ "rounds": jseries, "detected_eras": detected, "true_eras": true_eras }),
    }
}

/// Fig. 4: churn — newly responsive (brand new vs recurring) and newly
/// unresponsive per scan.
pub fn fig4(ctx: &Ctx) -> ExpOutput {
    let rounds = ctx.svc.rounds();
    let new_brand: Vec<u64> = rounds.iter().map(|r| r.churn_brand_new).collect();
    let recurring: Vec<u64> = rounds.iter().map(|r| r.churn_recurring).collect();
    let gone: Vec<u64> = rounds.iter().map(|r| r.churn_gone).collect();
    // Churn growth with scan-gap growth (the paper's late-period effect).
    let early: f64 = rounds
        .iter()
        .filter(|r| r.day < Day(300))
        .map(|r| (r.churn_gone + r.churn_brand_new + r.churn_recurring) as f64)
        .sum::<f64>()
        / rounds.iter().filter(|r| r.day < Day(300)).count().max(1) as f64;
    let late: f64 = rounds
        .iter()
        .filter(|r| r.day > Day(1100))
        .map(|r| (r.churn_gone + r.churn_brand_new + r.churn_recurring) as f64)
        .sum::<f64>()
        / rounds.iter().filter(|r| r.day > Day(1100)).count().max(1) as f64;
    let text = format!(
        "Fig. 4 — per-scan churn of the responsive set (cleaned view)\n\
         brand new   {}\n\
         recurring   {}\n\
         gone        {}\n\
         mean churn early (daily scans): {:.0}   late (5-day scans): {:.0}  (ratio {:.1}x)\n\
         paper shape: recurring+gone dominate brand-new; churn grows with scan gap\n",
        sparkline(&new_brand),
        sparkline(&recurring),
        sparkline(&gone),
        early,
        late,
        late / early.max(1.0),
    );
    let series: Vec<_> = rounds
        .iter()
        .map(|r| {
            json!({ "day": r.day.0, "brand_new": r.churn_brand_new,
                "recurring": r.churn_recurring, "gone": r.churn_gone })
        })
        .collect();
    ExpOutput { text, json: json!({ "rounds": series }) }
}

/// Table 1: responsive addresses and ASes per protocol at the yearly
/// snapshots, plus the cumulative row.
pub fn table1(ctx: &Ctx) -> ExpOutput {
    let mut t = TextTable::new(&[
        "Date", "ICMP", "ASes", "TCP/443", "ASes", "TCP/80", "ASes", "UDP/443", "ASes", "UDP/53",
        "ASes", "Total", "ASes",
    ]);
    let mut json_rows = Vec::new();
    for snap_day in Day::SNAPSHOTS {
        let snap = ctx.snapshot_at(snap_day);
        let mut cells = vec![snap.day.to_date()];
        let mut jrow: Vec<(String, Value)> = Vec::new();
        jrow.push(("date".into(), json!(snap.day.to_date())));
        for proto in Protocol::ALL {
            let addrs = snap.cleaned_for(proto);
            let ases = as_counts(ctx, addrs.addrs()).len();
            cells.push(human(addrs.len() as u64));
            cells.push(ases.to_string());
            jrow.push((format!("{proto}"), json!({ "addrs": addrs.len(), "ases": ases })));
        }
        let total = snap.cleaned_total();
        let total_ases = as_counts(ctx, total.addrs()).len();
        cells.push(human(total.len() as u64));
        cells.push(total_ases.to_string());
        jrow.push(("total".into(), json!({ "addrs": total.len(), "ases": total_ases })));
        t.row(cells);
        json_rows.push(Value::sorted_object(jrow));
    }
    // Cumulative row.
    let ever = ctx.svc.cumulative();
    let cumulative = ever.members.len();
    let mut cells = vec!["Cumulative".to_string()];
    let mut jrow: Vec<(String, Value)> = Vec::new();
    for proto in Protocol::ALL {
        let n = ever.iter().filter(|(_, p)| p.contains(proto)).count();
        cells.push(human(n as u64));
        cells.push(String::new());
        jrow.push((format!("{proto}"), json!(n)));
    }
    cells.push(human(cumulative as u64));
    cells.push(String::new());
    jrow.push(("total".into(), json!(cumulative)));
    t.row(cells);
    json_rows.push(Value::sorted_object(jrow));

    let first_total = ctx.snapshot_at(Day::SNAPSHOTS[0]).cleaned_total().len();
    let last_total = ctx.snapshot_at(Day::PAPER_END).cleaned_total().len();
    let text = format!(
        "Table 1 — development of responsive addresses and covered ASes (cleaned, scale 1/{})\n\
         paper shape: total grows ≈1.8x over four years; ICMP dominates; cumulative ≫ current\n\n{}\n\
         growth {} -> {} = {:.2}x\n",
        ctx.scale.addr_div,
        t.render(),
        human(first_total as u64),
        human(last_total as u64),
        last_total as f64 / first_total.max(1) as f64,
    );
    ExpOutput { text, json: json!({ "rows": json_rows }) }
}

/// Table 5: top 10 ASes of GFW-impacted addresses.
pub fn table5(ctx: &Ctx) -> ExpOutput {
    let counts = as_counts(ctx, ctx.svc.gfw_impacted().addrs());
    let total: u64 = counts.values().sum();
    let mut rows: Vec<(u32, String, u64)> = counts
        .into_iter()
        .map(|(id, n)| {
            let info = ctx.net.registry().get(id);
            (info.asn, info.name.clone(), n)
        })
        .collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.2));
    let mut t = TextTable::new(&["ASN", "Name", "# Addresses", "%", "CDF"]);
    let mut cdf = 0.0;
    let mut json_rows = Vec::new();
    for (asn, name, n) in rows.iter().take(10) {
        let share = *n as f64 / total.max(1) as f64;
        cdf += share;
        t.row(vec![
            asn.to_string(),
            name.clone(),
            human(*n),
            format!("{:.2}", share * 100.0),
            format!("{:.2}", cdf * 100.0),
        ]);
        json_rows.push(json!({ "asn": asn, "name": name, "addrs": n, "pct": share * 100.0 }));
    }
    let text = format!(
        "Table 5 — top 10 ASes impacted by the GFW (total impacted: {})\n\
         paper shape: AS4134 ≈46 %, top-2 ≈61 %, top-10 ≈94 %\n\n{}",
        human(total),
        t.render()
    );
    ExpOutput { text, json: json!({ "total": total, "top10": json_rows }) }
}

/// Fig. 9: AS distribution of responsive addresses per protocol.
pub fn fig9(ctx: &Ctx) -> ExpOutput {
    let snap = ctx.snapshot_at(Day::PAPER_END);
    let mut t = TextTable::new(&["protocol", "addresses", "ASes", "top-AS share", "skew"]);
    let mut series = Vec::new();
    for proto in Protocol::ALL {
        let addrs = snap.cleaned_for(proto);
        let cdf = cdf_of(ctx, addrs.addrs());
        t.row(vec![
            proto.to_string(),
            human(cdf.total),
            cdf.categories().to_string(),
            pct(cdf.top_share()),
            format!("{:.2}", cdf.skew()),
        ]);
        series.push(json!({ "protocol": proto.to_string(), "ases": cdf.categories(),
            "top_share": cdf.top_share(), "cdf": cdf.series(30) }));
    }
    let text = format!(
        "Fig. 9 — per-protocol AS distribution of responsive addresses ({})\n\
         paper shape: UDP/53 most even; UDP/443 fewest ASes\n\n{}",
        snap.day.to_date(),
        t.render()
    );
    ExpOutput { text, json: json!({ "protocols": series }) }
}

/// Fig. 10: overlap of addresses responsive to each protocol.
pub fn fig10(ctx: &Ctx) -> ExpOutput {
    let snap = ctx.snapshot_at(Day::PAPER_END);
    let sets: Vec<(String, Vec<Addr>)> =
        Protocol::ALL.iter().map(|p| (p.to_string(), snap.cleaned_for(*p).to_addr_vec())).collect();
    let m = OverlapMatrix::new(&sets);
    // TCP/80 ∩ ICMP share — the headline "mostly also responsive to ICMP".
    let tcp80_row = sets.iter().position(|(l, _)| l == "TCP/80").expect("tcp80");
    let icmp_col = sets.iter().position(|(l, _)| l == "ICMP").expect("icmp");
    let text = format!(
        "Fig. 10 — protocol overlap (% of row set also in column set), {}\n\
         paper shape: TCP/UDP responders are mostly ⊂ ICMP; TCP/80 ~ TCP/443 overlap strongly\n\n{}\
         TCP/80 within ICMP: {:.1} %\n",
        snap.day.to_date(),
        m.render(),
        m.at(tcp80_row, icmp_col),
    );
    let icmp_cover = m.at(tcp80_row, icmp_col);
    ExpOutput {
        text,
        json: json!({ "labels": m.labels, "pct": m.pct, "tcp80_in_icmp": icmp_cover }),
    }
}

/// Extra (Sec. 4.1): EUI-64 analysis of the input list.
pub fn eui64(ctx: &Ctx) -> ExpOutput {
    use sixdust_addr::Eui64;
    let input = ctx.svc.input();
    let mut macs: HashMap<u64, u64> = HashMap::new();
    let mut eui_total = 0u64;
    for a in input {
        if let Some(e) = Eui64::from_addr(*a) {
            eui_total += 1;
            let mac = e.mac();
            let key = u64::from_be_bytes([0, 0, mac[0], mac[1], mac[2], mac[3], mac[4], mac[5]]);
            *macs.entry(key).or_insert(0) += 1;
        }
    }
    let distinct = macs.len() as u64;
    let top = macs.values().copied().max().unwrap_or(0);
    let singles = macs.values().filter(|n| **n == 1).count();
    let text = format!(
        "Sec. 4.1 — EUI-64 interface identifiers in the input\n\
         input addresses:        {}\n\
         with EUI-64 IID:        {} ({:.1} % — paper: 282 M of 790 M ≈ 36 %)\n\
         distinct MACs:          {} (paper: 22.7 M; addrs/MAC ≈ {:.1})\n\
         most frequent MAC in:   {} addresses (paper: 240 k, a ZTE OUI)\n\
         MACs seen once:         {}\n",
        human(input.len() as u64),
        human(eui_total),
        eui_total as f64 * 100.0 / input.len().max(1) as f64,
        human(distinct),
        eui_total as f64 / distinct.max(1) as f64,
        human(top),
        human(singles as u64),
    );
    ExpOutput {
        text,
        json: json!({ "input": input.len(), "eui64": eui_total,
            "distinct_macs": distinct, "top_mac_addrs": top, "single_macs": singles }),
    }
}

/// Ever-responsive stability stat (Sec. 4.3: 176.6 k responsive through
/// the whole period, 5.4 % of the final set).
pub fn stability(ctx: &Ctx) -> ExpOutput {
    // Approximate "always responsive" via intersection of snapshots.
    let mut always: Option<HashSet<Addr>> = None;
    for snap_day in Day::SNAPSHOTS {
        let set: HashSet<Addr> = ctx.snapshot_at(snap_day).cleaned_total().addrs().collect();
        always = Some(match always {
            None => set,
            Some(prev) => prev.intersection(&set).copied().collect(),
        });
    }
    let always = always.unwrap_or_default();
    let last = ctx.snapshot_at(Day::PAPER_END).cleaned_total().len();
    let text = format!(
        "Sec. 4.3 — stability: {} addresses responsive in every yearly snapshot\n\
         = {:.1} % of the final responsive set ({}) — paper: 5.4 %\n",
        human(always.len() as u64),
        always.len() as f64 * 100.0 / last.max(1) as f64,
        human(last as u64),
    );
    ExpOutput { text, json: json!({ "always": always.len(), "final": last }) }
}

/// Fig. 1: the service pipeline, as a diagram of the modules that realize it.
pub fn pipeline(_: &Ctx) -> ExpOutput {
    let text = "Fig. 1 — the IPv6 Hitlist service pipeline as realized by sixdust\n\
     \n\
     sources ──────────────┐\n\
       domain AAAA (zones) │\n\
       CT logs             │         ┌────────────┐   ┌─────────────────┐\n\
       RIPE-Atlas (CPE)    ├──► input│ blocklist  │──►│ aliased prefix  │\n\
       rDNS (one-time)     │   accum.│ filter     │   │ filter (MAPD)   │\n\
       traceroute feedback │         └────────────┘   └─────────────────┘\n\
     ──────────────────────┘                                  │\n\
                  ┌────────────────────┐   ┌──────────────┐   ▼\n\
                  │ GFW filter (NEW,   │◄──│ ZMapv6 scans │◄── 30-day filter\n\
                  │ cleans UDP/53)     │   │ 5 protocols  │\n\
                  └────────────────────┘   └──────┬───────┘\n\
                                                  │\n\
                                        Yarrp traceroutes ──► new input\n\
     \n\
     modules: sixdust-hitlist::{sources,filters,service}, sixdust-scan, sixdust-alias\n";
    ExpOutput { text: text.to_string(), json: json!({ "see": "DESIGN.md" }) }
}
