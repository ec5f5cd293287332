//! Self-contained static HTML ops dashboard: series sparklines, SLO
//! burn state, the round-health timeline and flight-recorder captures,
//! rendered into one file with zero external dependencies.
//!
//! The renderer is a pure function of the recorded telemetry: inline
//! SVG sparklines, inline CSS, no scripts, no fonts, no timestamps.
//! Only deterministic series columns (see
//! [`is_deterministic_metric`](crate::is_deterministic_metric)) are
//! drawn, so two runs at the same seed produce **byte-identical** HTML —
//! pinned by the root `tests/observability.rs` suite and cheap to diff
//! in CI or archive next to a published hitlist round.

use std::fmt::Write as _;

use crate::observer::Observer;
use crate::series::{is_deterministic_metric, SeriesRound};

/// Maximum points per sparkline; longer series are downsampled by
/// bucket-maximum so spikes survive.
const SPARK_POINTS: usize = 160;
/// Maximum breach-log rows rendered (the count of omitted rows is
/// stated, never silent).
const MAX_BREACH_ROWS: usize = 100;

/// Borrowed inputs for one dashboard render.
pub struct Dashboard<'a> {
    /// Page title.
    pub title: &'a str,
    /// Subtitle line (seed, scale, …) — must itself be deterministic.
    pub subtitle: &'a str,
    /// The recorded series, the SLO state and, through the observed
    /// registry, the flight recorder's captures.
    pub observer: &'a Observer,
}

impl Dashboard<'_> {
    /// Renders the complete HTML document.
    pub fn render(&self) -> String {
        let rounds: Vec<&SeriesRound> = self.observer.series().rounds().collect();
        let mut out = String::with_capacity(64 * 1024);
        self.head(&mut out);
        self.tiles(&mut out, &rounds);
        self.slo_section(&mut out);
        self.timeline(&mut out, &rounds);
        self.sparklines(&mut out, &rounds);
        self.captures(&mut out);
        out.push_str(
            "<footer>sixdust ops dashboard · deterministic render \
                      (wall-clock series excluded)</footer>\n</body>\n</html>\n",
        );
        out
    }

    fn head(&self, out: &mut String) {
        out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
        out.push_str("<title>");
        escape_html(self.title, out);
        out.push_str("</title>\n<style>\n");
        out.push_str(CSS);
        out.push_str("</style>\n</head>\n<body>\n<h1>");
        escape_html(self.title, out);
        out.push_str("</h1>\n<p class=\"sub\">");
        escape_html(self.subtitle, out);
        out.push_str("</p>\n");
    }

    fn tiles(&self, out: &mut String, rounds: &[&SeriesRound]) {
        let sum = |metric: &str| -> u64 { rounds.iter().filter_map(|r| r.value(metric)).sum() };
        let breach_rounds: u64 =
            self.observer.slo().status().iter().map(|st| st.breach_rounds).sum();
        let captures =
            self.observer.registry().flight().map(|f| f.captures_len() as u64).unwrap_or(0);
        out.push_str("<div class=\"tiles\">\n");
        tile(out, "rounds", rounds.len() as u64);
        tile(out, "degraded rounds", sum("service.degraded_rounds"));
        tile(out, "anomaly flags", sum("service.anomalies"));
        tile(out, "SLO breach rounds", breach_rounds);
        tile(out, "flight captures", captures);
        tile(out, "requests served", sum("serve.requests"));
        out.push_str("</div>\n");
    }

    fn slo_section(&self, out: &mut String) {
        let engine = self.observer.slo();
        out.push_str(
            "<h2>Service-level objectives</h2>\n<table>\n<tr><th>SLO</th>\
                      <th>budget</th><th>burn (short)</th><th>burn (long)</th>\
                      <th>breached rounds</th><th>observed</th><th>state</th></tr>\n",
        );
        for st in engine.status() {
            out.push_str("<tr><td>");
            escape_html(&st.name, out);
            let _ = write!(
                out,
                "</td><td>{}‰</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>",
                st.budget_permille,
                burn(st.burn_short_milli),
                burn(st.burn_long_milli),
                st.breach_rounds,
                st.observed_rounds
            );
            out.push_str(if st.breached_now {
                "<td class=\"bad\">BREACH</td></tr>\n"
            } else {
                "<td class=\"ok\">ok</td></tr>\n"
            });
        }
        out.push_str("</table>\n");

        let breaches = engine.breaches();
        if !breaches.is_empty() {
            out.push_str(
                "<h3>Breach log</h3>\n<table>\n<tr><th>round</th><th>SLO</th>\
                          <th>bad</th><th>burn short</th><th>burn long</th><th>onset</th></tr>\n",
            );
            for b in breaches.iter().take(MAX_BREACH_ROWS) {
                let _ = write!(out, "<tr><td>{}</td><td>", b.key);
                escape_html(&b.slo, out);
                let _ = writeln!(
                    out,
                    "</td><td>{}‰</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                    b.bad_permille,
                    burn(b.burn_short_milli),
                    burn(b.burn_long_milli),
                    if b.onset { "●" } else { "" }
                );
            }
            if breaches.len() > MAX_BREACH_ROWS {
                let _ = writeln!(
                    out,
                    "<tr><td colspan=\"6\">… and {} more</td></tr>",
                    breaches.len() - MAX_BREACH_ROWS
                );
            }
            out.push_str("</table>\n");
            if engine.dropped_breaches() > 0 {
                let _ = writeln!(
                    out,
                    "<p class=\"sub\">{} older breach entries aged out of the log.</p>",
                    engine.dropped_breaches()
                );
            }
        }
    }

    /// One cell per round: red = degraded, amber = anomaly-flagged,
    /// green = clean. Downsampled worst-state-wins so an incident can't
    /// vanish between pixels.
    fn timeline(&self, out: &mut String, rounds: &[&SeriesRound]) {
        if rounds.is_empty() {
            return;
        }
        // 0 = clean, 1 = anomalous, 2 = degraded.
        let states: Vec<u64> = rounds
            .iter()
            .map(|r| {
                if r.value("service.degraded_rounds").unwrap_or(0) > 0 {
                    2
                } else if r.value("service.anomalies").unwrap_or(0) > 0 {
                    1
                } else {
                    0
                }
            })
            .collect();
        let cells = downsample_max(&states, 320);
        let w = 3u64;
        out.push_str("<h2>Round health</h2>\n");
        let _ = write!(
            out,
            "<svg class=\"strip\" width=\"{}\" height=\"14\" viewBox=\"0 0 {} 14\">",
            cells.len() as u64 * w,
            cells.len() as u64 * w
        );
        for (i, s) in cells.iter().enumerate() {
            let color = match s {
                2 => "#c53030",
                1 => "#dd8a12",
                _ => "#2f855a",
            };
            let _ = write!(
                out,
                "<rect x=\"{}\" y=\"0\" width=\"{}\" height=\"14\" fill=\"{}\"/>",
                i as u64 * w,
                w,
                color
            );
        }
        out.push_str("</svg>\n");
        let _ = writeln!(
            out,
            "<p class=\"sub\">rounds {} – {} · red degraded · amber anomaly · green clean</p>",
            rounds.first().expect("non-empty").key,
            rounds.last().expect("non-empty").key
        );
    }

    fn sparklines(&self, out: &mut String, rounds: &[&SeriesRound]) {
        let names: Vec<String> = (self.observer.series().metric_names().into_iter())
            .filter(|n| is_deterministic_metric(n))
            .collect();
        let mut flat_zero = 0usize;
        out.push_str("<h2>Metric series</h2>\n");
        let mut group = "";
        let mut open = false;
        for name in &names {
            let values: Vec<u64> = rounds.iter().map(|r| r.value(name).unwrap_or(0)).collect();
            let Some(&max) = values.iter().max() else { continue };
            if max == 0 {
                flat_zero += 1;
                continue;
            }
            let this_group = name.split('.').next().unwrap_or("");
            if this_group != group {
                if open {
                    out.push_str("</div>\n");
                }
                group = this_group;
                out.push_str("<h3>");
                escape_html(group, out);
                out.push_str("</h3>\n<div class=\"grid\">\n");
                open = true;
            }
            let min = *values.iter().min().expect("non-empty");
            let last = *values.last().expect("non-empty");
            out.push_str("<div class=\"card\"><div class=\"mname\">");
            escape_html(name, out);
            out.push_str("</div>");
            sparkline_svg(&downsample_max(&values, SPARK_POINTS), out);
            let _ = writeln!(
                out,
                "<div class=\"mstat\">last {last} · min {min} · max {max}</div></div>"
            );
        }
        if open {
            out.push_str("</div>\n");
        }
        let _ = writeln!(
            out,
            "<p class=\"sub\">{} deterministic metrics ({} flat-zero omitted); \
             wall-clock duration series excluded by design.</p>",
            names.len(),
            flat_zero
        );
    }

    fn captures(&self, out: &mut String) {
        let Some(flight) = self.observer.registry().flight() else { return };
        let captures = flight.captures();
        if captures.is_empty() {
            return;
        }
        out.push_str("<h2>Flight-recorder captures</h2>\n");
        for c in &captures {
            out.push_str("<details><summary>");
            escape_html(&c.reason, out);
            let _ = write!(
                out,
                " · round {} · {} events · {} rounds of context</summary><pre>",
                c.key,
                c.events.len(),
                c.rounds.len()
            );
            escape_html(&sixdust_json::to_string_pretty(c), out);
            out.push_str("</pre></details>\n");
        }
        if flight.dropped_captures() > 0 {
            let _ = writeln!(
                out,
                "<p class=\"sub\">{} further incidents fired after the capture bound.</p>",
                flight.dropped_captures()
            );
        }
    }
}

/// Downsamples to at most `cap` buckets taking each bucket's maximum,
/// so spikes survive compression. Pure integer math.
fn downsample_max(values: &[u64], cap: usize) -> Vec<u64> {
    if values.len() <= cap {
        return values.to_vec();
    }
    (0..cap)
        .map(|b| {
            let lo = b * values.len() / cap;
            let hi = ((b + 1) * values.len() / cap).max(lo + 1);
            values[lo..hi].iter().copied().max().unwrap_or(0)
        })
        .collect()
}

/// Renders one inline-SVG sparkline. Integer coordinates only, so the
/// byte output is a pure function of the values.
fn sparkline_svg(values: &[u64], out: &mut String) {
    const W: u64 = 240;
    const H: u64 = 36;
    const PAD: u64 = 3;
    let min = values.iter().copied().min().unwrap_or(0);
    let max = values.iter().copied().max().unwrap_or(0);
    let span = (max - min).max(1);
    let _ =
        write!(out, "<svg class=\"spark\" width=\"{W}\" height=\"{H}\" viewBox=\"0 0 {W} {H}\">");
    if values.len() == 1 {
        let _ = write!(out, "<circle cx=\"{}\" cy=\"{}\" r=\"2\" fill=\"#2b6cb0\"/>", W / 2, H / 2);
    } else {
        out.push_str("<polyline fill=\"none\" stroke=\"#2b6cb0\" stroke-width=\"1\" points=\"");
        let n = values.len() as u64;
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            let x = PAD + (i as u64) * (W - 2 * PAD) / (n - 1);
            let y = H - PAD - (v - min) * (H - 2 * PAD) / span;
            let _ = write!(out, "{x},{y}");
        }
        out.push_str("\"/>");
    }
    out.push_str("</svg>");
}

fn tile(out: &mut String, label: &str, value: u64) {
    let _ =
        write!(out, "<div class=\"tile\"><div class=\"tval\">{value}</div><div class=\"tlbl\">");
    escape_html(label, out);
    out.push_str("</div></div>\n");
}

/// Burn rate in milli rendered as a fixed one-decimal multiplier
/// (`1500` → `1.5×`) — no float formatting anywhere.
fn burn(milli: u64) -> String {
    format!("{}.{}×", milli / 1000, (milli % 1000) / 100)
}

fn escape_html(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

const CSS: &str = "\
body{font-family:system-ui,sans-serif;margin:24px auto;max-width:1080px;color:#1a202c;background:#fbfbf8}
h1{margin-bottom:2px}h2{margin-top:28px;border-bottom:1px solid #e2e8f0}
.sub{color:#718096;font-size:13px;margin-top:2px}
.tiles{display:flex;flex-wrap:wrap;gap:10px;margin:16px 0}
.tile{background:#fff;border:1px solid #e2e8f0;border-radius:6px;padding:10px 16px;min-width:110px}
.tval{font-size:22px;font-weight:600}.tlbl{font-size:12px;color:#718096}
table{border-collapse:collapse;font-size:13px}
td,th{border:1px solid #e2e8f0;padding:4px 10px;text-align:left}
th{background:#edf2f7}.ok{color:#2f855a;font-weight:600}.bad{color:#c53030;font-weight:600}
.grid{display:flex;flex-wrap:wrap;gap:10px}
.card{background:#fff;border:1px solid #e2e8f0;border-radius:6px;padding:8px;width:256px}
.mname{font-size:12px;font-weight:600;word-break:break-all}
.mstat{font-size:11px;color:#718096}
.spark{display:block;margin:4px 0}.strip{display:block;border:1px solid #e2e8f0}
details{margin:6px 0}summary{cursor:pointer;font-size:13px}
pre{background:#fff;border:1px solid #e2e8f0;border-radius:6px;padding:8px;font-size:11px;overflow-x:auto;white-space:pre-wrap;word-break:break-all}
footer{margin-top:32px;color:#a0aec0;font-size:12px}
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::FlightRecorder;
    use crate::registry::Registry;
    use crate::slo::{SloEngine, SloSpec};

    fn build() -> String {
        let reg = Registry::new();
        reg.install_flight(&FlightRecorder::new());
        let slo = SloEngine::new(vec![SloSpec::ratio("avail", "bad", "total", 50, 1, 2, 2000)]);
        let mut observer = Observer::new(&reg, slo);
        for k in 0..6u32 {
            reg.counter("total").add(100);
            reg.counter("bad").add(if k >= 3 { 30 } else { 0 });
            reg.gauge("service.publish.staleness_rounds").set(i64::from(k));
            reg.histogram("service.round.phase.scan_ms").record(5);
            observer.record(k);
        }
        Dashboard { title: "test <dash>", subtitle: "seed 0x1", observer: &observer }.render()
    }

    #[test]
    fn render_is_deterministic_and_self_contained() {
        let a = build();
        assert_eq!(a, build(), "same telemetry, same bytes");
        assert!(a.starts_with("<!DOCTYPE html>"));
        assert!(a.ends_with("</html>\n"));
        assert!(!a.contains("http://") && !a.contains("https://"), "no external refs");
        assert!(!a.contains("<script"), "no scripts");
    }

    #[test]
    fn render_escapes_excludes_wall_clock_and_shows_breaches() {
        let html = build();
        assert!(html.contains("test &lt;dash&gt;"), "title escaped");
        assert!(!html.contains("scan_ms"), "wall-clock series excluded");
        assert!(html.contains("slo:avail"), "capture rendered");
        assert!(html.contains("BREACH") || html.contains("breach"), "slo state shown");
        assert!(html.contains("service.publish.staleness_rounds"), "gauge sparkline present");
    }

    #[test]
    fn downsample_keeps_spikes() {
        let mut v = vec![1u64; 1000];
        v[777] = 999;
        let d = downsample_max(&v, 160);
        assert_eq!(d.len(), 160);
        assert_eq!(d.iter().copied().max(), Some(999));
        // Short inputs pass through untouched.
        assert_eq!(downsample_max(&[5, 6], 160), vec![5, 6]);
    }

    #[test]
    fn burn_formatting_is_fixed_point() {
        assert_eq!(burn(0), "0.0×");
        assert_eq!(burn(1000), "1.0×");
        assert_eq!(burn(2567), "2.5×");
        assert_eq!(burn(20_000), "20.0×");
    }
}
