//! Publishing the service's artifacts.
//!
//! The real IPv6 Hitlist service publishes daily artifacts the community
//! consumes (responsive addresses, aliased prefixes, the input candidates,
//! and — since this paper — the GFW-filter output). This module renders
//! the same artifact set from a [`HitlistService`], in the same simple
//! one-entry-per-line text formats, plus a `registered.json` manifest.

use std::fmt::Write as _;
use std::path::Path;

use sixdust_addr::{Addr, AddrSet};
use sixdust_json::json_struct;

use crate::service::HitlistService;

/// The artifact set of one publication.
#[derive(Debug, Clone)]
pub struct Publication {
    /// ISO date of the underlying scan round.
    pub date: String,
    /// `responsive-addresses.txt` — one address per line, cleaned view.
    pub responsive: String,
    /// `aliased-prefixes.txt` — one labeled prefix per line.
    pub aliased_prefixes: String,
    /// `gfw-filtered.txt` — addresses removed by the paper's filter.
    pub gfw_filtered: String,
    /// `input-candidates.txt` — the accumulated input list.
    pub input: String,
    /// Per-protocol address files, keyed by the file stem
    /// (e.g. `responsive-udp53.txt`).
    pub per_protocol: Vec<(String, String)>,
    /// `manifest.json`-style summary.
    pub manifest: Manifest,
}

/// The machine-readable manifest of one publication.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// ISO date.
    pub date: String,
    /// Line counts per artifact.
    pub counts: Vec<(String, usize)>,
    /// Whether the GFW filter was active for this round.
    pub gfw_filter_active: bool,
    /// Stable per-artifact content digests (16 hex digits of
    /// [`content_digest`], the keyed sum over the item set), keyed by
    /// file stem. Content-derived,
    /// not render-derived: two manifests list the same digest exactly
    /// when the artifact holds the same addresses, so consumers can key
    /// ETags and deltas off it. Absent in manifests written before
    /// digests existed, hence the optional key.
    pub digests: Vec<(String, String)>,
}
json_struct!(Manifest { date, counts, gfw_filter_active, digests = Vec::new() });

/// The stable content digest recorded per artifact in
/// [`Manifest::digests`] — [`sixdust_addr::digest::content_digest`], the
/// same function the serve layer keys ETags and delta frames off, so the
/// two cannot disagree about what a set is called.
pub use sixdust_addr::digest::content_digest;

fn render(set: &AddrSet) -> String {
    let mut out = String::with_capacity(set.len() * 24);
    for a in set.addrs() {
        let _ = writeln!(out, "{a}");
    }
    out
}

/// Renders the current publication from a service.
pub fn publish(svc: &HitlistService) -> Publication {
    let last = svc.rounds().last();
    let date = last.map(|r| r.day.to_date()).unwrap_or_else(|| "unpublished".into());
    let gfw_active = last.map(|r| r.published == r.cleaned).unwrap_or(false);

    let responsive_set = svc.current_responsive();
    let responsive = render(responsive_set);
    let (aliased_prefixes, aliased_packed) = {
        let mut v: Vec<String> = svc.aliased().iter().map(|p| p.to_string()).collect();
        v.sort();
        let mut out = String::new();
        for p in v {
            let _ = writeln!(out, "{p}");
        }
        // Prefixes digest over their packed items, the same items the
        // serve layer ships them as.
        (out, svc.aliased().packed())
    };
    let gfw_impacted = svc.gfw_impacted();
    let gfw_filtered = render(&gfw_impacted);
    let input_set = AddrSet::from_sorted_addrs(svc.input());
    let input = render(&input_set);

    // Per-protocol slices of the last completed round's view, so a
    // mid-cadence publication reflects the current state.
    let proto_sets: Vec<(String, AddrSet)> = svc
        .proto_responsive()
        .into_iter()
        .map(|(p, set)| (format!("responsive-{}.txt", p.metric_key()), set))
        .collect();
    let per_protocol: Vec<(String, String)> =
        proto_sets.iter().map(|(stem, set)| (stem.clone(), render(set))).collect();

    let mut counts = vec![
        ("responsive-addresses.txt".to_string(), responsive.lines().count()),
        ("aliased-prefixes.txt".to_string(), aliased_prefixes.lines().count()),
        ("gfw-filtered.txt".to_string(), gfw_filtered.lines().count()),
        ("input-candidates.txt".to_string(), input.lines().count()),
    ];
    for (stem, body) in &per_protocol {
        counts.push((stem.clone(), body.lines().count()));
    }

    // One digest per counted artifact, in the same order.
    let digested = [responsive_set, &aliased_packed, &gfw_impacted, &input_set]
        .into_iter()
        .chain(proto_sets.iter().map(|(_, set)| set));
    let digests = counts
        .iter()
        .zip(digested.map(content_digest))
        .map(|((stem, _), digest)| (stem.clone(), format!("{digest:016x}")))
        .collect();

    Publication {
        manifest: Manifest { date: date.clone(), counts, gfw_filter_active: gfw_active, digests },
        date,
        responsive,
        aliased_prefixes,
        gfw_filtered,
        input,
        per_protocol,
    }
}

impl Publication {
    /// Writes every artifact into `dir`.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("responsive-addresses.txt"), &self.responsive)?;
        std::fs::write(dir.join("aliased-prefixes.txt"), &self.aliased_prefixes)?;
        std::fs::write(dir.join("gfw-filtered.txt"), &self.gfw_filtered)?;
        std::fs::write(dir.join("input-candidates.txt"), &self.input)?;
        for (stem, body) in &self.per_protocol {
            std::fs::write(dir.join(stem), body)?;
        }
        std::fs::write(dir.join("manifest.json"), sixdust_json::to_string_pretty(&self.manifest))?;
        Ok(())
    }

    /// Parses a published address file back into addresses (the consumer
    /// side: studies that build on the hitlist artifacts).
    pub fn parse_addresses(body: &str) -> Result<Vec<Addr>, std::net::AddrParseError> {
        body.lines().map(|l| l.trim().parse()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use sixdust_net::{Day, FaultConfig, Internet, Scale};

    fn published() -> Publication {
        let net = Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless());
        let mut svc =
            HitlistService::new(ServiceConfig::default().with_snapshot_days(vec![Day(8)]));
        svc.run(&net, Day(0), Day(8));
        publish(&svc)
    }

    #[test]
    fn artifacts_round_trip() {
        let p = published();
        assert_eq!(p.date, Day(8).to_date());
        let responsive = Publication::parse_addresses(&p.responsive).expect("valid addrs");
        assert!(!responsive.is_empty());
        // Sorted and deduplicated.
        let mut sorted = responsive.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, responsive);
    }

    #[test]
    fn manifest_counts_match_bodies() {
        let p = published();
        for (name, count) in &p.manifest.counts {
            let body = match name.as_str() {
                "responsive-addresses.txt" => &p.responsive,
                "aliased-prefixes.txt" => &p.aliased_prefixes,
                "gfw-filtered.txt" => &p.gfw_filtered,
                "input-candidates.txt" => &p.input,
                other => {
                    &p.per_protocol
                        .iter()
                        .find(|(s, _)| s == other)
                        .expect("manifest names a real artifact")
                        .1
                }
            };
            assert_eq!(body.lines().count(), *count, "{name}");
        }
    }

    #[test]
    fn per_protocol_files_present() {
        let p = published();
        assert_eq!(p.per_protocol.len(), 5);
        assert!(p.per_protocol.iter().any(|(s, _)| s == "responsive-udp53.txt"));
    }

    #[test]
    fn writes_to_disk() {
        let p = published();
        let dir = std::env::temp_dir().join(format!("sixdust-pub-{}", std::process::id()));
        p.write_to(&dir).expect("write artifacts");
        let body = std::fs::read_to_string(dir.join("responsive-addresses.txt")).unwrap();
        assert_eq!(body, p.responsive);
        assert!(dir.join("manifest.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_digests_cover_every_artifact_and_are_content_stable() {
        let p = published();
        // Every counted artifact carries a digest, in the same stem order.
        let count_stems: Vec<&String> = p.manifest.counts.iter().map(|(s, _)| s).collect();
        let digest_stems: Vec<&String> = p.manifest.digests.iter().map(|(s, _)| s).collect();
        assert_eq!(count_stems, digest_stems);
        for (stem, hex) in &p.manifest.digests {
            assert_eq!(hex.len(), 16, "{stem} digest is 16 hex digits");
            assert!(hex.bytes().all(|b| b.is_ascii_hexdigit()));
        }
        // The digest is derived from content, not render order.
        let addrs = Publication::parse_addresses(&p.responsive).expect("valid");
        let set: AddrSet = addrs.iter().copied().collect();
        let expected = format!("{:016x}", content_digest(set.iter()));
        let (_, recorded) = p
            .manifest
            .digests
            .iter()
            .find(|(s, _)| s == "responsive-addresses.txt")
            .expect("responsive digest present");
        assert_eq!(recorded, &expected);
    }

    #[test]
    fn manifest_stays_backward_readable() {
        // A manifest written before digests existed (no `digests` key)
        // must still deserialize; the field defaults to empty.
        let old = r#"{
            "date": "2021-06-01",
            "counts": [["responsive-addresses.txt", 3]],
            "gfw_filter_active": false
        }"#;
        let m: Manifest = sixdust_json::from_str(old).expect("old manifest readable");
        assert!(m.digests.is_empty());
        assert_eq!(m.counts.len(), 1);
        // And a new manifest round-trips with digests intact.
        let p = published();
        let json = sixdust_json::to_string(&p.manifest);
        let back: Manifest = sixdust_json::from_str(&json).expect("round trip");
        assert_eq!(back.digests, p.manifest.digests);
    }

    #[test]
    fn aliased_file_holds_prefixes() {
        let p = published();
        for line in p.aliased_prefixes.lines().take(10) {
            let _: sixdust_addr::Prefix = line.parse().expect("valid prefix line");
        }
    }
}
