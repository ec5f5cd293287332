//! The Great Firewall of China's DNS injection middlebox.
//!
//! The paper's central cleaning finding (Sec. 4.2): probes for blocked
//! domains crossing into Chinese networks trigger *injected* DNS answers
//! regardless of whether the probed address hosts anything. ZMapv6 counts
//! any parseable answer as success, so 134 M addresses accumulated as
//! "responsive to UDP/53". Observable behaviours reproduced here:
//!
//! * Injection only for **blocked** names; an unblocked (e.g. self-owned)
//!   domain gets no answer at all, not even an error.
//! * Multiple injectors → two to three duplicate answers per query
//!   (with a rare heavy tail, up to 440 in the paper's worst case).
//! * Era-dependent payloads: earlier events answered AAAA queries with
//!   **A records** holding IPv4 addresses of unrelated operators
//!   (Facebook, Microsoft, Dropbox, Twitter); the 2021/2022 event answered
//!   with **Teredo** AAAA records embedding such IPv4s.
//! * Injection is intermittent: active only inside the three event windows
//!   (`events::GFW_ERA{1,2,3}`), which is what makes the published
//!   time series spike and fall (Fig. 3 left).

use sixdust_addr::{prf, teredo, Addr};
use sixdust_wire::dns::{DnsMessage, Rcode, Rdata, Record};

use crate::time::{events, Day};

/// Domains the firewall censors (the probe domain `www.google.com` among
/// them, which is why the hitlist's DNS scan triggers injection).
pub const BLOCKED_DOMAINS: &[&str] = &[
    "www.google.com",
    "google.com",
    "www.facebook.com",
    "facebook.com",
    "twitter.com",
    "www.youtube.com",
    "en.wikipedia.org",
];

/// IPv4 addresses of unrelated operators observed inside injected answers
/// (Facebook, Microsoft, Dropbox, Twitter ranges — representative values).
pub const WRONG_OPERATOR_V4: &[u32] = &[
    0x1fd5_2e23, // 31.213.46.35   (Facebook-ish)
    0x9df0_0080, // 157.240.0.128  (Facebook)
    0x0d6b_1560, // 13.107.21.96   (Microsoft)
    0xa2a3_54a0, // 162.163.84.160 (Dropbox-ish)
    0x6810_9540, // 104.16.149.64
    0x67d8_4020, // 103.216.64.32  (Twitter-ish)
];

/// Which injection era is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GfwEra {
    /// First event: A-record injection.
    ARecord1,
    /// Second event: A-record injection.
    ARecord2,
    /// Third (largest) event: Teredo AAAA injection.
    Teredo,
}

/// The firewall model.
#[derive(Debug, Clone)]
pub struct Gfw {
    seed: u64,
}

impl Gfw {
    /// Creates the firewall with a PRF seed.
    pub fn new(seed: u64) -> Gfw {
        Gfw { seed }
    }

    /// Whether a name is censored.
    pub fn is_blocked(name: &str) -> bool {
        BLOCKED_DOMAINS.iter().any(|d| name.eq_ignore_ascii_case(d))
    }

    /// The era active on `day`, if any.
    pub fn era(day: Day) -> Option<GfwEra> {
        if day >= events::GFW_ERA1.0 && day < events::GFW_ERA1.1 {
            Some(GfwEra::ARecord1)
        } else if day >= events::GFW_ERA2.0 && day < events::GFW_ERA2.1 {
            Some(GfwEra::ARecord2)
        } else if day >= events::GFW_ERA3.0 && day < events::GFW_ERA3.1 {
            Some(GfwEra::Teredo)
        } else {
            None
        }
    }

    /// Produces the injected responses for a query toward `dst` (already
    /// known to be behind the firewall). Empty when no era is active or the
    /// name is not blocked.
    pub fn inject(&self, dst: Addr, query: &DnsMessage, day: Day) -> Vec<DnsMessage> {
        let Some(era) = Gfw::era(day) else {
            return Vec::new();
        };
        let Some(qname) = query.qname() else {
            return Vec::new();
        };
        if !Gfw::is_blocked(qname) {
            // Silence: no response, not even an error (Sec. 4.2).
            return Vec::new();
        }
        // Two or three injectors answer; a rare heavy tail floods more.
        let n = if prf::chance(self.seed, dst.0, 0x6F1, 1, 1000) {
            4 + prf::uniform(self.seed, dst.0, 0x6F2, 12)
        } else {
            2 + prf::uniform(self.seed, dst.0, 0x6F3, 2)
        };
        let qname = qname.to_string();
        (0..n)
            .map(|i| {
                let v4 = WRONG_OPERATOR_V4[(prf::mix2(self.seed ^ i, dst.iid())
                    % WRONG_OPERATOR_V4.len() as u64)
                    as usize];
                let mut resp = DnsMessage::response_to(query, Rcode::NoError);
                resp.ra = true;
                let rdata = match era {
                    GfwEra::ARecord1 | GfwEra::ARecord2 => Rdata::A(v4),
                    GfwEra::Teredo => Rdata::Aaaa(teredo::encode(teredo::TeredoParts {
                        server_v4: v4,
                        flags: 0x8000,
                        client_port: (prf::mix2(self.seed, i) & 0xffff) as u16,
                        client_v4: v4.rotate_left(8),
                    })),
                };
                resp.answers.push(Record { name: qname.clone(), ttl: 60 + i as u32, rdata });
                resp
            })
            .collect()
    }
}

/// Detects whether a DNS response looks like a GFW injection — the test
/// the paper's cleaning filter applies to ZMap output: an AAAA answer that
/// is a Teredo address, or an A record answering an AAAA query.
pub fn looks_injected(resp: &DnsMessage) -> bool {
    resp.answers.iter().any(|r| match &r.rdata {
        Rdata::A(_) => true, // IPv4 answer to an AAAA probe
        Rdata::Aaaa(a6) => teredo::is_teredo(*a6),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query() -> DnsMessage {
        DnsMessage::aaaa_query(7, "www.google.com")
    }

    fn dst() -> Addr {
        "2400:1234::9".parse().unwrap()
    }

    #[test]
    fn blocked_domains_match() {
        assert!(Gfw::is_blocked("www.google.com"));
        assert!(Gfw::is_blocked("WWW.GOOGLE.COM"));
        assert!(!Gfw::is_blocked("example.org"));
    }

    #[test]
    fn injects_only_during_eras() {
        let g = Gfw::new(1);
        assert!(g.inject(dst(), &query(), Day(0)).is_empty());
        assert!(!g.inject(dst(), &query(), events::GFW_ERA1.0).is_empty());
        assert!(g.inject(dst(), &query(), events::GFW_ERA1.1).is_empty());
        assert!(!g.inject(dst(), &query(), events::GFW_ERA3.0.plus(10)).is_empty());
    }

    #[test]
    fn silence_for_unblocked_domains() {
        let g = Gfw::new(1);
        let q = DnsMessage::aaaa_query(7, "sixdust-owned.test");
        assert!(g.inject(dst(), &q, events::GFW_ERA3.0).is_empty());
    }

    #[test]
    fn multiple_injectors() {
        let g = Gfw::new(1);
        let rs = g.inject(dst(), &query(), events::GFW_ERA3.0);
        assert!(rs.len() >= 2, "{} responses", rs.len());
        for r in &rs {
            assert!(r.is_response);
            assert_eq!(r.id, 7, "transaction id echoed");
        }
    }

    #[test]
    fn era_payload_types() {
        let g = Gfw::new(1);
        let a_era = g.inject(dst(), &query(), events::GFW_ERA1.0);
        assert!(a_era.iter().all(|r| matches!(r.answers[0].rdata, Rdata::A(_))));
        let teredo_era = g.inject(dst(), &query(), events::GFW_ERA3.0);
        assert!(teredo_era.iter().all(|r| match &r.answers[0].rdata {
            Rdata::Aaaa(a6) => teredo::is_teredo(*a6),
            _ => false,
        }));
    }

    #[test]
    fn injected_responses_are_detectable() {
        let g = Gfw::new(1);
        for day in [events::GFW_ERA1.0, events::GFW_ERA2.0, events::GFW_ERA3.0] {
            for r in g.inject(dst(), &query(), day) {
                assert!(looks_injected(&r));
            }
        }
        // A legitimate answer is not flagged.
        let mut ok = DnsMessage::response_to(&query(), Rcode::NoError);
        ok.answers.push(Record {
            name: "www.google.com".into(),
            ttl: 60,
            rdata: Rdata::Aaaa("2a00:1450:4001::68".parse().unwrap()),
        });
        assert!(!looks_injected(&ok));
    }

    #[test]
    fn deterministic() {
        let g = Gfw::new(5);
        let a = g.inject(dst(), &query(), events::GFW_ERA3.0);
        let b = g.inject(dst(), &query(), events::GFW_ERA3.0);
        assert_eq!(a, b);
    }
}
