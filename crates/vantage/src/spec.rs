//! Vantage-point rosters.

use sixdust_json::json_struct;

/// The ASN of the service's historical single vantage (the Munich
/// measurement network every pre-fleet round scanned from). A fleet's
/// vantage 0 always carries this ASN so `N = 1` reproduces today's
/// pipeline byte-for-byte.
pub const DEFAULT_VANTAGE_ASN: u32 = 64496;

/// One vantage point: where a scanner stands.
///
/// The ASN identifies (and, for non-default vantages, allocates) the
/// source AS in the registry; the country code decides regional policy —
/// `"CN"` puts the vantage behind the Great Firewall, so its UDP/53
/// probes for blocked names are egress-filtered during filtering eras
/// and it never sees the injected answers foreign vantages mistake for
/// responsiveness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VantageSpec {
    /// Source AS number.
    pub asn: u32,
    /// Registry display name.
    pub name: String,
    /// ISO country code; drives GFW position and disagreement labels.
    pub country: String,
}
json_struct!(VantageSpec { asn, name, country });

impl VantageSpec {
    /// Builds a spec.
    pub fn new(asn: u32, name: &str, country: &str) -> VantageSpec {
        VantageSpec { asn, name: name.to_string(), country: country.to_string() }
    }

    /// The default N-vantage roster. Index 0 is always the historical
    /// Munich vantage (already present in every registry); 1 adds a US
    /// vantage, 2 a Chinese vantage behind the GFW, and further slots
    /// cycle through additional neutral regions. Deterministic: the same
    /// `n` always yields the same roster.
    pub fn default_roster(n: usize) -> Vec<VantageSpec> {
        const EXTRA: [(&str, &str); 4] = [
            ("NL", "SIXDUST-MSM-NL"),
            ("JP", "SIXDUST-MSM-JP"),
            ("BR", "SIXDUST-MSM-BR"),
            ("AU", "SIXDUST-MSM-AU"),
        ];
        let mut roster = Vec::with_capacity(n.max(1));
        roster.push(VantageSpec::new(DEFAULT_VANTAGE_ASN, "SIXDUST-MSM", "DE"));
        if n > 1 {
            roster.push(VantageSpec::new(64497, "SIXDUST-MSM-US", "US"));
        }
        if n > 2 {
            roster.push(VantageSpec::new(64498, "SIXDUST-MSM-CN", "CN"));
        }
        for i in 3..n {
            let (country, name) = EXTRA[(i - 3) % EXTRA.len()];
            roster.push(VantageSpec::new(64499 + (i as u32 - 3), name, country));
        }
        roster
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_starts_with_the_historical_vantage() {
        for n in 1..=6 {
            let roster = VantageSpec::default_roster(n);
            assert_eq!(roster.len(), n);
            assert_eq!(roster[0].asn, DEFAULT_VANTAGE_ASN);
            assert_eq!(roster[0].country, "DE");
        }
    }

    #[test]
    fn roster_is_deterministic_and_asn_unique() {
        let a = VantageSpec::default_roster(7);
        let b = VantageSpec::default_roster(7);
        assert_eq!(a, b);
        let mut asns: Vec<u32> = a.iter().map(|v| v.asn).collect();
        asns.sort_unstable();
        asns.dedup();
        assert_eq!(asns.len(), 7, "every vantage gets its own ASN");
    }

    #[test]
    fn third_vantage_is_behind_the_gfw() {
        let roster = VantageSpec::default_roster(3);
        assert_eq!(roster[2].country, "CN");
    }
}
