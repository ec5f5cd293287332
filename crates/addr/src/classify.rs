//! Interface-identifier classification.
//!
//! The TGA literature the paper builds on (Gasser 2018's hitlist analysis,
//! 6GAN's "multi-pattern" seed classes) sorts addresses by how their IID
//! was assigned. These categories drive the bias analyses: low-byte IIDs
//! mean manually numbered servers, EUI-64 means SLAAC CPE, embedded-IPv4
//! means dual-stack conventions, high-entropy means privacy extensions or
//! load balancers.

use crate::{Addr, Eui64};

/// How an address's interface identifier appears to have been assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IidClass {
    /// Small-integer IIDs (`::1`, `::2:15`) — manually numbered hosts.
    LowByte,
    /// MAC-derived SLAAC IIDs with the `ff:fe` marker.
    Eui64,
    /// An IPv4 address embedded in the IID (`::192.0.2.1` conventions,
    /// hex- or dotted-style).
    EmbeddedIpv4,
    /// IIDs built from the service port or repeated "word" nibbles
    /// (`::80`, `::53:53`, `::cafe`, `::beef`).
    PortOrWord,
    /// Everything else: privacy extensions, hashes, load-balancer draws.
    Random,
}

impl IidClass {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            IidClass::LowByte => "low-byte",
            IidClass::Eui64 => "eui-64",
            IidClass::EmbeddedIpv4 => "embedded-ipv4",
            IidClass::PortOrWord => "port/word",
            IidClass::Random => "random",
        }
    }
}

/// Hex "words" that show up in hand-assigned IIDs.
const WORDS: [u16; 8] = [0xcafe, 0xbeef, 0xdead, 0xbabe, 0xface, 0xf00d, 0xc0de, 0xabba];

/// Common service ports used as vanity IIDs.
const PORTS: [u64; 6] = [25, 53, 80, 110, 143, 443];

/// Classifies an address's interface identifier.
///
/// ```
/// use sixdust_addr::{classify_iid, IidClass};
/// assert_eq!(classify_iid("2001:db8::1".parse().unwrap()), IidClass::LowByte);
/// assert_eq!(classify_iid("2001:db8::443".parse().unwrap()), IidClass::PortOrWord);
/// ```
pub fn classify_iid(addr: Addr) -> IidClass {
    let iid = addr.iid();
    if Eui64::addr_is_eui64(addr) {
        return IidClass::Eui64;
    }
    let groups = [(iid >> 48) as u16, (iid >> 32) as u16, (iid >> 16) as u16, iid as u16];
    // The group's hex digits read as a decimal number <= 255.
    let hexdec =
        |g: u16| -> Option<u64> { format!("{g:x}").parse::<u64>().ok().filter(|v| *v <= 255) };
    // Hex-embedded IPv4: all four groups hold octet values written in
    // decimal digits and the leading group is set (::192:0:2:1).
    if groups[0] != 0 && groups.iter().all(|g| hexdec(*g).is_some()) {
        return IidClass::EmbeddedIpv4;
    }
    // Dotted-style embedding packed into the low 32 bits of a private or
    // classic range (::c0a8:101 = 192.168.1.1).
    if iid > 0 && iid >> 32 == 0 {
        let octets = (iid as u32).to_be_bytes();
        if octets[0] == 10 || (octets[0] == 192 && octets[1] == 168) || octets[0] == 172 {
            return IidClass::EmbeddedIpv4;
        }
    }
    // Vanity service ports, read the way operators write them (`::443`
    // means the hex digits "443").
    if iid > 0 && iid < 0x1_0000 {
        if let Some(v) = hexdec(groups[3]).or_else(|| format!("{iid:x}").parse().ok()) {
            if PORTS.contains(&v) {
                return IidClass::PortOrWord;
            }
        }
    }
    // Vanity words anywhere in the IID's groups.
    if groups.iter().any(|g| WORDS.contains(g)) {
        return IidClass::PortOrWord;
    }
    // Small integers confined to the low nibbles: hand-numbered hosts.
    if iid > 0 && iid < 1 << 24 {
        return IidClass::LowByte;
    }
    IidClass::Random
}

/// Classification counts over a corpus.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IidBreakdown {
    /// Count per class, in [`IidClass`] declaration order.
    pub counts: [u64; 5],
    /// Total classified.
    pub total: u64,
}

impl IidBreakdown {
    /// Classifies a corpus.
    pub fn of(addrs: impl IntoIterator<Item = Addr>) -> IidBreakdown {
        let mut b = IidBreakdown::default();
        for a in addrs {
            let idx = match classify_iid(a) {
                IidClass::LowByte => 0,
                IidClass::Eui64 => 1,
                IidClass::EmbeddedIpv4 => 2,
                IidClass::PortOrWord => 3,
                IidClass::Random => 4,
            };
            b.counts[idx] += 1;
            b.total += 1;
        }
        b
    }

    /// Share of a class (0..=1).
    pub fn share(&self, class: IidClass) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let idx = match class {
            IidClass::LowByte => 0,
            IidClass::Eui64 => 1,
            IidClass::EmbeddedIpv4 => 2,
            IidClass::PortOrWord => 3,
            IidClass::Random => 4,
        };
        self.counts[idx] as f64 / self.total as f64
    }

    /// `(label, count)` rows in declaration order.
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        [
            IidClass::LowByte,
            IidClass::Eui64,
            IidClass::EmbeddedIpv4,
            IidClass::PortOrWord,
            IidClass::Random,
        ]
        .iter()
        .zip(self.counts.iter())
        .map(|(c, n)| (c.label(), *n))
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    #[test]
    fn low_byte() {
        assert_eq!(classify_iid(a("2001:db8::1")), IidClass::LowByte);
        assert_eq!(classify_iid(a("2001:db8::2:15")), IidClass::LowByte);
        assert_ne!(classify_iid(a("2001:db8::")), IidClass::LowByte, "zero IID");
    }

    #[test]
    fn eui64() {
        let e = Eui64::from_oui_serial(0x001422, 7).apply_to(a("2001:db8::"));
        assert_eq!(classify_iid(e), IidClass::Eui64);
    }

    #[test]
    fn embedded_ipv4() {
        assert_eq!(classify_iid(a("2001:db8::192:0:2:1")), IidClass::EmbeddedIpv4);
        assert_eq!(classify_iid(a("2001:db8::10:20:30:40")), IidClass::EmbeddedIpv4);
        // Low-32 dotted embedding of a private range: c0a8:0101 = 192.168.1.1.
        assert_eq!(classify_iid(a("2001:db8::c0a8:101")), IidClass::EmbeddedIpv4);
    }

    #[test]
    fn ports_and_words() {
        assert_eq!(classify_iid(a("2001:db8::443")), IidClass::PortOrWord);
        assert_eq!(classify_iid(a("2001:db8::53")), IidClass::PortOrWord);
        assert_eq!(classify_iid(a("2001:db8::dead:beef")), IidClass::PortOrWord);
        assert_eq!(classify_iid(a("2001:db8::1:cafe:0:1")), IidClass::PortOrWord);
    }

    #[test]
    fn random_fallback() {
        assert_eq!(classify_iid(a("2001:db8::89ab:cdef:1234:5678")), IidClass::Random);
    }

    #[test]
    fn breakdown_counts() {
        let corpus = vec![
            a("2001:db8::1"),
            a("2001:db8::2"),
            a("2001:db8::443"),
            a("2001:db8::89ab:cdef:1234:5678"),
        ];
        let b = IidBreakdown::of(corpus);
        assert_eq!(b.total, 4);
        assert_eq!(b.share(IidClass::LowByte), 0.5);
        assert_eq!(b.share(IidClass::PortOrWord), 0.25);
        assert_eq!(b.rows().len(), 5);
        assert_eq!(b.rows()[0], ("low-byte", 2));
    }

    #[test]
    fn empty_breakdown() {
        let b = IidBreakdown::of(Vec::<Addr>::new());
        assert_eq!(b.share(IidClass::Random), 0.0);
    }
}
