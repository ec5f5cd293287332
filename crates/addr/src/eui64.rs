//! EUI-64 interface identifiers.
//!
//! SLAAC historically derived the 64-bit IID from the interface MAC address
//! by flipping the universal/local bit and splicing `ff:fe` into the middle
//! (RFC 4291 §2.5.1). The paper shows 282 M input addresses of the IPv6
//! Hitlist carry EUI-64 IIDs derived from only 22.7 M distinct MACs — CPE
//! devices whose ISPs rotate prefixes — and that the most frequent EUI-64
//! value (a ZTE OUI) appears in 240 k distinct addresses. This module
//! provides the embed/extract primitives that analysis is built on.

use std::fmt;

use crate::Addr;

/// A MAC address, the source material of an EUI-64 IID.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Eui64 {
    mac: [u8; 6],
}

impl Eui64 {
    /// Wraps a raw MAC address.
    pub const fn from_mac(mac: [u8; 6]) -> Eui64 {
        Eui64 { mac }
    }

    /// Builds a MAC from a 24-bit OUI and a 24-bit device serial.
    pub fn from_oui_serial(oui: u32, serial: u32) -> Eui64 {
        Eui64 {
            mac: [
                (oui >> 16) as u8,
                (oui >> 8) as u8,
                oui as u8,
                (serial >> 16) as u8,
                (serial >> 8) as u8,
                serial as u8,
            ],
        }
    }

    /// The raw MAC bytes.
    pub fn mac(self) -> [u8; 6] {
        self.mac
    }

    /// The Organizationally Unique Identifier (vendor part).
    pub fn oui(self) -> u32 {
        // Mask the U/L and group bits: OUI registries list the universal
        // form of the first octet.
        (u32::from(self.mac[0] & 0xfc) << 16)
            | (u32::from(self.mac[1]) << 8)
            | u32::from(self.mac[2])
    }

    /// Encodes as a modified EUI-64 IID: flip the U/L bit, insert `ff:fe`.
    pub fn to_iid(self) -> u64 {
        let m = self.mac;
        u64::from(m[0] ^ 0x02) << 56
            | u64::from(m[1]) << 48
            | u64::from(m[2]) << 40
            | 0xff << 32
            | 0xfe << 24
            | u64::from(m[3]) << 16
            | u64::from(m[4]) << 8
            | u64::from(m[5])
    }

    /// Decodes an IID back into a MAC if it has the `ff:fe` marker.
    pub fn from_iid(iid: u64) -> Option<Eui64> {
        if (iid >> 24) & 0xffff != 0xfffe {
            return None;
        }
        Some(Eui64 {
            mac: [
                ((iid >> 56) as u8) ^ 0x02,
                (iid >> 48) as u8,
                (iid >> 40) as u8,
                (iid >> 16) as u8,
                (iid >> 8) as u8,
                iid as u8,
            ],
        })
    }

    /// Extracts the embedded MAC from a full address, if its IID is EUI-64.
    pub fn from_addr(addr: Addr) -> Option<Eui64> {
        Eui64::from_iid(addr.iid())
    }

    /// `true` if the address IID carries the `ff:fe` EUI-64 marker.
    pub fn addr_is_eui64(addr: Addr) -> bool {
        (addr.iid() >> 24) & 0xffff == 0xfffe
    }

    /// Places this EUI-64 IID into the host part of a /64 network.
    pub fn apply_to(self, network: Addr) -> Addr {
        network.with_iid(self.to_iid())
    }

    /// Looks the OUI up in the bundled registry.
    pub fn vendor(self) -> Option<&'static OuiVendor> {
        let oui = self.oui();
        OUI_REGISTRY.iter().find(|v| v.oui == oui)
    }
}

impl fmt::Display for Eui64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.mac;
        write!(f, "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}", m[0], m[1], m[2], m[3], m[4], m[5])
    }
}

impl fmt::Debug for Eui64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Eui64({self})")
    }
}

/// A vendor entry in the bundled OUI registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OuiVendor {
    /// 24-bit OUI (universal form).
    pub oui: u32,
    /// Vendor name.
    pub name: &'static str,
}

/// A miniature OUI registry: the handful of CPE vendors the paper's EUI-64
/// analysis surfaces (ZTE being the dominant one) plus common infrastructure
/// vendors the simulated population draws from.
#[allow(clippy::unusual_byte_groupings)] // grouped as the MAC reads: XX:XX:XX
pub const OUI_REGISTRY: &[OuiVendor] = &[
    OuiVendor { oui: 0x001422, name: "ZTE" },
    OuiVendor { oui: 0x0019C6, name: "ZTE" },
    OuiVendor { oui: 0x002686, name: "AVM" },
    OuiVendor { oui: 0x0024FE, name: "AVM" },
    OuiVendor { oui: 0x0018E7, name: "Huawei" },
    OuiVendor { oui: 0x00259E, name: "Huawei" },
    OuiVendor { oui: 0x00000C, name: "Cisco" },
    OuiVendor { oui: 0x000585, name: "Juniper" },
    OuiVendor { oui: 0x005056, name: "VMware" },
    OuiVendor { oui: 0x00900B, name: "Lanner" },
    OuiVendor { oui: 0x000732, name: "AAEON" },
    OuiVendor { oui: 0x003088, name: "Ericsson" },
];

/// The OUI the simulation uses for the "most frequent EUI-64" finding
/// (mapped to ZTE in the paper, Sec. 4.1).
#[allow(clippy::unusual_byte_groupings)] // grouped as the MAC reads
pub const ZTE_OUI: u32 = 0x001422;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embed_extract_roundtrip() {
        let e = Eui64::from_mac([0x00, 0x14, 0x22, 0xab, 0xcd, 0xef]);
        let iid = e.to_iid();
        assert_eq!(Eui64::from_iid(iid), Some(e));
    }

    #[test]
    fn known_vector() {
        // RFC 4291 example: MAC 34-56-78-9A-BC-DE -> 3656:78ff:fe9a:bcde
        let e = Eui64::from_mac([0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde]);
        assert_eq!(e.to_iid(), 0x3656_78ff_fe9a_bcde);
    }

    #[test]
    fn non_eui64_iids_rejected() {
        assert_eq!(Eui64::from_iid(0x1234_5678_9abc_def0), None);
        assert!(!Eui64::addr_is_eui64("2001:db8::1".parse().unwrap()));
    }

    #[test]
    fn address_detection_and_extraction() {
        let net: Addr = "2001:db8:1:2::".parse().unwrap();
        let e = Eui64::from_oui_serial(ZTE_OUI, 0x010203);
        let a = e.apply_to(net);
        assert!(Eui64::addr_is_eui64(a));
        assert_eq!(Eui64::from_addr(a), Some(e));
        assert_eq!(a.network_u64(), net.network_u64(), "network part untouched");
    }

    #[test]
    fn oui_masks_local_bit() {
        // After IID embedding, the extracted MAC's OUI must match the
        // registry form regardless of the U/L flip.
        let e = Eui64::from_oui_serial(ZTE_OUI, 42);
        let back = Eui64::from_iid(e.to_iid()).unwrap();
        assert_eq!(back.oui(), ZTE_OUI);
        assert_eq!(back.vendor().map(|v| v.name), Some("ZTE"));
    }

    #[test]
    fn display_format() {
        let e = Eui64::from_mac([0, 0x14, 0x22, 1, 2, 3]);
        assert_eq!(e.to_string(), "00:14:22:01:02:03");
    }

    #[test]
    fn same_mac_different_networks_same_iid() {
        // The paper's rotating-prefix finding: one MAC shows up in many
        // addresses, identical IID, distinct networks.
        let e = Eui64::from_oui_serial(ZTE_OUI, 7);
        let a1 = e.apply_to("2001:db8:aaaa::".parse().unwrap());
        let a2 = e.apply_to("2001:db8:bbbb::".parse().unwrap());
        assert_ne!(a1, a2);
        assert_eq!(a1.iid(), a2.iid());
    }
}
