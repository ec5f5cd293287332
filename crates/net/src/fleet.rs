//! Rotating address fleets: CPE devices and router interface pools.
//!
//! These two mechanisms generate the *accumulation bias* of Sec. 4.1:
//!
//! * **CPE fleets** — customer-premises devices with EUI-64 IIDs whose ISP
//!   rotates the /64 prefix every couple of weeks. Each rotation mints a
//!   new address for the same MAC; over four years 282 M input addresses
//!   trace back to only 22.7 M MACs. A subset of devices shares one MAC
//!   (the ZTE artifact: one EUI-64 in 240 k addresses).
//! * **Router pools** — internal last-hop interfaces that answer hop-limit
//!   expiry during traceroutes but nothing else. Chinese pools rotate
//!   weekly with random IIDs; together with the GFW's DNS injection they
//!   produce the 134 M falsely-responsive UDP/53 addresses.

use sixdust_addr::{prf, Addr, Eui64, Prefix};

use crate::registry::AsId;
use crate::time::Day;

/// Serial reserved for the shared-MAC artifact devices.
const SHARED_MAC_SERIAL: u32 = 7;
/// First serial used by regular devices.
const SERIAL_BASE: u32 = 0x10;

/// A fleet of rotating CPE devices inside one AS.
#[derive(Debug, Clone)]
pub struct CpeFleet {
    /// Owning AS.
    pub asid: AsId,
    /// The /40 region the fleet's /64s rotate within.
    pub region: Prefix,
    /// Number of devices.
    pub devices: u64,
    /// Devices `0..shared_mac` all embed the same MAC.
    pub shared_mac: u64,
    /// Vendor OUI of the fleet.
    pub oui: u32,
    /// Prefix rotation period in days.
    pub rotation_days: u32,
    /// Percentage of devices answering ICMP echo while current.
    pub respond_pct: u8,
    /// PRF seed.
    pub seed: u64,
}

/// A resolved CPE device behind an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpeView {
    /// Device index within the fleet.
    pub device: u64,
    /// Whether the address is the device's *current* address (only then is
    /// it responsive).
    pub current: bool,
    /// Whether the device answers ICMP at all.
    pub responds: bool,
}

impl CpeFleet {
    fn epoch(&self, day: Day) -> u64 {
        u64::from(day.0 / self.rotation_days.max(1))
    }

    fn subnet_at(&self, device: u64, epoch: u64) -> u64 {
        // 24 bits of /64 index within the /40 region.
        prf::prf_u128(self.seed, u128::from(device), 0xC0E_0000 ^ epoch) & 0xff_ffff
    }

    fn mac_of(&self, device: u64) -> Eui64 {
        if device < self.shared_mac {
            Eui64::from_oui_serial(self.oui, SHARED_MAC_SERIAL)
        } else {
            Eui64::from_oui_serial(self.oui, SERIAL_BASE + device as u32)
        }
    }

    /// The device's address at `day`.
    pub fn current_addr(&self, device: u64, day: Day) -> Addr {
        debug_assert!(device < self.devices);
        let subnet = self.subnet_at(device, self.epoch(day));
        let net64 = Addr(self.region.network().0 | (u128::from(subnet) << 64));
        self.mac_of(device).apply_to(net64)
    }

    /// Whether the device answers pings (a static per-device property).
    pub fn device_responds(&self, device: u64) -> bool {
        prf::chance(self.seed, u128::from(device), 0xC9, u64::from(self.respond_pct), 100)
    }

    /// Resolves an address inside the region back to a device.
    pub fn lookup(&self, addr: Addr, day: Day) -> Option<CpeView> {
        if !self.region.contains(addr) {
            return None;
        }
        let e = Eui64::from_addr(addr)?;
        if e.oui() != self.oui {
            return None;
        }
        let mac = e.mac();
        let serial = (u32::from(mac[3]) << 16) | (u32::from(mac[4]) << 8) | u32::from(mac[5]);
        let subnet = ((addr.0 >> 64) & 0xff_ffff) as u64;
        let epoch = self.epoch(day);
        if serial == SHARED_MAC_SERIAL {
            // Shared-MAC pool: scan the (small) pool for a subnet match.
            for device in 0..self.shared_mac {
                if self.subnet_at(device, epoch) == subnet {
                    return Some(CpeView {
                        device,
                        current: true,
                        responds: self.device_responds(device),
                    });
                }
            }
            // A past address of some shared-MAC device.
            return Some(CpeView { device: 0, current: false, responds: false });
        }
        let device = u64::from(serial.checked_sub(SERIAL_BASE)?);
        if device >= self.devices {
            return None;
        }
        let current = self.subnet_at(device, epoch) == subnet;
        Some(CpeView { device, current, responds: self.device_responds(device) })
    }

    /// All current device addresses at `day` (what a RIPE-Atlas-style
    /// source observes).
    pub fn current_addrs(&self, day: Day) -> impl Iterator<Item = Addr> + '_ {
        let epoch_day = day;
        (0..self.devices).map(move |d| self.current_addr(d, epoch_day))
    }
}

/// A pool of router interfaces for one AS.
#[derive(Debug, Clone)]
pub struct RouterPool {
    /// Owning AS.
    pub asid: AsId,
    /// The /40 region interface addresses live in.
    pub region: Prefix,
    /// Number of interface slots.
    pub slots: u64,
    /// Rotation period in days (0 = static interfaces).
    pub rotation_days: u32,
    /// PRF seed.
    pub seed: u64,
}

impl RouterPool {
    fn epoch(&self, day: Day) -> u64 {
        day.0.checked_div(self.rotation_days).map_or(0, u64::from)
    }

    /// The interface address of `slot` at `day`.
    ///
    /// Rotating pools (Chinese networks) change both subnet and IID each
    /// epoch — the "regularly changing addresses mostly with randomized
    /// IIDs" of Sec. 4.2. Static pools keep small, structured IIDs.
    pub fn hop_addr(&self, slot: u64, day: Day) -> Addr {
        debug_assert!(slot < self.slots.max(1));
        let epoch = self.epoch(day);
        let subnet = prf::prf_u128(self.seed, u128::from(slot), 0x407_0000 ^ epoch) & 0xff_ffff;
        let net = self.region.network().0 | (u128::from(subnet) << 64);
        let iid = if self.rotation_days == 0 {
            // Stable infrastructure: low IID.
            1 + slot
        } else {
            prf::prf_u128(self.seed, u128::from(slot), 0x408_0000 ^ epoch)
        };
        Addr(net | u128::from(iid))
    }

    /// Resolves an address back to a slot — only possible for *static*
    /// pools (rotating interfaces are write-only: they answer hop-limit
    /// expiry but never direct probes, like the Chinese last-hops of
    /// Sec. 4.2).
    pub fn lookup_static(&self, addr: Addr) -> Option<u64> {
        if self.rotation_days != 0 || !self.region.contains(addr) {
            return None;
        }
        let slot = addr.iid().checked_sub(1)?;
        if slot < self.slots && self.hop_addr(slot, Day(0)) == addr {
            Some(slot)
        } else {
            None
        }
    }

    /// Whether the interface at `slot` answers direct ICMP echo on `day`:
    /// a bit under half of stable infrastructure does, and — like the rest
    /// of the population — the infrastructure grows over the window.
    pub fn slot_responds(&self, slot: u64, day: Day) -> bool {
        if !prf::chance(self.seed, u128::from(slot), 0x40D, 1, 5) {
            return false;
        }
        let activation = if prf::chance(self.seed, u128::from(slot), 0x40E, 11, 20) {
            0
        } else {
            prf::uniform(self.seed, u128::from(slot), 0x40F, 1376) as u32
        };
        day.0 >= activation
    }

    /// All interface addresses at `day`.
    pub fn addrs_at(&self, day: Day) -> impl Iterator<Item = Addr> + '_ {
        (0..self.slots).map(move |s| self.hop_addr(s, day))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet() -> CpeFleet {
        CpeFleet {
            asid: AsId(3),
            region: "2001:db8:100::/40".parse().unwrap(),
            devices: 50,
            shared_mac: 3,
            oui: 0x001422,
            rotation_days: 14,
            respond_pct: 60,
            seed: 9,
        }
    }

    #[test]
    fn addresses_rotate_with_epochs() {
        let f = fleet();
        let a0 = f.current_addr(10, Day(0));
        let a1 = f.current_addr(10, Day(13));
        let a2 = f.current_addr(10, Day(14));
        assert_eq!(a0, a1, "same epoch, same address");
        assert_ne!(a0, a2, "rotation mints a new address");
        assert!(f.region.contains(a0) && f.region.contains(a2));
    }

    #[test]
    fn same_mac_across_rotations() {
        let f = fleet();
        let a0 = f.current_addr(10, Day(0));
        let a2 = f.current_addr(10, Day(28));
        assert_eq!(a0.iid(), a2.iid(), "EUI-64 IID follows the device");
        assert_eq!(Eui64::from_addr(a0).unwrap(), Eui64::from_addr(a2).unwrap());
    }

    #[test]
    fn lookup_resolves_current_and_past() {
        let f = fleet();
        let addr = f.current_addr(20, Day(0));
        let v = f.lookup(addr, Day(0)).unwrap();
        assert_eq!(v.device, 20);
        assert!(v.current);
        // After rotation the old address is no longer current.
        let v2 = f.lookup(addr, Day(30)).unwrap();
        assert_eq!(v2.device, 20);
        assert!(!v2.current);
    }

    #[test]
    fn shared_mac_devices_share_iid() {
        let f = fleet();
        let a = f.current_addr(0, Day(0));
        let b = f.current_addr(1, Day(0));
        let c = f.current_addr(5, Day(0));
        assert_eq!(a.iid(), b.iid(), "shared MAC pool");
        assert_ne!(a.iid(), c.iid(), "regular device has its own MAC");
        assert_ne!(a, b, "but different subnets");
        let v = f.lookup(a, Day(0)).unwrap();
        assert!(v.current);
        assert_eq!(v.device, 0);
    }

    #[test]
    fn foreign_addresses_rejected() {
        let f = fleet();
        assert!(f.lookup("2001:db9::1".parse().unwrap(), Day(0)).is_none());
        // Inside region but not EUI-64:
        assert!(f.lookup("2001:db8:100::1234".parse().unwrap(), Day(0)).is_none());
        // EUI-64 but wrong OUI:
        let wrong = Eui64::from_oui_serial(0x002686, SERIAL_BASE)
            .apply_to("2001:db8:100:42::".parse().unwrap());
        assert!(f.lookup(wrong, Day(0)).is_none());
    }

    #[test]
    fn respond_fraction_close_to_target() {
        let f = CpeFleet { devices: 2000, ..fleet() };
        let n = (0..2000).filter(|d| f.device_responds(*d)).count();
        assert!((1050..1350).contains(&n), "{n} of 2000 respond");
    }

    #[test]
    fn router_rotation() {
        let p = RouterPool {
            asid: AsId(1),
            region: "2001:db8:200::/40".parse().unwrap(),
            slots: 10,
            rotation_days: 7,
            seed: 3,
        };
        let a = p.hop_addr(4, Day(0));
        let b = p.hop_addr(4, Day(6));
        let c = p.hop_addr(4, Day(7));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(p.region.contains(a));
        // Accumulation: distinct addrs over 10 epochs ≈ slots × epochs.
        let mut all = std::collections::HashSet::new();
        for e in 0..10 {
            for s in 0..10 {
                all.insert(p.hop_addr(s, Day(e * 7)));
            }
        }
        assert!(all.len() > 95, "{} distinct addresses", all.len());
    }

    #[test]
    fn static_router_pool() {
        let p = RouterPool {
            asid: AsId(1),
            region: "2001:db8:300::/40".parse().unwrap(),
            slots: 5,
            rotation_days: 0,
            seed: 3,
        };
        assert_eq!(p.hop_addr(2, Day(0)), p.hop_addr(2, Day(1000)));
        assert_eq!(p.hop_addr(2, Day(0)).iid(), 3, "low structured IID");
    }
}
