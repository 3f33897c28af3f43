//! IP-to-ASN/organisation/geolocation registry — the simulator's ipinfo.
//!
//! The paper's classification methodology (§3.1, §4.3) is: take a public IP,
//! look up its ASN and geolocation via WHOIS/ipinfo, then compare the ASN
//! against the b-MNO's (→ HR), the v-MNO's (→ LBO) or a third party's
//! (→ IHBO). This module provides that lookup service for simulated
//! addresses, with longest-prefix-match semantics and an allocator that
//! hands out host addresses from registered prefixes.

use crate::ip::Ipv4Net;
use roam_geo::City;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// An autonomous system number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Asn(pub u32);

impl std::fmt::Display for Asn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// Well-known ASNs observed in the paper (Table 2, §4.3, §5.1) plus the
/// global service providers the campaigns measured against.
pub mod well_known {
    use super::Asn;

    /// Singtel — HR breakout for 5 eSIMs (Table 2).
    pub const SINGTEL: Asn = Asn(45143);
    /// Packet Host — IHBO PGWs in Amsterdam and Ashburn (Table 2).
    pub const PACKET_HOST: Asn = Asn(54825);
    /// OVH SAS — IHBO PGWs in Lille/Wattrelos (Table 2).
    pub const OVH: Asn = Asn(16276);
    /// Wireless Logic — IHBO PGWs in London (Table 2).
    pub const WIRELESS_LOGIC: Asn = Asn(51320);
    /// Webbing USA — IHBO PGWs for the ITA/USA eSIMs (Table 2).
    pub const WEBBING: Asn = Asn(393559);
    /// dtac Thailand — native eSIM PGWs (§4.3.2).
    pub const DTAC: Asn = Asn(9587);
    /// LG U+ Korea — native eSIM operator (§4.1).
    pub const LG_UPLUS: Asn = Asn(3786);
    /// PMCL / Jazz Pakistan — physical-SIM b-MNO in Pakistan (§5.1).
    pub const PMCL: Asn = Asn(45669);
    /// LINKdotNET — Jazz's transit (§4.3.3).
    pub const LINKDOTNET: Asn = Asn(23966);
    /// Transworld Associates — LINKdotNET's upstream (§4.3.3).
    pub const TRANSWORLD: Asn = Asn(38193);
    /// Telefónica de España — Spanish physical SIM (§4.3.3).
    pub const TELEFONICA: Asn = Asn(3352);
    /// Telefónica Global Solutions (§4.3.3).
    pub const TELEFONICA_GLOBAL: Asn = Asn(12956);
    /// Amazon — emnify's breakout in the validation experiment (§4.3.1).
    pub const AMAZON: Asn = Asn(16509);
    /// Google.
    pub const GOOGLE: Asn = Asn(15169);
    /// Facebook / Meta.
    pub const FACEBOOK: Asn = Asn(32934);
    /// Cloudflare.
    pub const CLOUDFLARE: Asn = Asn(13335);
    /// Microsoft (Ajax CDN).
    pub const MICROSOFT: Asn = Asn(8075);
    /// Fastly (serves jsDelivr / jQuery CDN endpoints in-sim).
    pub const FASTLY: Asn = Asn(54113);
}

/// What the registry knows about a prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixInfo {
    /// The registered prefix.
    pub net: Ipv4Net,
    /// Owning autonomous system.
    pub asn: Asn,
    /// Organisation name, as WHOIS would report it.
    pub org: String,
    /// City-level geolocation, as ipinfo would report it.
    pub city: City,
}

/// The registry: longest-prefix-match lookups plus host allocation.
#[derive(Debug, Default, Clone)]
pub struct IpRegistry {
    prefixes: Vec<PrefixInfo>,
    /// Next free host index per registered prefix (for allocation).
    next_host: HashMap<Ipv4Net, u64>,
}

impl IpRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a prefix. Later registrations may be more or less specific
    /// than earlier ones; lookup always prefers the longest match.
    pub fn register(&mut self, net: Ipv4Net, asn: Asn, org: &str, city: City) {
        self.prefixes.push(PrefixInfo {
            net,
            asn,
            org: org.to_string(),
            city,
        });
    }

    /// Longest-prefix-match lookup.
    #[must_use]
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<&PrefixInfo> {
        self.prefixes
            .iter()
            .filter(|p| p.net.contains(ip))
            .max_by_key(|p| p.net.prefix_len())
    }

    /// ASN of `ip`, if registered.
    #[must_use]
    pub fn asn_of(&self, ip: Ipv4Addr) -> Option<Asn> {
        self.lookup(ip).map(|p| p.asn)
    }

    /// Allocate the next unused host address in `net` (which must have been
    /// registered). Skips the network address itself so allocated hosts are
    /// always usable as endpoint identifiers.
    pub fn allocate(&mut self, net: Ipv4Net) -> Option<Ipv4Addr> {
        debug_assert!(
            self.prefixes.iter().any(|p| p.net == net),
            "allocating from unregistered prefix {net}"
        );
        let idx = self.next_host.entry(net).or_insert(1);
        let ip = net.nth(*idx)?;
        *idx += 1;
        Some(ip)
    }

    /// All registered prefixes (for reporting).
    #[must_use]
    pub fn prefixes(&self) -> &[PrefixInfo] {
        &self.prefixes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(s: &str) -> Ipv4Net {
        Ipv4Net::parse(s).unwrap()
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn lookup_matches_registered_prefix() {
        let mut r = IpRegistry::new();
        r.register(
            net("202.166.126.0/24"),
            well_known::SINGTEL,
            "Singtel",
            City::Singapore,
        );
        let info = r.lookup(ip("202.166.126.42")).unwrap();
        assert_eq!(info.asn, well_known::SINGTEL);
        assert_eq!(info.org, "Singtel");
        assert_eq!(info.city, City::Singapore);
        assert!(r.lookup(ip("202.166.127.1")).is_none());
    }

    #[test]
    fn longest_prefix_wins() {
        let mut r = IpRegistry::new();
        r.register(
            net("54.0.0.0/8"),
            well_known::AMAZON,
            "Amazon",
            City::Ashburn,
        );
        r.register(
            net("54.82.0.0/16"),
            well_known::AMAZON,
            "Amazon EU",
            City::Dublin,
        );
        assert_eq!(r.lookup(ip("54.82.1.1")).unwrap().city, City::Dublin);
        assert_eq!(r.lookup(ip("54.1.1.1")).unwrap().city, City::Ashburn);
    }

    #[test]
    fn allocation_is_sequential_and_skips_network_address() {
        let mut r = IpRegistry::new();
        let n = net("192.0.2.0/29");
        r.register(n, Asn(64500), "test", City::Amsterdam);
        assert_eq!(r.allocate(n), Some(ip("192.0.2.1")));
        assert_eq!(r.allocate(n), Some(ip("192.0.2.2")));
        // /29 has 8 addresses; indices 1..=7 are allocatable.
        for _ in 0..5 {
            assert!(r.allocate(n).is_some());
        }
        assert_eq!(r.allocate(n), None, "prefix exhausted");
    }

    #[test]
    fn allocations_from_different_prefixes_are_independent() {
        let mut r = IpRegistry::new();
        let a = net("198.51.100.0/24");
        let b = net("203.0.113.0/24");
        r.register(a, Asn(64501), "a", City::London);
        r.register(b, Asn(64502), "b", City::Paris);
        assert_eq!(r.allocate(a), Some(ip("198.51.100.1")));
        assert_eq!(r.allocate(b), Some(ip("203.0.113.1")));
        assert_eq!(r.allocate(a), Some(ip("198.51.100.2")));
    }

    #[test]
    fn asn_display() {
        assert_eq!(well_known::PACKET_HOST.to_string(), "AS54825");
    }
}
