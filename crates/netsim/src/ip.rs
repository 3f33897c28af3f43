//! IPv4 addressing helpers: CIDR prefixes and private-range classification.
//!
//! The paper's path analysis hinges on one address property: whether a hop's
//! IP is *private* (inside the PGW provider's core, before internet breakout)
//! or *public* (after the CG-NAT). `is_private` encodes the ranges that
//! matter: RFC 1918, the CGN shared space (RFC 6598, what real CG-NATs use),
//! loopback and link-local.

use std::net::Ipv4Addr;

/// An IPv4 CIDR prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Net {
    addr: Ipv4Addr,
    prefix_len: u8,
}

impl Ipv4Net {
    /// Build a prefix; the host bits of `addr` are masked off so the value
    /// is canonical. Panics if `prefix_len > 32` (a programming error, not
    /// an input error: prefixes are constructed from static tables).
    #[must_use]
    pub fn new(addr: Ipv4Addr, prefix_len: u8) -> Self {
        assert!(prefix_len <= 32, "prefix length {prefix_len} > 32");
        let masked = u32::from(addr) & Self::mask_bits(prefix_len);
        Ipv4Net {
            addr: Ipv4Addr::from(masked),
            prefix_len,
        }
    }

    fn mask_bits(prefix_len: u8) -> u32 {
        if prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - prefix_len)
        }
    }

    /// Network address (host bits zero).
    #[must_use]
    pub fn network(&self) -> Ipv4Addr {
        self.addr
    }

    /// Prefix length in bits.
    #[must_use]
    pub fn prefix_len(&self) -> u8 {
        self.prefix_len
    }

    /// Does the prefix contain `ip`?
    #[must_use]
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        (u32::from(ip) & Self::mask_bits(self.prefix_len)) == u32::from(self.addr)
    }

    /// Number of addresses in the prefix.
    #[must_use]
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.prefix_len)
    }

    /// The `index`-th address in the prefix (0 = the network address).
    /// Returns `None` past the end — callers allocating hosts out of a
    /// prefix use this to detect exhaustion instead of silently wrapping.
    #[must_use]
    pub fn nth(&self, index: u64) -> Option<Ipv4Addr> {
        if index >= self.size() {
            return None;
        }
        Some(Ipv4Addr::from(u32::from(self.addr) + index as u32))
    }

    /// Parse `"a.b.c.d/len"`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        let (ip, len) = s.split_once('/')?;
        let addr: Ipv4Addr = ip.parse().ok()?;
        let prefix_len: u8 = len.parse().ok()?;
        if prefix_len > 32 {
            return None;
        }
        Some(Ipv4Net::new(addr, prefix_len))
    }
}

impl std::fmt::Display for Ipv4Net {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.addr, self.prefix_len)
    }
}

/// True when `ip` is not globally routable: RFC 1918 private space, the
/// RFC 6598 carrier-grade NAT shared range (`100.64.0.0/10`), loopback, or
/// link-local. These are the hops the paper labels the *private path*.
#[must_use]
pub(crate) fn is_private(ip: Ipv4Addr) -> bool {
    let o = ip.octets();
    o[0] == 10
        || (o[0] == 172 && (16..=31).contains(&o[1]))
        || (o[0] == 192 && o[1] == 168)
        || (o[0] == 100 && (64..=127).contains(&o[1]))
        || o[0] == 127
        || (o[0] == 169 && o[1] == 254)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn private_ranges() {
        for p in [
            "10.0.0.1",
            "10.255.255.254",
            "172.16.0.1",
            "172.31.9.9",
            "192.168.1.1",
            "100.64.0.1",
            "100.127.255.1",
            "127.0.0.1",
            "169.254.10.10",
        ] {
            assert!(is_private(ip(p)), "{p} should be private");
        }
    }

    #[test]
    fn public_ranges() {
        for p in [
            "8.8.8.8",
            "202.166.126.1",
            "172.15.0.1",
            "172.32.0.1",
            "100.63.0.1",
            "100.128.0.1",
            "192.169.0.1",
            "11.0.0.1",
            "54.82.5.1",
        ] {
            assert!(!is_private(ip(p)), "{p} should be public");
        }
    }

    #[test]
    fn net_canonicalises_host_bits() {
        let n = Ipv4Net::new(ip("192.168.1.77"), 24);
        assert_eq!(n.network(), ip("192.168.1.0"));
        assert_eq!(n.to_string(), "192.168.1.0/24");
    }

    #[test]
    fn contains_respects_boundaries() {
        let n = Ipv4Net::parse("202.166.126.0/24").unwrap();
        assert!(n.contains(ip("202.166.126.0")));
        assert!(n.contains(ip("202.166.126.255")));
        assert!(!n.contains(ip("202.166.127.0")));
        assert!(!n.contains(ip("202.166.125.255")));
    }

    #[test]
    fn nth_and_size() {
        let n = Ipv4Net::parse("10.1.2.0/30").unwrap();
        assert_eq!(n.size(), 4);
        assert_eq!(n.nth(0), Some(ip("10.1.2.0")));
        assert_eq!(n.nth(3), Some(ip("10.1.2.3")));
        assert_eq!(n.nth(4), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Ipv4Net::parse("not-an-ip/8").is_none());
        assert!(Ipv4Net::parse("10.0.0.0/33").is_none());
        assert!(Ipv4Net::parse("10.0.0.0").is_none());
    }

    #[test]
    fn zero_length_prefix_contains_everything() {
        let n = Ipv4Net::parse("0.0.0.0/0").unwrap();
        assert!(n.contains(ip("1.2.3.4")));
        assert!(n.contains(ip("255.255.255.255")));
        assert_eq!(n.size(), 1 << 32);
    }
}
