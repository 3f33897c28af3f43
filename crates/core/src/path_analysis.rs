//! Traceroute decomposition: the private/public demarcation of §4.3.
//!
//! "We use the first public IP address as the demarcation point in our
//! analysis; we label preceding hops as the *private path* and subsequent
//! hops as the *public path*." Everything Figs. 6, 7, 10 and 12 plot falls
//! out of that split:
//!
//! * **private path length** — hops before the first public responder;
//! * **public path length** — hops from the demarcation point on;
//! * **PGW RTT** — best RTT at the demarcation hop (the "PGW IP address");
//! * **private share** — PGW RTT over final-hop RTT (Fig. 12's CDFs);
//! * **unique public ASNs** — distinct ASNs among public hops (Fig. 6).

use roam_geo::City;
use roam_netsim::{Asn, IpRegistry, Traceroute};
use std::net::Ipv4Addr;

/// The decomposition of one traceroute.
#[derive(Debug, Clone, PartialEq)]
pub struct PathAnalysis {
    /// Hops before the first public responder (includes silent hops that
    /// sit between private responders, as in real mtr output).
    pub private_len: usize,
    /// Hops from the demarcation point to the end of the trace.
    pub public_len: usize,
    /// The demarcation address — the paper's "PGW IP address".
    pub pgw_ip: Option<Ipv4Addr>,
    /// ASN of the demarcation address, from the registry.
    pub pgw_asn: Option<Asn>,
    /// Geolocation of the demarcation address, from the registry.
    pub pgw_city: Option<City>,
    /// Best RTT at the demarcation hop, ms.
    pub pgw_rtt_ms: Option<f64>,
    /// Best RTT at the final responding hop, ms.
    pub final_rtt_ms: Option<f64>,
    /// `pgw_rtt / final_rtt` — the fraction of end-to-end latency incurred
    /// before internet breakout (Fig. 12). `None` when either RTT is
    /// missing or the final RTT is zero.
    pub private_share: Option<f64>,
    /// Distinct ASNs among public responding hops.
    pub unique_public_asns: usize,
    /// Did the traceroute reach its destination?
    pub reached: bool,
}

/// Decompose a traceroute against the registry.
#[must_use]
pub fn analyze_traceroute(tr: &Traceroute, registry: &IpRegistry) -> PathAnalysis {
    let demarcation = tr.first_public_hop();
    let (private_len, public_len) = match demarcation {
        Some(i) => (i, tr.hops.len() - i),
        None => (tr.hops.len(), 0),
    };

    let pgw_hop = demarcation.map(|i| &tr.hops[i]);
    let pgw_ip = pgw_hop.and_then(|h| h.ip);
    let info = pgw_ip.and_then(|ip| registry.lookup(ip));
    let pgw_rtt_ms = pgw_hop.and_then(|h| h.best_rtt());
    let final_rtt_ms = tr.final_rtt();
    // The private share is judged on *mean* probe RTTs: best-of-N erases
    // every transient queueing event on the public side, which is exactly
    // the variability Fig. 12's SIM curves are designed to capture.
    let private_share = match (pgw_hop.and_then(|h| h.avg_rtt()), tr.final_avg_rtt()) {
        (Some(p), Some(f)) if f > 0.0 => Some((p / f).min(1.0)),
        _ => None,
    };

    let mut asns: Vec<Asn> = Vec::new();
    if let Some(i) = demarcation {
        for hop in &tr.hops[i..] {
            if let Some(asn) = hop.ip.and_then(|ip| registry.asn_of(ip)) {
                if !asns.contains(&asn) {
                    asns.push(asn);
                }
            }
        }
    }

    PathAnalysis {
        private_len,
        public_len,
        pgw_ip,
        pgw_asn: info.map(|i| i.asn),
        pgw_city: info.map(|i| i.city),
        pgw_rtt_ms,
        final_rtt_ms,
        private_share,
        unique_public_asns: asns.len(),
        reached: tr.reached,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roam_netsim::link::LatencyModel;
    use roam_netsim::registry::well_known;
    use roam_netsim::{Ipv4Net, Network, NodeKind, TracerouteOpts};

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// host → r1(private) → r2(private) → nat(public, AS54825) →
    /// transit(public, AS54825) → sp(public, AS15169)
    fn build() -> (Network, roam_netsim::NodeId, roam_netsim::NodeId) {
        let mut net = Network::new(17);
        let h = net.add_node("h", NodeKind::Host, City::Berlin, ip("10.1.0.2"));
        let r1 = net.add_node("r1", NodeKind::Router, City::Berlin, ip("10.1.0.1"));
        let r2 = net.add_node("r2", NodeKind::Router, City::Amsterdam, ip("10.1.0.3"));
        let nat = net.add_node("nat", NodeKind::CgNat, City::Amsterdam, ip("147.75.81.9"));
        let t = net.add_node("t", NodeKind::Router, City::Amsterdam, ip("147.75.82.1"));
        let sp = net.add_node("sp", NodeKind::SpEdge, City::Frankfurt, ip("142.250.1.1"));
        net.link_with(h, r1, LatencyModel::fixed(15.0, 0.0), 0.0);
        net.link_with(r1, r2, LatencyModel::fixed(20.0, 0.0), 0.0);
        net.link_with(r2, nat, LatencyModel::fixed(0.4, 0.0), 0.0);
        net.link_with(nat, t, LatencyModel::fixed(0.4, 0.0), 0.0);
        net.link_with(t, sp, LatencyModel::fixed(3.0, 0.0), 0.0);
        let reg = net.registry_mut();
        reg.register(
            Ipv4Net::parse("147.75.80.0/22").unwrap(),
            well_known::PACKET_HOST,
            "Packet Host",
            City::Amsterdam,
        );
        reg.register(
            Ipv4Net::parse("142.250.0.0/16").unwrap(),
            well_known::GOOGLE,
            "Google",
            City::Frankfurt,
        );
        (net, h, sp)
    }

    #[test]
    fn demarcation_and_lengths() {
        let (mut net, h, sp) = build();
        let tr = net.traceroute(h, sp, TracerouteOpts::default());
        let pa = analyze_traceroute(&tr, net.registry());
        assert!(pa.reached);
        assert_eq!(pa.private_len, 2, "r1 and r2 are private");
        assert_eq!(pa.public_len, 3, "nat, transit, sp");
        assert_eq!(pa.pgw_ip, Some(ip("147.75.81.9")));
        assert_eq!(pa.pgw_asn, Some(well_known::PACKET_HOST));
        assert_eq!(pa.pgw_city, Some(City::Amsterdam));
    }

    #[test]
    fn private_share_reflects_tunnel_dominance() {
        let (mut net, h, sp) = build();
        let tr = net.traceroute(h, sp, TracerouteOpts::default());
        let pa = analyze_traceroute(&tr, net.registry());
        let share = pa.private_share.unwrap();
        // One-way: private 35.4 of 39.2 total → share ≈ 0.9.
        assert!((0.80..1.0).contains(&share), "share {share}");
        assert!(pa.pgw_rtt_ms.unwrap() <= pa.final_rtt_ms.unwrap());
    }

    #[test]
    fn unique_asns_counts_distinct_public_networks() {
        let (mut net, h, sp) = build();
        let tr = net.traceroute(h, sp, TracerouteOpts::default());
        let pa = analyze_traceroute(&tr, net.registry());
        assert_eq!(pa.unique_public_asns, 2, "Packet Host + Google");
    }

    #[test]
    fn all_private_trace_has_no_demarcation() {
        let mut net = Network::new(3);
        let a = net.add_node("a", NodeKind::Host, City::Berlin, ip("10.0.0.1"));
        let m = net.add_node("m", NodeKind::Router, City::Berlin, ip("10.0.0.2"));
        let b = net.add_node("b", NodeKind::Host, City::Berlin, ip("10.0.0.3"));
        net.link_with(a, m, LatencyModel::fixed(1.0, 0.0), 0.0);
        net.link_with(m, b, LatencyModel::fixed(1.0, 0.0), 0.0);
        let tr = net.traceroute(a, b, TracerouteOpts::default());
        let pa = analyze_traceroute(&tr, net.registry());
        assert_eq!(pa.public_len, 0);
        assert!(pa.pgw_ip.is_none());
        assert!(pa.private_share.is_none());
        assert_eq!(pa.unique_public_asns, 0);
    }

    #[test]
    fn silent_cgnat_shifts_demarcation_to_next_public_hop() {
        let (mut net, h, sp) = build();
        // Make the NAT ICMP-silent, as in the Germany/Qatar observation.
        let nat_id = roam_netsim::NodeId(3);
        net.set_icmp_responds(nat_id, false);
        let tr = net.traceroute(h, sp, TracerouteOpts::default());
        let pa = analyze_traceroute(&tr, net.registry());
        // The silent hop hides the NAT; first public responder is transit.
        assert_eq!(pa.pgw_ip, Some(ip("147.75.82.1")));
        assert_eq!(pa.private_len, 3, "silent hop counted into the private run");
        assert!(pa.reached);
    }

    #[test]
    fn unregistered_pgw_ip_yields_no_asn() {
        let mut net = Network::new(3);
        let a = net.add_node("a", NodeKind::Host, City::Berlin, ip("10.0.0.1"));
        let n = net.add_node("n", NodeKind::CgNat, City::Berlin, ip("203.0.113.9"));
        let b = net.add_node("b", NodeKind::SpEdge, City::Berlin, ip("203.0.113.77"));
        net.link_with(a, n, LatencyModel::fixed(1.0, 0.0), 0.0);
        net.link_with(n, b, LatencyModel::fixed(1.0, 0.0), 0.0);
        let tr = net.traceroute(a, b, TracerouteOpts::default());
        let pa = analyze_traceroute(&tr, net.registry());
        assert_eq!(pa.pgw_ip, Some(ip("203.0.113.9")));
        assert!(pa.pgw_asn.is_none());
        assert_eq!(pa.unique_public_asns, 0);
    }
}
