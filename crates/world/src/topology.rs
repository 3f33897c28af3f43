//! The public internet: per-city service edges, DNS anycast, CDN origins
//! and an IX mesh.
//!
//! §4.3.3's takeaway drives the shape: "PGW providers generally have direct
//! peering arrangements with global SPs" and "popular providers like Google
//! and Facebook place edge nodes close to PGWs". So every city that can
//! host a breakout gets a full set of SP edges, and
//! `PublicInternet::connect_breakout` peers a session's CG-NAT straight
//! into them (via a national transit chain for the operators whose
//! traceroutes show extra ASes). An IX mesh carries everything else —
//! distant DNS resolvers, CDN origin fetches, cross-city paths.

use rand::rngs::SmallRng;
use rand::Rng;
use roam_geo::City;
use roam_ipx::Attachment;
use roam_measure::{CdnProvider, Service, ServiceTargets};
use roam_netsim::link::{LatencyModel, LinkClass};
use roam_netsim::registry::well_known;
use roam_netsim::{Asn, Ipv4Net, Network, NodeId, NodeKind};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Cities hosting a Google Public DNS anycast site in the simulation —
/// chosen so each breakout region has a same-country resolver except the
/// Dallas PGW, whose nearest sites are Fort Worth and Tulsa (§5.1).
const GOOGLE_DNS_CITIES: [City; 10] = [
    City::Amsterdam,
    City::Paris,
    City::London,
    City::Ashburn,
    City::FortWorth,
    City::Tulsa,
    City::Frankfurt,
    City::Singapore,
    City::Seoul,
    City::Bangkok,
];

/// The built public internet.
#[derive(Debug)]
pub struct PublicInternet {
    /// Service-node registry handed to the measurement clients.
    pub targets: ServiceTargets,
    ix: HashMap<City, NodeId>,
    city_index: HashMap<City, u8>,
}

impl PublicInternet {
    /// Build infrastructure in each listed city (idempotent per city).
    pub fn build(net: &mut Network, cities: &[City], rng: &mut SmallRng) -> PublicInternet {
        let mut pi = PublicInternet {
            targets: ServiceTargets::new(),
            ix: HashMap::new(),
            city_index: HashMap::new(),
        };
        for &c in cities {
            pi.ensure_city(net, c, rng);
        }
        for &c in GOOGLE_DNS_CITIES.iter() {
            pi.ensure_city(net, c, rng);
        }
        pi
    }

    /// The IX node of a city, if built.
    #[must_use]
    pub(crate) fn ix(&self, city: City) -> Option<NodeId> {
        self.ix.get(&city).copied()
    }

    /// Create a city's infrastructure if missing: IX (meshed with all
    /// existing IXs), SP edges, speedtest servers, CDN edges, and — where
    /// designated — a Google DNS site. Ashburn additionally hosts the CDN
    /// origins.
    pub(crate) fn ensure_city(&mut self, net: &mut Network, city: City, rng: &mut SmallRng) {
        if self.ix.contains_key(&city) {
            return;
        }
        let i = u8::try_from(self.city_index.len()).expect("fewer than 256 infra cities");
        self.city_index.insert(city, i);

        // --- IX, meshed to every existing IX -------------------------------
        let ix = net.add_node(
            &format!("ix-{city}"),
            NodeKind::Router,
            city,
            Ipv4Addr::new(80, 81, i, 1),
        );
        net.registry_mut().register(
            Ipv4Net::new(Ipv4Addr::new(80, 81, i, 0), 24),
            Asn(1299),
            "Arelion transit",
            city,
        );
        // Mesh in node-id order: link indices must not depend on HashMap
        // iteration order, or the index-keyed fault calendars would pick
        // different links to flap from one process to the next.
        let mut peers: Vec<NodeId> = self.ix.values().copied().collect();
        peers.sort_unstable_by_key(|n| n.0);
        for peer in peers {
            let model = LatencyModel::from_geo(
                net.node(ix).city.location(),
                net.node(peer).city.location(),
                LinkClass::Backbone,
            )
            .with_spikes(0.05, 50.0);
            net.link_with(ix, peer, model, 0.0005);
        }
        self.ix.insert(city, ix);

        // --- traceroute-able SPs: border → internals → front ---------------
        let sps: [(Service, [u8; 2], Asn, &str); 3] = [
            (Service::Google, [142, 250], well_known::GOOGLE, "Google"),
            (
                Service::Facebook,
                [157, 240],
                well_known::FACEBOOK,
                "Facebook",
            ),
            (
                Service::YouTube,
                [208, 65],
                well_known::GOOGLE,
                "Google (YouTube)",
            ),
        ];
        for (service, octets, asn, org) in sps {
            let prefix = Ipv4Net::new(Ipv4Addr::new(octets[0], octets[1], i, 0), 24);
            net.registry_mut().register(prefix, asn, org, city);
            let border = net.add_node(
                &format!("{org}-border-{city}"),
                NodeKind::Router,
                city,
                Ipv4Addr::new(octets[0], octets[1], i, 1),
            );
            net.link_with(
                border,
                ix,
                LatencyModel::fixed(0.5, 0.2).with_spikes(0.015, 180.0),
                0.0,
            );
            // SP-internal routing depth varies per (city, SP): the source
            // of the public-path-length variance of Fig. 10.
            let depth = rng.gen_range(0..=2u8);
            let mut prev = border;
            for d in 0..depth {
                let r = net.add_node(
                    &format!("{org}-core{d}-{city}"),
                    NodeKind::Router,
                    city,
                    Ipv4Addr::new(octets[0], octets[1], i, 2 + d),
                );
                net.link_with(
                    prev,
                    r,
                    LatencyModel::fixed(0.4, 0.2).with_spikes(0.01, 120.0),
                    0.0,
                );
                prev = r;
            }
            let front = net.add_node(
                &format!("{org}-front-{city}"),
                NodeKind::SpEdge,
                city,
                Ipv4Addr::new(octets[0], octets[1], i, 100),
            );
            net.link_with(
                prev,
                front,
                LatencyModel::fixed(0.4, 0.2).with_spikes(0.01, 120.0),
                0.0,
            );
            self.targets.add(service, front);
        }

        // --- single-node services ------------------------------------------
        let singles: [(Service, [u8; 2], Asn, &str); 7] = [
            (Service::Ookla, [151, 101], Asn(21837), "Ookla host"),
            (Service::FastCom, [45, 57], Asn(2906), "Netflix"),
            (
                Service::Cdn(CdnProvider::Cloudflare),
                [104, 16],
                well_known::CLOUDFLARE,
                "Cloudflare",
            ),
            (
                Service::Cdn(CdnProvider::GoogleCdn),
                [172, 217],
                well_known::GOOGLE,
                "Google CDN",
            ),
            (
                Service::Cdn(CdnProvider::JsDelivr),
                [151, 102],
                well_known::FASTLY,
                "Fastly",
            ),
            (
                Service::Cdn(CdnProvider::JQuery),
                [69, 16],
                Asn(12989),
                "StackPath",
            ),
            (
                Service::Cdn(CdnProvider::MicrosoftAjax),
                [13, 107],
                well_known::MICROSOFT,
                "Microsoft",
            ),
        ];
        for (service, octets, asn, org) in singles {
            let prefix = Ipv4Net::new(Ipv4Addr::new(octets[0], octets[1], i, 0), 24);
            net.registry_mut().register(prefix, asn, org, city);
            let node = net.add_node(
                &format!("{org}-{city}"),
                NodeKind::SpEdge,
                city,
                Ipv4Addr::new(octets[0], octets[1], i, 10),
            );
            net.link_with(
                node,
                ix,
                LatencyModel::fixed(0.6, 0.3).with_spikes(0.015, 180.0),
                0.0,
            );
            self.targets.add(service, node);
        }

        // --- Google DNS anycast sites --------------------------------------
        if GOOGLE_DNS_CITIES.contains(&city) {
            let prefix = Ipv4Net::new(Ipv4Addr::new(74, 125, i, 0), 24);
            net.registry_mut()
                .register(prefix, well_known::GOOGLE, "Google DNS", city);
            let dns = net.add_node(
                &format!("gdns-{city}"),
                NodeKind::DnsResolver,
                city,
                Ipv4Addr::new(74, 125, i, 10),
            );
            net.link_with(dns, ix, LatencyModel::fixed(0.5, 0.2), 0.0);
            self.targets.add_google_dns(dns);
        }

        // --- CDN origins live in Ashburn ------------------------------------
        if city == City::Ashburn {
            for (k, provider) in CdnProvider::ALL.iter().enumerate() {
                let origin = net.add_node(
                    &format!("{provider}-origin"),
                    NodeKind::SpEdge,
                    city,
                    Ipv4Addr::new(198, 41, 200, 10 + k as u8),
                );
                net.link_with(origin, ix, LatencyModel::fixed(0.8, 0.3), 0.0);
                self.targets.set_origin(*provider, origin);
            }
            net.registry_mut().register(
                Ipv4Net::parse("198.41.200.0/24").expect("static prefix"),
                Asn(13335),
                "CDN origins",
                city,
            );
        }
    }

    /// Wire a fresh attachment's CG-NAT into the public internet of its
    /// breakout city: direct peering to the SP borders (through the
    /// operator's national transit chain, when it has one) plus an IX
    /// uplink for everything else. Also registers the session's operator
    /// DNS resolver location if one is supplied.
    pub(crate) fn connect_breakout(
        &mut self,
        net: &mut Network,
        att: &Attachment,
        transit: &[(String, Asn)],
        rng: &mut SmallRng,
    ) {
        self.ensure_city(net, att.breakout_city, rng);
        let city = att.breakout_city;
        let ix = self.ix[&city];

        // Optional national transit chain between the CG-NAT and the fabric.
        let mut exit = att.cgnat;
        for (j, (org, asn)) in transit.iter().enumerate() {
            let i = self.city_index[&city];
            let ip = Ipv4Addr::new(62, 40, i, 10 + j as u8 + (att.teid % 40) as u8);
            net.registry_mut()
                .register(Ipv4Net::new(ip, 32), *asn, org, city);
            let node = net.add_node(
                &format!("{org}-transit-{}", att.teid),
                NodeKind::Router,
                city,
                ip,
            );
            net.link_with(exit, node, LatencyModel::fixed(0.7, 0.4), 0.0);
            exit = node;
        }

        // Direct peering with the SP borders in this city: Dijkstra then
        // prefers these two-AS paths for the traceroute targets, giving the
        // Fig. 6 "two unique ASNs" shape.
        for border in self.borders_of(net, city) {
            net.link_with(
                exit,
                border,
                LatencyModel::fixed(0.9, 0.4).with_spikes(0.02, 220.0),
                0.0,
            );
        }
        // IX uplink for everything else (DNS, distant services, origins).
        net.link_with(
            exit,
            ix,
            LatencyModel::fixed(0.8, 0.4).with_spikes(0.02, 180.0),
            0.0,
        );
    }

    /// The SP border routers of a city (addresses `x.y.i.1` of the three
    /// traceroute-able SPs).
    fn borders_of(&self, net: &Network, city: City) -> Vec<NodeId> {
        let i = self.city_index[&city];
        let expected: [Ipv4Addr; 3] = [
            Ipv4Addr::new(142, 250, i, 1),
            Ipv4Addr::new(157, 240, i, 1),
            Ipv4Addr::new(208, 65, i, 1),
        ];
        (0..net.node_count() as u32)
            .map(NodeId)
            .filter(|&n| expected.contains(&net.node(n).ip))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn cities_get_full_service_sets() {
        let mut net = Network::new(7);
        let mut rng = SmallRng::seed_from_u64(7);
        let pi = PublicInternet::build(&mut net, &[City::Amsterdam, City::Singapore], &mut rng);
        for svc in [
            Service::Google,
            Service::Facebook,
            Service::YouTube,
            Service::Ookla,
            Service::FastCom,
        ] {
            assert!(
                pi.targets.nearest(&net, svc, City::Amsterdam).is_some(),
                "{svc:?}"
            );
        }
        for p in CdnProvider::ALL {
            assert!(pi
                .targets
                .nearest(&net, Service::Cdn(p), City::Singapore)
                .is_some());
            assert!(
                pi.targets.origin(p).is_some(),
                "origins built with GOOGLE_DNS_CITIES"
            );
        }
        assert!(pi.ix(City::Amsterdam).is_some());
        assert!(pi.ix(City::Berlin).is_none());
    }

    #[test]
    fn ensure_city_is_idempotent() {
        let mut net = Network::new(7);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut pi = PublicInternet::build(&mut net, &[City::London], &mut rng);
        let n = net.node_count();
        pi.ensure_city(&mut net, City::London, &mut rng);
        assert_eq!(net.node_count(), n);
    }

    #[test]
    fn ix_mesh_routes_between_cities() {
        let mut net = Network::new(7);
        let mut rng = SmallRng::seed_from_u64(7);
        let pi = PublicInternet::build(&mut net, &[City::Amsterdam, City::Singapore], &mut rng);
        let a = pi.ix(City::Amsterdam).unwrap();
        let s = pi.ix(City::Singapore).unwrap();
        let rtt = net.rtt_ms(a, s).expect("meshed");
        // Amsterdam–Singapore ~10,500 km × 1.35 circuitousness ≈ 70 ms
        // one-way.
        assert!((120.0..220.0).contains(&rtt), "AMS–SIN RTT {rtt}");
    }

    #[test]
    fn dns_sites_only_in_designated_cities() {
        let mut net = Network::new(7);
        let mut rng = SmallRng::seed_from_u64(7);
        let pi = PublicInternet::build(&mut net, &[City::Berlin], &mut rng);
        let ordered = pi.targets.google_dns_by_distance(&net, City::Dallas);
        assert!(!ordered.is_empty());
        // Nearest two to a Dallas breakout are Fort Worth and Tulsa.
        let first = net.node(ordered[0]).city;
        let second = net.node(ordered[1]).city;
        assert_eq!(first, City::FortWorth);
        assert_eq!(second, City::Tulsa);
    }

    #[test]
    fn registry_knows_sp_prefixes() {
        let mut net = Network::new(7);
        let mut rng = SmallRng::seed_from_u64(7);
        let pi = PublicInternet::build(&mut net, &[City::Amsterdam], &mut rng);
        let google = pi
            .targets
            .nearest(&net, Service::Google, City::Amsterdam)
            .unwrap();
        let ip = net.node(google).ip;
        let info = net.registry().lookup(ip).expect("registered");
        assert_eq!(info.asn, well_known::GOOGLE);
        assert_eq!(info.city, City::Amsterdam);
    }
}
