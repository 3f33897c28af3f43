//! The PGW providers of the Airalo ecosystem plus every operator's own
//! gateway, with address pools registered in the IP registry.
//!
//! Structural facts from Table 2 and §4.3.2:
//!
//! * **Singtel** breaks its roamers out at home in Singapore
//!   (`202.166.126.0/24`, 4 addresses, 6 core hops) — the HR configuration;
//! * **Packet Host** (AS54825) runs Amsterdam and Ashburn; Play and Telna
//!   sessions land in Amsterdam, Polkomtel's in Ashburn; its address pool
//!   is shared across b-MNOs and the core shows 6–7 private hops;
//! * **OVH** (AS16276) runs Lille (plus a Wattrelos prefix), partitions
//!   addresses per b-MNO, and exposes only 3 private hops;
//! * **Wireless Logic** (AS51320) breaks Telecom-Italia-provisioned eSIMs
//!   out in London;
//! * **Webbing** (AS393559) serves Orange-provisioned eSIMs from Amsterdam
//!   (the Italy eSIM) and Dallas (the USA eSIM);
//! * every native/physical operator has its **own gateway** at home, with
//!   private-hop depths calibrated to Fig. 7 (Jazz 2, dtac 2–8, LG U+ 5,
//!   U+ UMobile 5–7…).

use crate::operators::Operators;
use roam_cellular::MnoId;
use roam_geo::{City, Country};
use roam_ipx::{
    IpAssignment, PgwProvider, PgwProviderId, PgwSelection, PgwSite, ProviderDirectory,
};
use roam_netsim::registry::well_known;
use roam_netsim::{Asn, IpRegistry, Ipv4Net};
use std::collections::HashMap;

/// The provider directory plus the lookup maps the world needs.
#[derive(Debug)]
pub struct Gateways {
    /// All providers.
    pub dir: ProviderDirectory,
    /// Each operator's own gateway (native/physical/HR breakout).
    own: HashMap<u32, PgwProviderId>,
    /// Packet Host.
    pub packet_host: PgwProviderId,
    /// OVH SAS.
    pub ovh: PgwProviderId,
    /// Wireless Logic.
    pub wireless_logic: PgwProviderId,
    /// Webbing, Amsterdam breakout.
    pub webbing_eu: PgwProviderId,
    /// Webbing, Dallas breakout.
    pub webbing_us: PgwProviderId,
    /// National transit ASes crossed after some operators' own gateways
    /// (Jazz via LINKdotNET/Transworld, Movistar via Telefónica Global —
    /// the 3-ASN traceroutes of §4.3.3).
    transit: HashMap<u32, Vec<(String, Asn)>>,
}

impl Gateways {
    /// The gateway provider owned by `mno`.
    #[must_use]
    pub fn own_gateway(&self, mno: MnoId) -> PgwProviderId {
        *self
            .own
            .get(&mno.0)
            .unwrap_or_else(|| panic!("operator {} has no own gateway", mno.0))
    }

    /// Transit organisations between a provider's CG-NAT and the public
    /// peering fabric (usually empty).
    #[must_use]
    pub(crate) fn transit_of(&self, provider: PgwProviderId) -> &[(String, Asn)] {
        self.transit
            .get(&provider.0)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Build the provider directory, registering every breakout prefix in
    /// the registry.
    #[must_use]
    pub fn build(ops: &Operators, registry: &mut IpRegistry) -> Gateways {
        let mut dir = ProviderDirectory::new();
        let mut own = HashMap::new();
        let mut transit: HashMap<u32, Vec<(String, Asn)>> = HashMap::new();

        let play = ops.id("Play");
        let telna = ops.id("Telna Mobile");
        let polkomtel = ops.id("Polkomtel");

        // --- third-party IHBO providers ------------------------------------
        let ph_ams = Ipv4Net::parse("147.75.80.0/24").expect("static prefix");
        let ph_iad = Ipv4Net::parse("147.28.128.0/24").expect("static prefix");
        registry.register(
            ph_ams,
            well_known::PACKET_HOST,
            "Packet Host",
            City::Amsterdam,
        );
        registry.register(
            ph_iad,
            well_known::PACKET_HOST,
            "Packet Host",
            City::Ashburn,
        );
        let packet_host = dir.add(PgwProvider {
            name: "Packet Host".into(),
            asn: well_known::PACKET_HOST,
            sites: vec![
                PgwSite::new(City::Amsterdam, ph_ams, 4),
                PgwSite::new(City::Ashburn, ph_iad, 4),
            ],
            selection: PgwSelection::ByBmno(vec![(play, 0), (telna, 0), (polkomtel, 1)]),
            ip_assignment: IpAssignment::Pooled,
            private_hops: (6, 7),
            cgnat_icmp_responds: true,
        });

        let ovh_lille = Ipv4Net::parse("141.95.10.0/24").expect("static prefix");
        let ovh_wattrelos = Ipv4Net::parse("141.94.20.0/24").expect("static prefix");
        registry.register(ovh_lille, well_known::OVH, "OVH SAS", City::Lille);
        registry.register(ovh_wattrelos, well_known::OVH, "OVH SAS", City::Wattrelos);
        let ovh = dir.add(PgwProvider {
            name: "OVH SAS".into(),
            asn: well_known::OVH,
            sites: vec![
                PgwSite::new(City::Lille, ovh_lille, 6),
                PgwSite::new(City::Wattrelos, ovh_wattrelos, 1),
            ],
            // Mostly Lille; the Wattrelos PGW exists but no measured b-MNO
            // is steered there (§4.3.2 saw it once).
            selection: PgwSelection::ByBmno(vec![(play, 0), (telna, 0)]),
            ip_assignment: IpAssignment::ByBmno,
            private_hops: (3, 3),
            cgnat_icmp_responds: true,
        });

        let wl_lon = Ipv4Net::parse("45.86.162.0/24").expect("static prefix");
        registry.register(
            wl_lon,
            well_known::WIRELESS_LOGIC,
            "Wireless Logic",
            City::London,
        );
        let wireless_logic = dir.add(PgwProvider {
            name: "Wireless Logic".into(),
            asn: well_known::WIRELESS_LOGIC,
            sites: vec![PgwSite::new(City::London, wl_lon, 4)],
            selection: PgwSelection::Fixed(0),
            ip_assignment: IpAssignment::Pooled,
            private_hops: (4, 5),
            cgnat_icmp_responds: true,
        });

        let web_ams = Ipv4Net::parse("185.175.50.0/24").expect("static prefix");
        let web_dal = Ipv4Net::parse("12.54.30.0/24").expect("static prefix");
        registry.register(web_ams, well_known::WEBBING, "Webbing USA", City::Amsterdam);
        registry.register(web_dal, well_known::WEBBING, "Webbing USA", City::Dallas);
        let webbing_eu = dir.add(PgwProvider {
            name: "Webbing USA".into(),
            asn: well_known::WEBBING,
            sites: vec![PgwSite::new(City::Amsterdam, web_ams, 3)],
            selection: PgwSelection::Fixed(0),
            ip_assignment: IpAssignment::Pooled,
            private_hops: (4, 5),
            cgnat_icmp_responds: true,
        });
        let webbing_us = dir.add(PgwProvider {
            name: "Webbing USA".into(),
            asn: well_known::WEBBING,
            sites: vec![PgwSite::new(City::Dallas, web_dal, 3)],
            selection: PgwSelection::Fixed(0),
            ip_assignment: IpAssignment::Pooled,
            private_hops: (4, 5),
            cgnat_icmp_responds: true,
        });

        // --- own gateways for every operator --------------------------------
        // (operator, prefix third octet is assigned sequentially)
        let mut next_block: u8 = 1;
        for (id, mno) in ops.dir.iter() {
            let city = home_city(mno.country);
            let prefix =
                Ipv4Net::parse(&format!("198.18.{next_block}.0/24")).expect("generated prefix");
            next_block = next_block.checked_add(1).expect("fewer than 255 operators");
            registry.register(prefix, mno.asn, &mno.name, city);
            let (hops, pool) = own_gateway_shape(&mno.name);
            let silent = mno.name == "Ooredoo Qatar"; // §4.3.3's silent hops
            let pid = dir.add(PgwProvider {
                name: mno.name.clone(),
                asn: mno.asn,
                sites: vec![PgwSite::new(city, prefix, pool)],
                selection: PgwSelection::Fixed(0),
                ip_assignment: IpAssignment::Pooled,
                private_hops: hops,
                cgnat_icmp_responds: !silent,
            });
            own.insert(id.0, pid);
            match mno.name.as_str() {
                "Jazz" => {
                    transit.insert(
                        pid.0,
                        vec![
                            ("LINKdotNET".into(), well_known::LINKDOTNET),
                            ("Transworld".into(), well_known::TRANSWORLD),
                        ],
                    );
                }
                "Movistar" => {
                    transit.insert(
                        pid.0,
                        vec![("Telefonica Global".into(), well_known::TELEFONICA_GLOBAL)],
                    );
                }
                _ => {}
            }
        }

        // Singtel's own gateway uses its real prefix: replace the generated
        // one so HR classification sees AS45143 at 202.166.126.0/24.
        let singtel = ops.id("Singtel");
        let singtel_prefix = Ipv4Net::parse("202.166.126.0/24").expect("static prefix");
        registry.register(
            singtel_prefix,
            well_known::SINGTEL,
            "Singtel",
            City::Singapore,
        );
        let singtel_gw = dir.add(PgwProvider {
            name: "Singtel".into(),
            asn: well_known::SINGTEL,
            sites: vec![PgwSite::new(City::Singapore, singtel_prefix, 4)],
            selection: PgwSelection::Fixed(0),
            ip_assignment: IpAssignment::Pooled,
            private_hops: (6, 6),
            cgnat_icmp_responds: true,
        });
        own.insert(singtel.0, singtel_gw);

        Gateways {
            dir,
            own,
            packet_host,
            ovh,
            wireless_logic,
            webbing_eu,
            webbing_us,
            transit,
        }
    }
}

/// Private-core depth and address-pool size of an operator's own gateway,
/// calibrated to §4.3.2 where the paper reports them.
fn own_gateway_shape(name: &str) -> ((u8, u8), u64) {
    match name {
        "Jazz" => ((2, 2), 6),        // PAK SIM: stable 4 private hops total
        "dtac" => ((2, 8), 15),       // THA: 4–10 hops, 15 PGW IPs
        "LG U+" => ((5, 5), 16),      // KOR eSIM: constant 7 hops, 16 IPs
        "U+ UMobile" => ((5, 7), 35), // KOR SIM: 7–9 hops, 35 IPs
        "Singtel" => ((6, 6), 4),     // HR: 8 total, 4 IPs
        _ => ((2, 4), 8),
    }
}

/// Where an operator's home gateway sits.
fn home_city(country: Country) -> City {
    match country {
        Country::SGP => City::Singapore,
        Country::POL => City::Warsaw,
        other => City::sgw_city_for(other).unwrap_or_else(|| panic!("no gateway city for {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn build() -> (Operators, Gateways, IpRegistry) {
        let ops = Operators::build();
        let mut reg = IpRegistry::new();
        let gw = Gateways::build(&ops, &mut reg);
        (ops, gw, reg)
    }

    #[test]
    fn every_operator_has_an_own_gateway() {
        let (ops, gw, _) = build();
        for (id, mno) in ops.dir.iter() {
            let pid = gw.own_gateway(id);
            assert_eq!(gw.dir.get(pid).name, mno.name);
        }
    }

    #[test]
    fn singtel_gateway_uses_the_real_prefix() {
        let (ops, gw, reg) = build();
        let pid = gw.own_gateway(ops.id("Singtel"));
        let site = &gw.dir.get(pid).sites[0];
        assert!(site.prefix.contains("202.166.126.200".parse().unwrap()));
        assert_eq!(site.city, City::Singapore);
        let info = reg.lookup("202.166.126.5".parse().unwrap()).unwrap();
        assert_eq!(info.asn, well_known::SINGTEL);
    }

    #[test]
    fn packet_host_steering_matches_table2() {
        let (ops, gw, _) = build();
        let ph = gw.dir.get(gw.packet_host);
        let mut rng = SmallRng::seed_from_u64(1);
        // Play and Telna → Amsterdam; Polkomtel → Ashburn.
        assert_eq!(
            ph.sites[ph.select_site(ops.id("Play"), &mut rng)].city,
            City::Amsterdam
        );
        assert_eq!(
            ph.sites[ph.select_site(ops.id("Telna Mobile"), &mut rng)].city,
            City::Amsterdam
        );
        assert_eq!(
            ph.sites[ph.select_site(ops.id("Polkomtel"), &mut rng)].city,
            City::Ashburn
        );
    }

    #[test]
    fn ovh_is_shallow_and_packet_host_deep() {
        let (_, gw, _) = build();
        assert_eq!(gw.dir.get(gw.ovh).private_hops, (3, 3));
        assert_eq!(gw.dir.get(gw.packet_host).private_hops, (6, 7));
        assert_eq!(gw.dir.get(gw.ovh).ip_assignment, IpAssignment::ByBmno);
        assert_eq!(
            gw.dir.get(gw.packet_host).ip_assignment,
            IpAssignment::Pooled
        );
    }

    #[test]
    fn webbing_has_two_breakouts() {
        let (_, gw, _) = build();
        assert_eq!(gw.dir.get(gw.webbing_eu).sites[0].city, City::Amsterdam);
        assert_eq!(gw.dir.get(gw.webbing_us).sites[0].city, City::Dallas);
        assert_eq!(gw.dir.get(gw.webbing_eu).asn, gw.dir.get(gw.webbing_us).asn);
    }

    #[test]
    fn national_transit_chains() {
        let (ops, gw, _) = build();
        let jazz_gw = gw.own_gateway(ops.id("Jazz"));
        let chain = gw.transit_of(jazz_gw);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].1, well_known::LINKDOTNET);
        assert_eq!(chain[1].1, well_known::TRANSWORLD);
        let movistar_gw = gw.own_gateway(ops.id("Movistar"));
        assert_eq!(gw.transit_of(movistar_gw).len(), 1);
        let magti_gw = gw.own_gateway(ops.id("Magti"));
        assert!(gw.transit_of(magti_gw).is_empty());
    }

    #[test]
    fn qatari_gateway_is_icmp_silent() {
        let (ops, gw, _) = build();
        let pid = gw.own_gateway(ops.id("Ooredoo Qatar"));
        assert!(!gw.dir.get(pid).cgnat_icmp_responds);
    }

    #[test]
    fn calibrated_core_depths() {
        let (ops, gw, _) = build();
        assert_eq!(
            gw.dir.get(gw.own_gateway(ops.id("Jazz"))).private_hops,
            (2, 2)
        );
        assert_eq!(
            gw.dir.get(gw.own_gateway(ops.id("dtac"))).private_hops,
            (2, 8)
        );
        assert_eq!(
            gw.dir.get(gw.own_gateway(ops.id("LG U+"))).private_hops,
            (5, 5)
        );
        assert_eq!(
            gw.dir
                .get(gw.own_gateway(ops.id("U+ UMobile")))
                .private_hops,
            (5, 7)
        );
        assert_eq!(
            gw.dir.get(gw.own_gateway(ops.id("U+ UMobile"))).sites[0].pool,
            35
        );
    }
}
