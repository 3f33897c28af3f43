//! The assembled world: marketplace, attachments and campaign tables.

use crate::gateways::Gateways;
use crate::operators::Operators;
use crate::topology::PublicInternet;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use roam_cellular::{ChannelSampler, ImsiRange, MnoId, Rat, SimProfile, SimType, SubscriberClass};
use roam_codec::{FieldWriter, Fields, Fnv64, Sink};
use roam_core::{Aggregator, CountryOffer};
use roam_geo::{City, Country};
use roam_ipx::{
    attach, AttachParams, BreakoutConfig, DnsMode, PeeringQuality, PgwProviderId, RoamingArch,
};
use roam_measure::{DeviceCampaignSpec, Endpoint};
use roam_netsim::{Ipv4Net, Network, NodeKind};

/// Which breakout arrangement a country's Airalo eSIM uses — resolved to
/// concrete provider ids once the gateways exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arrangement {
    /// HR through Singtel's home gateway.
    SingtelHr,
    /// IHBO alternating Packet Host / OVH.
    PacketHostOrOvh,
    /// IHBO via Packet Host only (the Saudi eSIM, and Polkomtel's pinned
    /// Ashburn sessions).
    PacketHostOnly,
    /// IHBO via Wireless Logic, London.
    WirelessLogic,
    /// IHBO via Webbing, Amsterdam.
    WebbingEu,
    /// IHBO via Webbing, Dallas.
    WebbingUs,
    /// Native eSIM from a local partner.
    Native,
}

/// Static per-country configuration (Table 2 + §4.1 + Fig. 11 RATs).
#[derive(Debug, Clone)]
pub struct CountryPlan {
    /// The destination country.
    pub country: Country,
    /// v-MNO the eSIM roams on (and the physical SIM's operator in the
    /// device campaign, except Korea).
    pub v_mno: &'static str,
    /// b-MNO issuing the Airalo eSIM.
    pub b_mno: &'static str,
    /// RAT the campaign measured on.
    pub rat: Rat,
    arrangement: Arrangement,
    /// Physical-SIM operator, when the country is in the device campaign.
    pub physical: Option<&'static str>,
    /// Channel conditions in that country.
    pub channel: ChannelSampler,
}

fn ch(mode_cqi: u8, weak_tail: f64) -> ChannelSampler {
    ChannelSampler {
        mode_cqi,
        weak_tail,
    }
}

/// A plan's section of [`World::fingerprint`].
struct PlanFields<'a>(&'a CountryPlan);

impl Fields for PlanFields<'_> {
    fn write_fields<S: Sink>(&self, w: &mut FieldWriter<S>) {
        let p = self.0;
        w.str(1, p.country.alpha3());
        w.str(2, p.v_mno);
        w.str(3, p.b_mno);
        w.str_fmt(4, format_args!("{:?}", p.rat));
        w.str_fmt(5, format_args!("{:?}", p.arrangement));
        w.str(6, p.physical.unwrap_or(""));
        w.u64(7, u64::from(p.channel.mode_cqi));
        w.f64(8, p.channel.weak_tail);
    }
}

/// An Airalo offer's section of [`World::fingerprint`].
struct OfferFields<'a>(&'a CountryOffer);

impl Fields for OfferFields<'_> {
    fn write_fields<S: Sink>(&self, w: &mut FieldWriter<S>) {
        let o = self.0;
        w.str(1, o.country.alpha3());
        w.u64(2, u64::from(o.b_mno.0));
        w.str_fmt(3, format_args!("{:?}", o.config));
        w.u64(4, u64::from(o.native));
    }
}

/// The 24 measured countries' plans.
fn country_plans() -> Vec<CountryPlan> {
    use Arrangement::*;
    use Country::*;
    use Rat::*;
    let p = |country, v_mno, b_mno, rat, arrangement, physical, channel| CountryPlan {
        country,
        v_mno,
        b_mno,
        rat,
        arrangement,
        physical,
        channel,
    };
    vec![
        // --- Singtel HR group (Table 2 row 1) ---
        p(
            ARE,
            "Etisalat",
            "Singtel",
            Lte,
            SingtelHr,
            Some("Etisalat"),
            ch(11, 0.2),
        ),
        p(
            JPN,
            "NTT Docomo",
            "Singtel",
            Nr5g,
            SingtelHr,
            None,
            ch(12, 0.15),
        ),
        p(
            PAK,
            "Jazz",
            "Singtel",
            Lte,
            SingtelHr,
            Some("Jazz"),
            ch(10, 0.25),
        ),
        p(MYS, "Maxis", "Singtel", Lte, SingtelHr, None, ch(11, 0.2)),
        p(
            CHN,
            "China Mobile",
            "Singtel",
            Nr5g,
            SingtelHr,
            None,
            ch(12, 0.15),
        ),
        // --- Play IHBO group ---
        p(
            GBR,
            "UK Partner",
            "Play",
            Lte,
            PacketHostOrOvh,
            Some("UK Partner"),
            ch(11, 0.2),
        ),
        p(
            DEU,
            "Vodafone DE",
            "Play",
            Nr5g,
            PacketHostOrOvh,
            Some("Vodafone DE"),
            ch(12, 0.2),
        ),
        p(
            GEO,
            "Magti",
            "Play",
            Nr5g,
            PacketHostOrOvh,
            Some("Magti"),
            ch(12, 0.2),
        ),
        p(
            ESP,
            "Movistar",
            "Play",
            Nr5g,
            PacketHostOrOvh,
            Some("Movistar"),
            ch(12, 0.2),
        ),
        // --- Telna IHBO group ---
        p(
            QAT,
            "Ooredoo Qatar",
            "Telna Mobile",
            Nr5g,
            PacketHostOrOvh,
            Some("Ooredoo Qatar"),
            ch(12, 0.15),
        ),
        p(
            SAU,
            "STC",
            "Telna Mobile",
            Nr5g,
            PacketHostOnly,
            Some("STC"),
            ch(13, 0.15),
        ),
        p(
            TUR,
            "Turkcell",
            "Telna Mobile",
            Lte,
            PacketHostOrOvh,
            None,
            ch(11, 0.2),
        ),
        p(
            EGY,
            "Vodafone EG",
            "Telna Mobile",
            Lte,
            PacketHostOrOvh,
            None,
            ch(10, 0.25),
        ),
        // --- Telecom Italia IHBO group ---
        p(
            MDA,
            "Moldcell",
            "Telecom Italia",
            Lte,
            WirelessLogic,
            None,
            ch(11, 0.2),
        ),
        p(
            KEN,
            "Safaricom",
            "Telecom Italia",
            Lte,
            WirelessLogic,
            None,
            ch(10, 0.25),
        ),
        p(
            FIN,
            "Elisa",
            "Telecom Italia",
            Nr5g,
            WirelessLogic,
            None,
            ch(13, 0.1),
        ),
        p(
            AZE,
            "Azercell",
            "Telecom Italia",
            Lte,
            WirelessLogic,
            None,
            ch(11, 0.2),
        ),
        // --- Orange IHBO group ---
        p(
            ITA,
            "TIM Italy",
            "Orange",
            Lte,
            WebbingEu,
            None,
            ch(11, 0.2),
        ),
        p(
            USA,
            "T-Mobile US",
            "Orange",
            Nr5g,
            WebbingUs,
            None,
            ch(12, 0.15),
        ),
        // --- Polkomtel IHBO group (pinned to Ashburn) ---
        p(
            FRA,
            "Orange FR Visited",
            "Polkomtel",
            Nr5g,
            PacketHostOnly,
            None,
            ch(12, 0.15),
        ),
        p(
            UZB,
            "Beeline UZ",
            "Polkomtel",
            Lte,
            PacketHostOnly,
            None,
            ch(10, 0.25),
        ),
        // --- native partners (§4.1) ---
        p(
            KOR,
            "LG U+",
            "LG U+",
            Nr5g,
            Native,
            Some("U+ UMobile"),
            ch(13, 0.15),
        ),
        p(
            MDV,
            "Ooredoo Maldives",
            "Ooredoo Maldives",
            Lte,
            Native,
            None,
            ch(10, 0.25),
        ),
        p(THA, "dtac", "dtac", Lte, Native, Some("dtac"), ch(11, 0.2)),
    ]
}

/// One row of Table 4 (device campaign).
#[derive(Debug, Clone, Copy)]
pub struct DeviceCountrySpec {
    /// Campaign country.
    pub country: Country,
    /// Days of data collection.
    pub days: u32,
    /// Per-test sample counts `(physical // eSIM)`.
    pub spec: DeviceCampaignSpec,
}

/// One row of Table 3 (web campaign).
#[derive(Debug, Clone, Copy)]
pub struct WebCountrySpec {
    /// Campaign country.
    pub country: Country,
    /// Volunteers who travelled there.
    pub volunteers: u32,
    /// Days of collection.
    pub days: u32,
    /// Completed measurements (DNS + fast.com pairs).
    pub measurements: u32,
}

/// The fully built world.
#[derive(Debug)]
pub struct World {
    /// The packet network (topology + registry).
    pub net: Network,
    /// Operator census.
    pub ops: Operators,
    /// Gateway providers.
    pub gateways: Gateways,
    /// Peering-quality table.
    pub peering: PeeringQuality,
    /// Public internet + service targets.
    pub internet: PublicInternet,
    /// The Airalo-model marketplace.
    pub airalo: Aggregator,
    plans: Vec<CountryPlan>,
    rng: SmallRng,
    session_counter: u32,
    attach_counts: std::collections::HashMap<Country, u32>,
}

impl World {
    /// Build the calibrated world from a seed.
    #[must_use]
    pub fn build(seed: u64) -> World {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut net = Network::new(seed ^ 0x526f_616d); // "Roam"
        let ops = Operators::build();
        let gateways = Gateways::build(&ops, net.registry_mut());
        let plans = country_plans();

        // Public internet in every SGW city plus every gateway city.
        let mut cities: Vec<City> = plans
            .iter()
            .map(|p| City::sgw_city_for(p.country).expect("measured country"))
            .collect();
        for (_, provider) in gateways.dir.iter() {
            for site in &provider.sites {
                cities.push(site.city);
            }
        }
        let mut internet = PublicInternet::build(&mut net, &cities, &mut rng);

        // Operator DNS resolvers, co-located with each operator's gateway.
        for (id, _mno) in ops.dir.iter() {
            let pid = gateways.own_gateway(id);
            let site = &gateways.dir.get(pid).sites[0];
            let ip = site.prefix.nth(250).expect("a /24 has a 250th address");
            internet.ensure_city(&mut net, site.city, &mut rng);
            let node = net.add_node(
                &format!("dns-{}", gateways.dir.get(pid).name),
                NodeKind::DnsResolver,
                site.city,
                ip,
            );
            let ix = internet.ix(site.city).expect("ensured above");
            net.link_geo(node, ix, roam_netsim::LinkClass::Metro);
            internet.targets.set_operator_dns(id, node);
        }

        // Peering-quality calibration (§4.3.2, §5.1): the spread between a
        // well-peered European IHBO tunnel and the Jazz→Singtel hairpin.
        let mut peering = PeeringQuality::with_default(2.1);
        {
            let singtel_gw = gateways.own_gateway(ops.id("Singtel"));
            let ph = gateways.packet_host;
            let ovh = gateways.ovh;
            let wl = gateways.wireless_logic;
            let mut set = |v: &str, p: PgwProviderId, c: f64| {
                peering.set(ops.id(v), p, c);
            };
            set("Jazz", singtel_gw, 6.5);
            set("Etisalat", singtel_gw, 3.2);
            set("NTT Docomo", singtel_gw, 2.2);
            set("Maxis", singtel_gw, 1.8);
            set("China Mobile", singtel_gw, 3.5);
            set("Vodafone DE", ph, 1.8);
            set("Vodafone DE", ovh, 2.8);
            set("Movistar", ph, 1.7);
            set("Movistar", ovh, 2.9);
            set("UK Partner", ph, 1.6);
            set("UK Partner", ovh, 2.5);
            set("Magti", ph, 3.0);
            set("Magti", ovh, 1.9);
            set("Ooredoo Qatar", ph, 1.35);
            set("Ooredoo Qatar", ovh, 1.45);
            set("STC", ph, 1.35);
            set("Turkcell", ph, 2.0);
            set("Turkcell", ovh, 2.1);
            set("Vodafone EG", ph, 2.2);
            set("Vodafone EG", ovh, 2.3);
            set("Moldcell", wl, 2.2);
            set("Safaricom", wl, 2.4);
            set("Elisa", wl, 1.9);
            set("Azercell", wl, 2.6);
            set("TIM Italy", gateways.webbing_eu, 1.8);
            set("T-Mobile US", gateways.webbing_us, 1.7);
            set("Orange FR Visited", ph, 1.6);
            set("Beeline UZ", ph, 2.4);
        }

        // The marketplace: one offer per measured country, with an IMSI
        // block leased from the b-MNO.
        let mut airalo = Aggregator::new("Airalo");
        for (idx, plan) in plans.iter().enumerate() {
            let b = ops.id(plan.b_mno);
            let b_country = ops.dir.get(b).country;
            let range = ImsiRange {
                plmn: ops.dir.get(b).plmn,
                start: 700_000_000 + idx as u64 * 100_000,
                len: 100_000,
            };
            let config = resolve_config(plan.arrangement, &gateways, b);
            airalo.list_offer(plan.country, b, b_country, range, config);
        }

        World {
            net,
            ops,
            gateways,
            peering,
            internet,
            airalo,
            plans,
            rng,
            session_counter: 0,
            attach_counts: std::collections::HashMap::new(),
        }
    }

    /// Deterministic structural digest of the built world: topology size,
    /// the full country-plan table and the marketplace catalogue, folded
    /// through the roam-codec field encoding into one FNV-1a hash. The
    /// encoding streams into the hash as it is written, so the digest
    /// allocates nothing.
    ///
    /// Two processes that call `World::build` with the same seed (on any
    /// build of the same schema) agree on this value; a world built from
    /// a different seed — or a build whose plan tables changed — does
    /// not. The fleet checkpoint layer stamps it into every manifest so a
    /// resume against the wrong world is rejected instead of silently
    /// producing a plausible-but-wrong report.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = FieldWriter::with_sink(Fnv64::new());
        h.u64(1, self.net.node_count() as u64);
        for p in &self.plans {
            h.section_of(2, &PlanFields(p));
        }
        for o in self.airalo.offers() {
            h.section_of(3, &OfferFields(o));
        }
        h.into_sink().finish()
    }

    /// The country plan table.
    #[must_use]
    pub fn plan(&self, country: Country) -> &CountryPlan {
        self.plans
            .iter()
            .find(|p| p.country == country)
            .unwrap_or_else(|| panic!("{country} not in the measured set"))
    }

    /// All measured countries, in Table-2 order.
    #[must_use]
    pub fn measured_countries(&self) -> Vec<Country> {
        self.plans.iter().map(|p| p.country).collect()
    }

    /// Buy an Airalo eSIM for `country` and attach it: a fresh session with
    /// the country's arrangement (providers may alternate between calls,
    /// as the campaigns observed).
    pub fn attach_esim(&mut self, country: Country) -> Endpoint {
        let plan = self.plan(country).clone();
        let (profile, offer) = self
            .airalo
            .buy_esim(country)
            .expect("catalogue covers measured countries");
        let v = self.ops.id(plan.v_mno);
        // Providers *iterate* across attachments (§4.1: Play/Telna eSIMs
        // alternated between Packet Host and OVH) — round-robin per country.
        let count = self.attach_counts.entry(country).or_insert(0);
        let provider = offer.config.providers[*count as usize % offer.config.providers.len()];
        *count += 1;
        self.attach_profile(
            &profile,
            &plan,
            v,
            offer.config.arch,
            provider,
            offer.config.dns,
            SimType::Esim,
        )
    }

    /// Attach an Airalo-style eSIM with an *overridden* breakout — the
    /// hook the ablation experiments use to ask "what if this eSIM used
    /// LBO at the v-MNO?" or "what if the nearest hub were selected?".
    pub fn attach_esim_with(
        &mut self,
        country: Country,
        arch: RoamingArch,
        provider: PgwProviderId,
        dns: DnsMode,
    ) -> Endpoint {
        let plan = self.plan(country).clone();
        let (profile, _offer) = self
            .airalo
            .buy_esim(country)
            .expect("catalogue covers measured countries");
        let v = self.ops.id(plan.v_mno);
        self.attach_profile(&profile, &plan, v, arch, provider, dns, SimType::Esim)
    }

    /// Attach the local physical SIM of a device-campaign country.
    pub fn attach_physical(&mut self, country: Country) -> Endpoint {
        let plan = self.plan(country).clone();
        let op_name = plan.physical.expect("country is in the device campaign");
        let op = self.ops.id(op_name);
        let provider = self.gateways.own_gateway(op);
        let profile = SimProfile {
            iccid: 10_000 + u64::from(self.session_counter),
            sim_type: SimType::Physical,
            imsi: roam_cellular::Imsi::new(self.ops.dir.get(op).plmn, 42),
            issuer: op,
            data_roaming_enabled: false,
        };
        let mut plan2 = plan.clone();
        plan2.v_mno = op_name;
        self.attach_profile(
            &profile,
            &plan2,
            op,
            RoamingArch::Native,
            provider,
            DnsMode::OperatorResolver,
            SimType::Physical,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn attach_profile(
        &mut self,
        profile: &SimProfile,
        plan: &CountryPlan,
        v_mno: MnoId,
        arch: RoamingArch,
        provider: PgwProviderId,
        dns: DnsMode,
        sim_type: SimType,
    ) -> Endpoint {
        let session_id = self.session_counter;
        self.session_counter += 1;
        let params = AttachParams {
            session_id,
            ue_city: City::sgw_city_for(plan.country).expect("measured country"),
            v_mno,
            b_mno: profile.issuer,
            arch,
            provider,
            dns,
            rat: plan.rat,
            imsi: profile.imsi,
        };
        let att = attach(
            &mut self.net,
            &self.gateways.dir,
            &self.ops.dir,
            &self.peering,
            &params,
            &mut self.rng,
        );
        let transit: Vec<(String, roam_netsim::Asn)> = self.gateways.transit_of(provider).to_vec();
        self.internet
            .connect_breakout(&mut self.net, &att, &transit, &mut self.rng);

        // Resolve the policy the serving network applies.
        let serving = self.ops.dir.get(v_mno);
        let class = if arch.is_roaming() {
            SubscriberClass::InboundRoamer
        } else {
            SubscriberClass::Native
        };
        let policy = serving.policy(class);
        // Video throttling follows the network that owns the breakout: the
        // b-MNO for HR/native, the v-MNO otherwise (§5.2).
        let youtube_cap = match arch {
            RoamingArch::HomeRouted | RoamingArch::Native => {
                self.ops.dir.get(profile.issuer).youtube_cap_mbps
            }
            _ => serving.youtube_cap_mbps,
        };

        Endpoint {
            att,
            sim_type,
            country: plan.country,
            label: format!(
                "{} {}",
                plan.country.alpha3(),
                if sim_type == SimType::Esim {
                    "eSIM"
                } else {
                    "SIM"
                }
            ),
            policy_down_mbps: policy.down_mbps,
            policy_up_mbps: policy.up_mbps,
            youtube_cap_mbps: youtube_cap,
            loss: serving.access_loss,
            channel: plan.channel,
        }
    }

    /// The device campaign's per-country sample counts (Table 4).
    #[must_use]
    pub fn device_campaign_specs() -> Vec<DeviceCountrySpec> {
        use Country::*;
        let row = |country, days, ookla, mtr, cdn, video| DeviceCountrySpec {
            country,
            days,
            spec: DeviceCampaignSpec {
                ookla,
                mtr_per_target: mtr,
                cdn_per_provider: cdn,
                dns: mtr,
                video,
            },
        };
        vec![
            row(GEO, 2, (11, 8), (12, 12), (12, 10), (7, 7)),
            row(DEU, 25, (154, 136), (331, 319), (322, 305), (5, 10)),
            row(KOR, 2, (18, 10), (32, 18), (32, 16), (10, 9)),
            row(PAK, 9, (49, 121), (213, 205), (210, 200), (98, 101)),
            row(QAT, 1, (3, 7), (14, 10), (14, 12), (7, 4)),
            row(SAU, 3, (10, 17), (49, 44), (170, 165), (79, 74)),
            row(ESP, 4, (15, 31), (171, 164), (166, 158), (0, 0)),
            row(THA, 8, (34, 42), (100, 80), (96, 96), (36, 29)),
            row(ARE, 4, (19, 47), (100, 97), (99, 165), (45, 46)),
            row(GBR, 4, (10, 6), (11, 9), (15, 12), (0, 0)),
        ]
    }

    /// The web campaign's per-country overview (Table 3).
    #[must_use]
    pub fn web_campaign_specs() -> Vec<WebCountrySpec> {
        use Country::*;
        let row = |country, volunteers, days, measurements| WebCountrySpec {
            country,
            volunteers,
            days,
            measurements,
        };
        vec![
            row(ITA, 1, 11, 9),
            row(CHN, 1, 5, 6),
            row(MDA, 1, 10, 11),
            row(FRA, 2, 9, 15),
            row(AZE, 1, 4, 5),
            row(MDV, 1, 3, 5),
            row(MYS, 1, 3, 5),
            row(KEN, 1, 4, 9),
            row(USA, 1, 4, 9),
            row(FIN, 1, 1, 3),
            row(PAK, 1, 11, 16),
            row(EGY, 1, 6, 8),
            row(TUR, 1, 7, 9),
            row(UZB, 1, 3, 6),
        ]
    }

    /// Verify the session's GTP/registry plumbing end to end: the breakout
    /// address must resolve (via the registry, as ipinfo would) to the
    /// provider's ASN.
    #[must_use]
    pub fn breakout_asn(&self, ep: &Endpoint) -> Option<roam_netsim::Asn> {
        self.net.registry().asn_of(ep.att.public_ip)
    }

    /// Prefix helper for tests and reports.
    #[must_use]
    pub fn prefix_of(&self, s: &str) -> Ipv4Net {
        Ipv4Net::parse(s).expect("static prefix")
    }
}

fn resolve_config(arr: Arrangement, gw: &Gateways, b_mno: MnoId) -> BreakoutConfig {
    match arr {
        Arrangement::SingtelHr | Arrangement::Native => {
            let own = gw.own_gateway(b_mno);
            if arr == Arrangement::Native {
                BreakoutConfig {
                    arch: RoamingArch::Native,
                    providers: vec![own],
                    dns: DnsMode::OperatorResolver,
                }
            } else {
                BreakoutConfig::home_routed(own)
            }
        }
        Arrangement::PacketHostOrOvh => BreakoutConfig::ihbo(vec![gw.packet_host, gw.ovh]),
        Arrangement::PacketHostOnly => BreakoutConfig::ihbo(vec![gw.packet_host]),
        Arrangement::WirelessLogic => BreakoutConfig::ihbo(vec![gw.wireless_logic]),
        Arrangement::WebbingEu => BreakoutConfig::ihbo(vec![gw.webbing_eu]),
        Arrangement::WebbingUs => BreakoutConfig::ihbo(vec![gw.webbing_us]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roam_netsim::registry::well_known;

    #[test]
    fn fingerprint_is_seed_stable_and_seed_sensitive() {
        // Same seed, independent builds: identical digest (the property
        // resume depends on — a restarted process re-derives it).
        let a = World::build(42).fingerprint();
        let b = World::build(42).fingerprint();
        assert_eq!(a, b);
        // Different seed: different structural content, different digest.
        let c = World::build(43).fingerprint();
        assert_ne!(a, c);
    }

    #[test]
    fn world_builds_and_serves_24_countries() {
        let w = World::build(1);
        assert_eq!(w.measured_countries().len(), 24);
        assert_eq!(w.airalo.countries_served(), 24);
    }

    #[test]
    fn hr_esim_breaks_out_in_singapore_with_singtel_asn() {
        let mut w = World::build(1);
        let ep = w.attach_esim(Country::PAK);
        assert_eq!(ep.att.arch, RoamingArch::HomeRouted);
        assert_eq!(ep.att.breakout_city, City::Singapore);
        assert_eq!(w.breakout_asn(&ep), Some(well_known::SINGTEL));
        assert_eq!(
            ep.att.private_hops, 8,
            "the stable 8-hop PAK eSIM private path"
        );
    }

    #[test]
    fn physical_sim_is_native_at_home() {
        let mut w = World::build(1);
        let ep = w.attach_physical(Country::PAK);
        assert_eq!(ep.att.arch, RoamingArch::Native);
        assert_eq!(ep.att.breakout_city, City::Karachi);
        assert_eq!(w.breakout_asn(&ep), Some(well_known::PMCL));
        assert_eq!(
            ep.att.private_hops, 4,
            "the stable 4-hop PAK SIM private path"
        );
    }

    #[test]
    fn play_esims_alternate_between_packet_host_and_ovh() {
        let mut w = World::build(3);
        let mut asns = std::collections::HashSet::new();
        for _ in 0..12 {
            let ep = w.attach_esim(Country::DEU);
            assert_eq!(ep.att.arch, RoamingArch::IpxHubBreakout);
            asns.insert(w.breakout_asn(&ep).expect("registered breakout"));
        }
        assert!(asns.contains(&well_known::PACKET_HOST));
        assert!(asns.contains(&well_known::OVH));
    }

    #[test]
    fn saudi_esim_uses_packet_host_only() {
        let mut w = World::build(4);
        for _ in 0..6 {
            let ep = w.attach_esim(Country::SAU);
            assert_eq!(w.breakout_asn(&ep), Some(well_known::PACKET_HOST));
            assert_eq!(ep.att.breakout_city, City::Amsterdam, "Telna → AMS site");
        }
    }

    #[test]
    fn polkomtel_esims_pin_to_ashburn() {
        let mut w = World::build(5);
        let fra = w.attach_esim(Country::FRA);
        let uzb = w.attach_esim(Country::UZB);
        assert_eq!(fra.att.breakout_city, City::Ashburn);
        assert_eq!(uzb.att.breakout_city, City::Ashburn);
    }

    #[test]
    fn orange_esims_split_webbing_sites() {
        let mut w = World::build(6);
        let ita = w.attach_esim(Country::ITA);
        let usa = w.attach_esim(Country::USA);
        assert_eq!(ita.att.breakout_city, City::Amsterdam);
        assert_eq!(usa.att.breakout_city, City::Dallas);
        assert_eq!(w.breakout_asn(&ita), Some(well_known::WEBBING));
        assert_eq!(w.breakout_asn(&usa), Some(well_known::WEBBING));
    }

    #[test]
    fn native_esims_are_native() {
        let mut w = World::build(7);
        for c in [Country::KOR, Country::MDV, Country::THA] {
            let ep = w.attach_esim(c);
            assert_eq!(ep.att.arch, RoamingArch::Native, "{c}");
            assert_eq!(ep.att.dns, DnsMode::OperatorResolver);
            assert!(ep.att.tunnel_km < 100.0, "{c} native tunnel is metro-scale");
        }
    }

    #[test]
    fn ihbo_esims_use_google_doh() {
        let mut w = World::build(8);
        let ep = w.attach_esim(Country::GEO);
        assert_eq!(ep.att.dns, DnsMode::GooglePublic { doh: true });
    }

    #[test]
    fn roamer_policy_binds_esims_native_policy_binds_sims() {
        let mut w = World::build(9);
        let esim = w.attach_esim(Country::SAU);
        let sim = w.attach_physical(Country::SAU);
        assert!(sim.policy_down_mbps > 100.0, "STC natives are fast");
        assert!(esim.policy_down_mbps <= 15.0, "roamers are throttled");
    }

    #[test]
    fn hr_esim_inherits_bmno_video_throttle() {
        let mut w = World::build(10);
        let ep = w.attach_esim(Country::ARE);
        assert_eq!(ep.youtube_cap_mbps, Some(4.5), "Singtel's YouTube cap");
        let deu = w.attach_esim(Country::DEU);
        assert_eq!(deu.youtube_cap_mbps, None);
    }

    #[test]
    fn campaign_tables_match_paper_shapes() {
        let dev = World::device_campaign_specs();
        assert_eq!(dev.len(), 10);
        let total_web: u32 = World::web_campaign_specs()
            .iter()
            .map(|w| w.measurements)
            .sum();
        assert_eq!(
            total_web, 116,
            "Table 3 sums to ~117 completed measurements"
        );
        let deu = dev.iter().find(|d| d.country == Country::DEU).unwrap();
        assert_eq!(deu.spec.ookla, (154, 136));
        let esp = dev.iter().find(|d| d.country == Country::ESP).unwrap();
        assert_eq!(esp.spec.video, (0, 0), "Spain video excluded (§A.3)");
    }
}
