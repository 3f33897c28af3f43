//! GTP session establishment: building the attachment subgraph.
//!
//! [`attach`] assembles, inside a [`roam_netsim::Network`], the data path of
//! one SIM/eSIM attachment:
//!
//! ```text
//! UE ──radio── RAN ──metro── SGW ══GTP tunnel══ PGW core (h private hops)
//!                                               └─ CG-NAT (public breakout IP)
//! ```
//!
//! * The **GTP tunnel** is a single virtual link (tunnels are opaque to
//!   TTL) whose latency is the SGW↔PGW geodesic scaled by the *peering
//!   quality* between the v-MNO and the tunnel carrier — the quantity the
//!   paper concludes dominates breakout latency (§4.3 takeaway). The
//!   Create Session exchange that sets it up is not encoded: only its
//!   outcome (the PGW's TEID and the assigned breakout address) is kept.
//! * The **PGW core** exposes the provider-specific number of RFC1918 hops
//!   a traceroute records before the first public address (§4.3.2: 3 for
//!   OVH, 6–7 for Packet Host).
//! * The **CG-NAT** carries the public address drawn from the breakout
//!   site's pool — the "PGW IP address" of the paper's analysis, and the
//!   address every measurement service sees.

use crate::breakout::{DnsMode, RoamingArch};
use crate::provider::{IpAssignment, PgwProviderId, ProviderDirectory};
use rand::rngs::SmallRng;
use rand::Rng;
use roam_cellular::{radio_latency_ms, Cqi, Imsi, MnoDirectory, MnoId, Rat};
use roam_geo::City;
use roam_netsim::link::{LatencyModel, LinkClass};
use roam_netsim::{Network, NodeId, NodeKind, SimTime};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Control-plane bytes one roaming attach costs over the IPX: the Create
/// Session Request and Response, each an 8-byte GTP-C v2 header plus
/// information elements of a 4-byte IE header and a value. This is what the
/// Fig. 5 signalling model charges per attach.
///
/// * Request: IMSI 20 (MNC-plan byte + 15 digits), APN 12 (`internet`),
///   sender F-TEID 12 (TEID + IPv4).
/// * Response: cause 5, PDN Address Allocation 8 (IPv4), PGW F-TEID 12.
///
/// [`Imsi::new`] always yields 15 digits, so every subscriber costs the same.
pub const SIGNALLING_BYTES_PER_ATTACH: usize = (8 + 20 + 12 + 12) + (8 + 5 + 8 + 12);

/// Why a session could not be established. Scenario-construction bugs
/// surface as typed errors instead of panics, so a degraded campaign can
/// record the failure and move on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttachError {
    /// The private 10.0.0.0/8 session space (65 536 /24s) is used up.
    SessionSpaceExhausted {
        /// The session id that did not fit.
        session_id: u32,
    },
    /// A breakout site's address pool does not fit inside its prefix.
    MalformedSitePool {
        /// The provider whose site is misconfigured.
        provider: String,
    },
}

impl std::fmt::Display for AttachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttachError::SessionSpaceExhausted { session_id } => {
                write!(f, "session id space exhausted at {session_id}")
            }
            AttachError::MalformedSitePool { provider } => {
                write!(f, "{provider}: site pool does not fit its prefix")
            }
        }
    }
}

impl std::error::Error for AttachError {}

/// Peering quality between a v-MNO and the organisations carrying its
/// roaming tunnels, expressed as the circuitousness multiplier applied to
/// the SGW↔PGW geodesic. ~1.4 is a tight, well-peered route; ≥4 is the
/// kind of hairpin-through-another-continent path that gives HR eSIMs in
/// Pakistan their 389 ms medians (§5.1).
#[derive(Debug, Clone)]
pub struct PeeringQuality {
    map: HashMap<(MnoId, PgwProviderId), f64>,
    default: f64,
}

impl Default for PeeringQuality {
    fn default() -> Self {
        PeeringQuality {
            map: HashMap::new(),
            default: 1.9,
        }
    }
}

impl PeeringQuality {
    /// A quality table with the given default circuitousness.
    #[must_use]
    pub fn with_default(default: f64) -> Self {
        assert!(
            default >= 1.0,
            "circuitousness cannot beat the great circle"
        );
        PeeringQuality {
            map: HashMap::new(),
            default,
        }
    }

    /// Record the quality of the (v-MNO, carrier) pair.
    pub fn set(&mut self, vmno: MnoId, provider: PgwProviderId, circuitousness: f64) {
        assert!(circuitousness >= 1.0);
        self.map.insert((vmno, provider), circuitousness);
    }

    /// Quality for a pair, falling back to the default.
    #[must_use]
    pub fn get(&self, vmno: MnoId, provider: PgwProviderId) -> f64 {
        *self.map.get(&(vmno, provider)).unwrap_or(&self.default)
    }
}

/// Everything [`attach`] needs to know about the session being set up.
#[derive(Debug, Clone)]
pub struct AttachParams {
    /// Monotonic per-network session counter — used to carve a private
    /// /24 for the session out of 10.0.0.0/8 (supports 65 536 sessions).
    pub session_id: u32,
    /// Where the subscriber (and, approximately, the v-MNO SGW) is.
    pub ue_city: City,
    /// The operator whose RAN the UE attaches to.
    pub v_mno: MnoId,
    /// The operator that issued the profile.
    pub b_mno: MnoId,
    /// Resolved roaming architecture for this session.
    pub arch: RoamingArch,
    /// Resolved PGW provider (owner of the breakout gateway).
    pub provider: PgwProviderId,
    /// DNS behaviour of the session.
    pub dns: DnsMode,
    /// Radio access technology for the attachment.
    pub rat: Rat,
    /// Subscriber identity; one of the keys of the session's flow stamp.
    pub imsi: Imsi,
}

/// A live attachment: the node handles and metadata the measurement layer
/// needs.
#[derive(Debug, Clone)]
pub struct Attachment {
    /// The measurement endpoint itself.
    pub ue: NodeId,
    /// First-hop RAN router (private).
    pub ran: NodeId,
    /// The v-MNO serving gateway (private).
    pub sgw: NodeId,
    /// The CG-NAT at the breakout site (owns the public address).
    pub cgnat: NodeId,
    /// The public breakout address — "the device's public IP".
    pub public_ip: Ipv4Addr,
    /// Architecture of the session.
    pub arch: RoamingArch,
    /// Breakout provider.
    pub provider: PgwProviderId,
    /// City the breakout site sits in.
    pub breakout_city: City,
    /// Great-circle SGW↔PGW distance, km (the Fig. 3 line lengths).
    pub tunnel_km: f64,
    /// DNS behaviour.
    pub dns: DnsMode,
    /// Tunnel endpoint identifier negotiated at attach.
    pub teid: u32,
    /// The serving operator.
    pub v_mno: MnoId,
    /// The issuing operator.
    pub b_mno: MnoId,
    /// RAT of the attachment.
    pub rat: Rat,
    /// Number of private hops a traceroute will record (RAN + SGW +
    /// provider core).
    pub private_hops: u8,
    /// Seed stamped on the session at attach, from which every measurement
    /// run on this attachment derives its per-flow RNG stream (see
    /// [`roam_netsim::engine::flow_seed`]). Keyed by session id, IMSI and
    /// UE city, so no two attachments — across shards or within one —
    /// share a stream.
    pub flow_stamp: u64,
}

/// Establish a session, building its subgraph inside `net`.
///
/// # Panics
/// Panics if `session_id` exceeds the private addressing capacity, or the
/// provider's site pool is malformed. These are scenario-construction bugs;
/// callers that want to degrade instead use `try_attach`.
pub fn attach(
    net: &mut Network,
    providers: &ProviderDirectory,
    mnos: &MnoDirectory,
    peering: &PeeringQuality,
    params: &AttachParams,
    rng: &mut SmallRng,
) -> Attachment {
    match try_attach(net, providers, mnos, peering, params, rng) {
        Ok(att) => att,
        Err(e) => panic!("attach: {e}"),
    }
}

/// Fallible [`attach`]: the same subgraph construction, but addressing
/// exhaustion and malformed site pools come back as [`AttachError`]
/// instead of panicking mid-campaign.
///
/// # Errors
/// Returns an [`AttachError`] when the session cannot be established.
pub(crate) fn try_attach(
    net: &mut Network,
    providers: &ProviderDirectory,
    mnos: &MnoDirectory,
    peering: &PeeringQuality,
    params: &AttachParams,
    rng: &mut SmallRng,
) -> Result<Attachment, AttachError> {
    let provider = providers.get(params.provider);
    let site_idx = provider.select_site(params.b_mno, rng);
    let site = &provider.sites[site_idx];
    let vmno = mnos.get(params.v_mno);

    // --- private addressing for this session -----------------------------
    let s = params.session_id;
    if s >= 65_536 {
        return Err(AttachError::SessionSpaceExhausted { session_id: s });
    }
    let priv_ip = |host: u8| Ipv4Addr::new(10, (s >> 8) as u8, (s & 0xFF) as u8, host);

    // --- UE, RAN, SGW on the visited side ---------------------------------
    let label = format!("s{}", s);
    let ue = net.add_node(
        &format!("{label}-ue"),
        NodeKind::Host,
        params.ue_city,
        priv_ip(2),
    );
    let ran = net.add_node(
        &format!("{label}-ran"),
        NodeKind::Router,
        params.ue_city,
        priv_ip(1),
    );
    let sgw = net.add_node(
        &format!("{label}-sgw"),
        NodeKind::Router,
        params.ue_city,
        priv_ip(3),
    );

    // Radio link: latency from the RAT at a typical good channel; per-test
    // channel variation is applied by the measurement layer on throughput.
    let radio = LatencyModel::fixed(
        radio_latency_ms(params.rat, Cqi::new(11)),
        match params.rat {
            Rat::Lte => 9.0,
            Rat::Nr5g => 4.0,
        },
    )
    // Rare outage-scale stalls (HARQ storms, cell handovers): the source of
    // the small >150 ms tail even physical SIMs show (§5.1: ~3%).
    .with_spikes(0.03, 280.0);
    net.link_with(ue, ran, radio, vmno.access_loss);
    net.link_geo(ran, sgw, LinkClass::Metro);

    // --- the tunnel to the breakout site ----------------------------------
    let sgw_loc = params.ue_city.location();
    let pgw_loc = site.city.location();
    let tunnel_km = sgw_loc.distance_km(pgw_loc);
    let same_metro = tunnel_km < 150.0;
    let circuitousness = peering.get(params.v_mno, params.provider);

    // --- provider core: h private hops then the CG-NAT --------------------
    let core_hops = provider.sample_private_hops(rng);
    let mut prev = sgw;
    for hop in 0..core_hops {
        let node = net.add_node(
            &format!("{label}-{}-core{}", provider.name, hop),
            NodeKind::Router,
            site.city,
            priv_ip(10 + hop),
        );
        if hop == 0 {
            // The GTP tunnel itself: SGW to the first core router. One
            // virtual hop regardless of geographic length.
            let model = if same_metro {
                LatencyModel::from_geo(sgw_loc, pgw_loc, LinkClass::Metro)
            } else {
                LatencyModel::from_geo_with_circuitousness(
                    sgw_loc,
                    pgw_loc,
                    LinkClass::Tunnel,
                    circuitousness,
                )
            };
            net.link_with(prev, node, model, 0.0);
        } else {
            net.link_geo(prev, node, LinkClass::Metro);
        }
        prev = node;
    }

    // --- CG-NAT with a pooled public address -------------------------------
    let pool = site.pool;
    let slot = match provider.ip_assignment {
        // Per-b-MNO partitioning of the pool (OVH's behaviour, §4.3.2).
        IpAssignment::ByBmno => u64::from(params.b_mno.0) % pool,
        IpAssignment::Pooled => rng.gen_range(0..pool),
    };
    let public_ip = site
        .prefix
        .nth(1 + slot)
        .ok_or_else(|| AttachError::MalformedSitePool {
            provider: provider.name.clone(),
        })?;
    let cgnat = net.add_node(
        &format!("{label}-{}-cgnat", provider.name),
        NodeKind::CgNat,
        site.city,
        public_ip,
    );
    net.set_icmp_responds(cgnat, provider.cgnat_icmp_responds);
    net.link_geo(prev, cgnat, LinkClass::Metro);

    // Failover geography for the fault plane: if this gateway goes dark
    // mid-session, traffic detours via the provider's next-nearest breakout
    // site and pays the extra tunnel stretch instead of being dropped.
    // Single-site providers have nowhere to fail over to.
    let detour_km = provider
        .sites
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != site_idx)
        .map(|(_, alt)| pgw_loc.distance_km(alt.city.location()))
        .min_by(f64::total_cmp);
    if let Some(km) = detour_km {
        let detour_ms = roam_geo::fiber_delay_ms(km) * LinkClass::Tunnel.circuitousness()
            + LinkClass::Tunnel.processing_ms();
        net.set_failover(cgnat, SimTime::from_ms(detour_ms));
    }

    // --- control plane: the Create Session exchange ------------------------
    // The SGW offers its TEID and the PGW answers with its own plus the PDN
    // Address Allocation, i.e. `public_ip` above. Nothing reads the SGW's
    // TEID, but it is still drawn: every later draw on this stream depends
    // on its place.
    let _sgw_teid = rng.gen::<u32>();
    let teid = rng.gen::<u32>() | 1;

    let flow_stamp = roam_netsim::engine::flow_seed(
        net.master_seed(),
        &format!("flow/{label}/{}/{:?}", params.imsi, params.ue_city),
    );

    Ok(Attachment {
        ue,
        ran,
        sgw,
        cgnat,
        public_ip,
        arch: params.arch,
        provider: params.provider,
        breakout_city: site.city,
        tunnel_km,
        dns: params.dns,
        teid,
        v_mno: params.v_mno,
        b_mno: params.b_mno,
        rat: params.rat,
        private_hops: 2 + core_hops, // RAN + SGW + provider core
        flow_stamp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::{PgwProvider, PgwSelection, PgwSite};
    use rand::SeedableRng;
    use roam_cellular::{BandwidthPolicy, Mno, Plmn};
    use roam_geo::Country;
    use roam_netsim::registry::well_known;
    use roam_netsim::{Ipv4Net, TracerouteOpts};

    fn mnos() -> MnoDirectory {
        let mut dir = MnoDirectory::new();
        dir.add(Mno {
            name: "Jazz".into(),
            country: Country::PAK,
            plmn: Plmn::new(410, 1, 2),
            asn: well_known::PMCL,
            parent: None,
            native_policy: BandwidthPolicy::new(25.0, 10.0),
            roamer_policy: BandwidthPolicy::new(10.0, 5.0),
            youtube_cap_mbps: None,
            access_loss: 0.0,
        });
        dir.add(Mno {
            name: "Singtel".into(),
            country: Country::SGP,
            plmn: Plmn::new(525, 1, 2),
            asn: well_known::SINGTEL,
            parent: None,
            native_policy: BandwidthPolicy::new(100.0, 50.0),
            roamer_policy: BandwidthPolicy::new(12.0, 6.0),
            youtube_cap_mbps: Some(4.0),
            access_loss: 0.0,
        });
        dir
    }

    fn providers() -> ProviderDirectory {
        let mut dir = ProviderDirectory::new();
        dir.add(PgwProvider {
            name: "Singtel".into(),
            asn: well_known::SINGTEL,
            sites: vec![PgwSite::new(
                City::Singapore,
                Ipv4Net::parse("202.166.126.0/24").unwrap(),
                4,
            )],
            selection: PgwSelection::Fixed(0),
            ip_assignment: IpAssignment::Pooled,
            private_hops: (6, 6),
            cgnat_icmp_responds: true,
        });
        dir
    }

    fn params(session_id: u32) -> AttachParams {
        AttachParams {
            session_id,
            ue_city: City::Karachi,
            v_mno: MnoId(0),
            b_mno: MnoId(1),
            arch: RoamingArch::HomeRouted,
            provider: PgwProviderId(0),
            dns: DnsMode::OperatorResolver,
            rat: Rat::Lte,
            imsi: Imsi::new(roam_cellular::Plmn::new(525, 1, 2), 42),
        }
    }

    #[test]
    fn hr_attachment_builds_expected_chain() {
        let mut net = Network::new(1);
        let mut rng = SmallRng::seed_from_u64(2);
        let att = attach(
            &mut net,
            &providers(),
            &mnos(),
            &PeeringQuality::default(),
            &params(0),
            &mut rng,
        );
        assert_eq!(att.arch, RoamingArch::HomeRouted);
        assert_eq!(att.breakout_city, City::Singapore);
        assert!(
            att.tunnel_km > 4000.0,
            "Karachi→Singapore: {} km",
            att.tunnel_km
        );
        assert_eq!(att.private_hops, 8, "RAN + SGW + 6 Singtel core hops");
        // Public IP from the Singtel /24.
        assert!(Ipv4Net::parse("202.166.126.0/24")
            .unwrap()
            .contains(att.public_ip));
        assert!(att.teid != 0);
    }

    #[test]
    fn attach_draws_are_pinned() {
        // The TEID and breakout address of one fixed attach. `teid` names
        // and addresses the transit nodes the world builds behind the
        // CG-NAT, so both must stay put bit for bit.
        let mut net = Network::new(1);
        let mut rng = SmallRng::seed_from_u64(2);
        let att = attach(
            &mut net,
            &providers(),
            &mnos(),
            &PeeringQuality::default(),
            &params(0),
            &mut rng,
        );
        assert_eq!(att.teid, 2_797_275_945);
        assert_eq!(att.public_ip, Ipv4Addr::new(202, 166, 126, 4));
    }

    #[test]
    fn traceroute_from_ue_shows_private_then_public() {
        let mut net = Network::new(1);
        let mut rng = SmallRng::seed_from_u64(2);
        let att = attach(
            &mut net,
            &providers(),
            &mnos(),
            &PeeringQuality::default(),
            &params(0),
            &mut rng,
        );
        // Add a public destination behind the CG-NAT.
        let sp = net.add_node(
            "google-sg",
            NodeKind::SpEdge,
            City::Singapore,
            "142.250.4.100".parse().unwrap(),
        );
        net.link_geo(att.cgnat, sp, LinkClass::Peering);
        let tr = net.traceroute(att.ue, sp, TracerouteOpts::default());
        assert!(tr.reached);
        let demarcation = tr.first_public_hop().unwrap();
        assert_eq!(
            demarcation, att.private_hops as usize,
            "first public hop right after the private path"
        );
        assert_eq!(tr.hops[demarcation].ip, Some(att.public_ip));
        assert_eq!(net.egress_public_ip(att.ue, sp), Some(att.public_ip));
    }

    #[test]
    fn tunnel_latency_scales_with_peering_quality() {
        let run = |circ: f64| {
            let mut net = Network::new(1);
            let mut rng = SmallRng::seed_from_u64(2);
            let mut pq = PeeringQuality::default();
            pq.set(MnoId(0), PgwProviderId(0), circ);
            let att = attach(&mut net, &providers(), &mnos(), &pq, &params(0), &mut rng);
            let sp = net.add_node(
                "sp",
                NodeKind::SpEdge,
                City::Singapore,
                "142.250.4.100".parse().unwrap(),
            );
            net.link_geo(att.cgnat, sp, LinkClass::Peering);
            net.base_one_way_ms(att.ue, sp).unwrap()
        };
        let good = run(1.5);
        let bad = run(6.5);
        assert!(bad > good + 100.0, "good={good:.1} bad={bad:.1}");
    }

    #[test]
    fn sessions_use_disjoint_private_space() {
        let mut net = Network::new(1);
        let mut rng = SmallRng::seed_from_u64(2);
        let a = attach(
            &mut net,
            &providers(),
            &mnos(),
            &PeeringQuality::default(),
            &params(0),
            &mut rng,
        );
        let b = attach(
            &mut net,
            &providers(),
            &mnos(),
            &PeeringQuality::default(),
            &params(1),
            &mut rng,
        );
        assert_ne!(net.node(a.ue).ip, net.node(b.ue).ip);
        assert_ne!(net.node(a.sgw).ip, net.node(b.sgw).ip);
    }

    #[test]
    fn public_ips_come_from_a_small_pool() {
        let mut net = Network::new(1);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut ips = std::collections::HashSet::new();
        for s in 0..50 {
            let att = attach(
                &mut net,
                &providers(),
                &mnos(),
                &PeeringQuality::default(),
                &params(s),
                &mut rng,
            );
            ips.insert(att.public_ip);
        }
        assert!(ips.len() <= 6, "pooled PGW addresses: got {}", ips.len());
        assert!(ips.len() >= 2, "pool should rotate");
    }

    #[test]
    fn native_metro_breakout_has_short_tunnel() {
        // v-MNO == b-MNO in the same city: tunnel collapses to metro scale.
        let mut providers_dir = ProviderDirectory::new();
        providers_dir.add(PgwProvider {
            name: "Jazz".into(),
            asn: well_known::PMCL,
            sites: vec![PgwSite::new(
                City::Karachi,
                Ipv4Net::parse("119.160.96.0/24").unwrap(),
                6,
            )],
            selection: PgwSelection::Fixed(0),
            ip_assignment: IpAssignment::Pooled,
            private_hops: (2, 2),
            cgnat_icmp_responds: true,
        });
        let mut net = Network::new(1);
        let mut rng = SmallRng::seed_from_u64(2);
        let p = AttachParams {
            arch: RoamingArch::Native,
            v_mno: MnoId(0),
            b_mno: MnoId(0),
            ..params(0)
        };
        let att = attach(
            &mut net,
            &providers_dir,
            &mnos(),
            &PeeringQuality::default(),
            &p,
            &mut rng,
        );
        assert!(att.tunnel_km < 50.0);
        assert_eq!(
            att.private_hops, 4,
            "RAN + SGW + 2 core hops, the PAK SIM value"
        );
        let sp = net.add_node(
            "sp",
            NodeKind::SpEdge,
            City::Karachi,
            "142.250.9.9".parse().unwrap(),
        );
        net.link_geo(att.cgnat, sp, LinkClass::Peering);
        let rtt = net.rtt_ms(att.ue, sp).unwrap();
        assert!(rtt < 90.0, "native path must be fast, got {rtt:.1} ms");
    }
}
