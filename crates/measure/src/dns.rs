//! DNS resolution timing and resolver discovery (§5.1 "DNS Lookup Time").
//!
//! Behaviour by configuration, exactly as the paper reports it:
//!
//! * physical SIMs, native eSIMs and HR eSIMs resolve at **their operator's
//!   resolver** ("DNS resolution occurs locally within the b-MNO") over
//!   plain Do53 — MNO resolvers "mostly do not support DoH";
//! * IHBO eSIMs use **Google Public DNS** via anycast, which lands on a
//!   resolver near the *PGW* (74% same-country in the paper), and — because
//!   recent Android defaults it on and the authors "forgot" to disable it —
//!   pay the **DoH** TLS setup on top.
//!
//! Both entry points run one lookup core (pick the resolver, measure its
//! RTT, draw the lookup tail). [`resolve_checked`] also reports which
//! resolver answered, the observable the NextDNS trick uncovers;
//! [`resolve_timing`], the population-scale path, stops at the timing.

use crate::endpoint::Endpoint;
use crate::error::{MeasureError, MeasureStatus};
use crate::targets::ServiceTargets;
use rand::rngs::SmallRng;
use rand::Rng;
use roam_geo::City;
use roam_ipx::DnsMode;
use roam_netsim::{Network, NodeId};
use std::net::Ipv4Addr;

/// Outcome of one resolver lookup.
#[derive(Debug, Clone)]
pub struct DnsResult {
    /// Total lookup time, ms.
    pub lookup_ms: f64,
    /// Echo attempts the resolver RTT phase consumed.
    pub attempts: u32,
    /// The resolver that answered.
    pub resolver: NodeId,
    /// Resolver's (unicast) address — what the NextDNS trick uncovers.
    pub resolver_ip: Ipv4Addr,
    /// Resolver's city.
    pub resolver_city: City,
    /// Was DoH used?
    pub doh: bool,
    /// How the lookup ended (ok, or ok-via-failover).
    pub status: MeasureStatus,
}

/// The precomputed resolver selection for one endpoint: which resolver(s)
/// its queries can land on, with the anycast pair already ordered by
/// distance. Everything but the per-lookup anycast coin is a pure function
/// of the topology and the endpoint's DNS mode, so population-scale callers
/// build one plan per endpoint and skip the per-lookup clone-and-sort of
/// the whole Google site list.
#[derive(Debug, Clone, Copy)]
pub struct ResolverPlan {
    choice: ResolverChoice,
}

#[derive(Debug, Clone, Copy)]
enum ResolverChoice {
    /// No resolver registered for this mode — every lookup is `NoTarget`.
    Unreachable,
    /// A single resolver; no draw is consumed picking it.
    Fixed(NodeId),
    /// Nearest and second-nearest anycast sites; each lookup draws the
    /// instability coin.
    Anycast(NodeId, NodeId),
}

impl ResolverPlan {
    /// Resolve the endpoint's DNS mode against the registry once.
    #[must_use]
    pub fn new(net: &Network, endpoint: &Endpoint, targets: &ServiceTargets) -> Self {
        let choice = match endpoint.att.dns {
            DnsMode::OperatorResolver => match targets.operator_dns(endpoint.att.b_mno) {
                Some(n) => ResolverChoice::Fixed(n),
                None => ResolverChoice::Unreachable,
            },
            DnsMode::GooglePublic { .. } => {
                let ordered = targets.google_dns_by_distance(net, endpoint.att.breakout_city);
                match ordered.len() {
                    0 => ResolverChoice::Unreachable,
                    1 => ResolverChoice::Fixed(ordered[0]),
                    _ => ResolverChoice::Anycast(ordered[0], ordered[1]),
                }
            }
        };
        ResolverPlan { choice }
    }

    /// The resolver one lookup lands on, drawing the anycast coin from the
    /// flow's stream.
    ///
    /// Anycast instability: with probability ~0.25 the query lands on the
    /// *second*-nearest Google site instead of the nearest — reproducing
    /// the paper's Dallas-PGW eSIM flipping between Fort Worth (20 km) and
    /// Tulsa (380 km), and the overall "74% of queries in the same country
    /// as the PGW".
    #[must_use]
    pub fn pick(&self, rng: &mut SmallRng) -> Option<NodeId> {
        match self.choice {
            ResolverChoice::Unreachable => None,
            ResolverChoice::Fixed(n) => Some(n),
            ResolverChoice::Anycast(near, next) => {
                Some(if rng.gen_bool(0.25) { next } else { near })
            }
        }
    }
}

/// Resolve a name from the endpoint as the flow named by `label`,
/// returning timing and resolver identity.
///
/// # Errors
/// [`MeasureError::NoTarget`] when the scenario has no resolver for the
/// endpoint's DNS mode; otherwise a blackholed or unreachable resolver
/// surfaces the [`crate::endpoint::Probe::rtt_checked`] failure.
pub fn resolve_checked(
    net: &mut Network,
    endpoint: &Endpoint,
    targets: &ServiceTargets,
    label: &str,
) -> Result<DnsResult, MeasureError> {
    let plan = ResolverPlan::new(net, endpoint, targets);
    let l = lookup(net, endpoint, &plan, label)?;
    let node = net.node(l.resolver);
    Ok(DnsResult {
        lookup_ms: l.timing.lookup_ms,
        attempts: l.timing.attempts,
        resolver: l.resolver,
        resolver_ip: node.ip,
        resolver_city: node.city,
        doh: l.doh,
        status: l.timing.status,
    })
}

/// The population-scale resolve path: a precomputed [`ResolverPlan`] and
/// only the timing observables. It runs the same lookup as
/// [`resolve_checked`] with the same label — same flow, same draws, so the
/// same `lookup_ms` bit for bit — and skips the resolver-identity copy
/// nobody reads at this scale.
///
/// # Errors
/// Exactly [`resolve_checked`]'s.
pub fn resolve_timing(
    net: &mut Network,
    endpoint: &Endpoint,
    plan: &ResolverPlan,
    label: &str,
) -> Result<DnsTiming, MeasureError> {
    lookup(net, endpoint, plan, label).map(|l| l.timing)
}

/// What the lean resolve path reports: the timing observables and nothing
/// that needs a node lookup or an allocation.
#[derive(Debug, Clone, Copy)]
pub struct DnsTiming {
    /// Total lookup time, ms — identical to [`DnsResult::lookup_ms`].
    pub lookup_ms: f64,
    /// Echo attempts the resolver RTT phase consumed.
    pub attempts: u32,
    /// How the lookup ended (ok, or ok-via-failover).
    pub status: MeasureStatus,
}

/// One lookup's outcome before any presentation.
struct Lookup {
    resolver: NodeId,
    doh: bool,
    timing: DnsTiming,
}

/// The one lookup core every resolve runs: open the flow, pick the
/// resolver, measure its RTT, then draw the lookup tail.
fn lookup(
    net: &mut Network,
    endpoint: &Endpoint,
    plan: &ResolverPlan,
    label: &str,
) -> Result<Lookup, MeasureError> {
    let mut probe = endpoint.probe(net, label);
    let resolver = plan.pick(probe.rng()).ok_or(MeasureError::NoTarget)?;
    let sample = probe.rtt_checked(resolver)?;
    let doh = matches!(endpoint.att.dns, DnsMode::GooglePublic { doh: true });
    let rng = probe.rng();
    // Nothing reads the query id or the answer record's last two octets,
    // but they are still drawn: the lookup tail's draws depend on their
    // place in the stream.
    let _query_id: u16 = rng.gen();
    let _answer_octets: (u8, u8) = (rng.gen(), rng.gen());
    // Server-side resolution work (cache fill, upstream fetch) 2–9 ms.
    let server_ms = 2.0 + rng.gen::<f64>() * 7.0;
    // DoH: TCP + TLS1.3 handshake (2 RTTs) before the query can go out —
    // but Android keeps the DoH connection warm, so only a fraction of
    // lookups pay the full setup; warm queries pay record-layer overhead.
    let doh_ms = if doh {
        if rng.gen_bool(0.4) {
            2.0 * sample.rtt_ms + 4.0
        } else {
            4.0
        }
    } else {
        0.0
    };
    Ok(Lookup {
        resolver,
        doh,
        timing: DnsTiming {
            lookup_ms: sample.rtt_ms + server_ms + doh_ms,
            attempts: sample.attempts,
            status: sample.status(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use roam_cellular::{ChannelSampler, MnoId, Rat, SimType};
    use roam_geo::Country;
    use roam_ipx::{Attachment, PgwProviderId, RoamingArch};
    use roam_netsim::link::{LatencyModel, LinkClass};
    use roam_netsim::NodeKind;

    /// Build: ue —(20ms)— cgnat(AMS) —— resolvers in AMS + SGP.
    fn world(dns: DnsMode) -> (Network, Endpoint, ServiceTargets) {
        let mut net = Network::new(5);
        let ue = net.add_node(
            "ue",
            NodeKind::Host,
            City::Berlin,
            "10.0.0.2".parse().unwrap(),
        );
        let nat = net.add_node(
            "nat",
            NodeKind::CgNat,
            City::Amsterdam,
            "147.75.81.1".parse().unwrap(),
        );
        net.link_with(
            ue,
            nat,
            LinkClass::Tunnel,
            LatencyModel::fixed(20.0, 0.0),
            0.0,
        );
        let dns_ams = net.add_node(
            "gdns-ams",
            NodeKind::DnsResolver,
            City::Amsterdam,
            "8.8.8.10".parse().unwrap(),
        );
        let dns_sgp = net.add_node(
            "gdns-sgp",
            NodeKind::DnsResolver,
            City::Singapore,
            "8.8.8.20".parse().unwrap(),
        );
        let op_dns = net.add_node(
            "op-dns",
            NodeKind::DnsResolver,
            City::Amsterdam,
            "165.21.83.88".parse().unwrap(),
        );
        net.link_with(
            nat,
            dns_ams,
            LinkClass::Metro,
            LatencyModel::fixed(1.0, 0.0),
            0.0,
        );
        net.link_with(
            nat,
            dns_sgp,
            LinkClass::Backbone,
            LatencyModel::fixed(80.0, 0.0),
            0.0,
        );
        net.link_with(
            nat,
            op_dns,
            LinkClass::Metro,
            LatencyModel::fixed(1.0, 0.0),
            0.0,
        );
        let mut targets = ServiceTargets::new();
        targets.add_google_dns(dns_ams);
        targets.add_google_dns(dns_sgp);
        targets.set_operator_dns(MnoId(1), op_dns);
        let endpoint = Endpoint {
            att: Attachment {
                ue,
                ran: ue,
                sgw: ue,
                cgnat: nat,
                public_ip: "147.75.81.1".parse().unwrap(),
                arch: RoamingArch::IpxHubBreakout,
                provider: PgwProviderId(0),
                breakout_city: City::Amsterdam,
                tunnel_km: 600.0,
                dns,
                teid: 1,
                v_mno: MnoId(0),
                b_mno: MnoId(1),
                rat: Rat::Lte,
                private_hops: 3,
                flow_stamp: 0xD45,
            },
            sim_type: SimType::Esim,
            country: Country::DEU,
            label: "test".into(),
            policy_down_mbps: 10.0,
            policy_up_mbps: 5.0,
            youtube_cap_mbps: None,
            loss: 0.0,
            channel: ChannelSampler::default(),
        };
        (net, endpoint, targets)
    }

    #[test]
    fn ihbo_uses_google_resolver_near_pgw() {
        let (mut net, ep, targets) = world(DnsMode::GooglePublic { doh: false });
        let mut ams = 0;
        let mut sgp = 0;
        for i in 0..200 {
            let r = resolve_checked(&mut net, &ep, &targets, &format!("d/{i}")).unwrap();
            match r.resolver_city {
                City::Amsterdam => ams += 1,
                City::Singapore => sgp += 1,
                other => panic!("unexpected resolver in {other}"),
            }
        }
        // ~75% nearest, ~25% anycast flip.
        assert!(ams > 120 && sgp > 20, "ams={ams} sgp={sgp}");
    }

    #[test]
    fn operator_mode_uses_bmno_resolver() {
        let (mut net, ep, targets) = world(DnsMode::OperatorResolver);
        let r = resolve_checked(&mut net, &ep, &targets, "d/0").unwrap();
        assert_eq!(r.resolver_ip, "165.21.83.88".parse::<Ipv4Addr>().unwrap());
        assert!(!r.doh, "operator resolvers do not speak DoH");
        assert_eq!(r.attempts, 1, "lossless resolver path needs one echo");
    }

    #[test]
    fn doh_costs_extra_round_trips() {
        let (mut net, ep_doh, targets) = world(DnsMode::GooglePublic { doh: true });
        let mut doh_times = vec![];
        let mut plain_times = vec![];
        for i in 0..50 {
            let r = resolve_checked(&mut net, &ep_doh, &targets, &format!("doh/{i}")).unwrap();
            if r.resolver_city == City::Amsterdam {
                doh_times.push(r.lookup_ms);
            }
        }
        let (mut net2, ep_plain, targets2) = world(DnsMode::GooglePublic { doh: false });
        for i in 0..50 {
            let r = resolve_checked(&mut net2, &ep_plain, &targets2, &format!("p/{i}")).unwrap();
            if r.resolver_city == City::Amsterdam {
                plain_times.push(r.lookup_ms);
            }
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        // Cold DoH setups (≈40% of lookups) average out to a clear penalty
        // over a 20 ms resolver path.
        assert!(
            avg(&doh_times) > avg(&plain_times) + 12.0,
            "DoH {:.1} vs Do53 {:.1}",
            avg(&doh_times),
            avg(&plain_times)
        );
    }

    #[test]
    fn missing_resolver_is_no_target() {
        let (mut net, ep, _) = world(DnsMode::OperatorResolver);
        let empty = ServiceTargets::new();
        assert!(matches!(
            resolve_checked(&mut net, &ep, &empty, "d/0"),
            Err(MeasureError::NoTarget)
        ));
    }

    #[test]
    fn lean_path_matches_full_resolve_bit_for_bit() {
        for dns in [
            DnsMode::OperatorResolver,
            DnsMode::GooglePublic { doh: false },
            DnsMode::GooglePublic { doh: true },
        ] {
            let (mut net, ep, targets) = world(dns);
            let plan = ResolverPlan::new(&net, &ep, &targets);
            for i in 0..100 {
                let full = resolve_checked(&mut net, &ep, &targets, &format!("eq/{i}")).unwrap();
                let lean = resolve_timing(&mut net, &ep, &plan, &format!("eq/{i}")).unwrap();
                assert_eq!(
                    full.lookup_ms.to_bits(),
                    lean.lookup_ms.to_bits(),
                    "{dns:?} lookup {i} diverged: {} vs {}",
                    full.lookup_ms,
                    lean.lookup_ms
                );
                assert_eq!(full.attempts, lean.attempts);
                assert_eq!(full.status, lean.status);
            }
        }
    }

    #[test]
    fn lean_path_reports_missing_resolver_as_no_target() {
        let (mut net, ep, _) = world(DnsMode::OperatorResolver);
        let empty = ServiceTargets::new();
        let plan = ResolverPlan::new(&net, &ep, &empty);
        assert!(matches!(
            resolve_timing(&mut net, &ep, &plan, "d/0"),
            Err(MeasureError::NoTarget)
        ));
    }
}
