//! `mtr`-style traceroute to a service provider (§4.3, Figs. 6–10, 12).

use crate::endpoint::Endpoint;
use crate::error::MeasureError;
use crate::targets::{Service, ServiceTargets};
use roam_core::{analyze_traceroute, PathAnalysis};
use roam_netsim::{Network, Traceroute, TracerouteOpts};

/// A traceroute plus its decomposition.
#[derive(Debug, Clone)]
pub struct TraceOutcome {
    /// The service that was traced.
    pub service: Service,
    /// Raw hop data.
    pub traceroute: Traceroute,
    /// The paper's private/public decomposition.
    pub analysis: PathAnalysis,
}

/// Run `mtr` from the endpoint to the nearest edge of `service` (edge
/// selection is anycast-like: nearest to the breakout, where the client's
/// DNS resolves it). `None` when no edge is registered.
///
/// Convenience wrapper for a single run; campaigns that repeat the trace
/// use `mtr_run_checked` so each repetition gets its own flow.
pub fn mtr(
    net: &mut Network,
    endpoint: &Endpoint,
    targets: &ServiceTargets,
    service: Service,
) -> Option<TraceOutcome> {
    mtr_run_checked(net, endpoint, targets, service, 0).ok()
}

/// Run the `run`-th `mtr` repetition toward `service` on its own flow
/// (`"mtr/{service}/{run}"`). A service with no registered edge is
/// [`MeasureError::NoTarget`]. A traceroute that does not reach its
/// target is still a valid outcome (the paper's unreached traces are
/// data, not errors) — `analysis.reached` carries that distinction.
///
/// # Errors
/// [`MeasureError::NoTarget`] when no edge is registered for `service`.
pub(crate) fn mtr_run_checked(
    net: &mut Network,
    endpoint: &Endpoint,
    targets: &ServiceTargets,
    service: Service,
    run: u32,
) -> Result<TraceOutcome, MeasureError> {
    let dst = targets
        .nearest(net, service, endpoint.att.breakout_city)
        .ok_or(MeasureError::NoTarget)?;
    let label = format!("mtr/{service:?}/{run}");
    let mut probe = endpoint.probe(net, &label);
    let traceroute = probe.traceroute(dst, TracerouteOpts::default());
    let analysis = analyze_traceroute(&traceroute, net.registry());
    Ok(TraceOutcome {
        service,
        traceroute,
        analysis,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use roam_cellular::{ChannelSampler, MnoId, Rat, SimType};
    use roam_geo::{City, Country};
    use roam_ipx::{Attachment, DnsMode, PgwProviderId, RoamingArch};
    use roam_netsim::link::{LatencyModel, LinkClass};
    use roam_netsim::registry::well_known;
    use roam_netsim::{Ipv4Net, NodeKind};

    #[test]
    fn mtr_produces_consistent_analysis() {
        let mut net = Network::new(41);
        let ue = net.add_node(
            "ue",
            NodeKind::Host,
            City::Doha,
            "10.0.0.2".parse().unwrap(),
        );
        let core = net.add_node(
            "core",
            NodeKind::Router,
            City::Lille,
            "10.0.0.9".parse().unwrap(),
        );
        let nat = net.add_node(
            "nat",
            NodeKind::CgNat,
            City::Lille,
            "141.95.2.2".parse().unwrap(),
        );
        let g = net.add_node(
            "g-par",
            NodeKind::SpEdge,
            City::Paris,
            "142.250.3.3".parse().unwrap(),
        );
        net.link_with(ue, core, LatencyModel::fixed(45.0, 2.0), 0.0);
        net.link_with(core, nat, LatencyModel::fixed(0.4, 0.1), 0.0);
        net.link_geo(nat, g, LinkClass::Peering);
        net.registry_mut().register(
            Ipv4Net::parse("141.95.0.0/16").unwrap(),
            well_known::OVH,
            "OVH SAS",
            City::Lille,
        );
        net.registry_mut().register(
            Ipv4Net::parse("142.250.0.0/16").unwrap(),
            well_known::GOOGLE,
            "Google",
            City::Paris,
        );
        let mut targets = ServiceTargets::new();
        targets.add(Service::Google, g);
        let ep = Endpoint {
            att: Attachment {
                ue,
                ran: ue,
                sgw: ue,
                cgnat: nat,
                public_ip: "141.95.2.2".parse().unwrap(),
                arch: RoamingArch::IpxHubBreakout,
                provider: PgwProviderId(0),
                breakout_city: City::Lille,
                tunnel_km: 4800.0,
                dns: DnsMode::GooglePublic { doh: true },
                teid: 6,
                v_mno: MnoId(0),
                b_mno: MnoId(1),
                rat: Rat::Lte,
                private_hops: 2,
                flow_stamp: 0x0071_24CE,
            },
            sim_type: SimType::Esim,
            country: Country::QAT,
            label: "QAT eSIM".into(),
            policy_down_mbps: 10.0,
            policy_up_mbps: 5.0,
            youtube_cap_mbps: None,
            loss: 0.0,
            channel: ChannelSampler::default(),
        };
        let out = mtr(&mut net, &ep, &targets, Service::Google).unwrap();
        assert!(out.analysis.reached);
        assert_eq!(out.analysis.pgw_asn, Some(well_known::OVH));
        assert_eq!(out.analysis.pgw_city, Some(City::Lille));
        assert_eq!(out.analysis.unique_public_asns, 2);
        // PGW RTT dominated by the 45 ms tunnel: share near 1.
        assert!(out.analysis.private_share.unwrap() > 0.85);
        // Missing service yields None.
        assert!(mtr(&mut net, &ep, &targets, Service::Facebook).is_none());
    }
}
