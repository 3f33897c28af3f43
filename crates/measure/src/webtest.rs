//! The web campaign's measurement: a DNS check plus a fast.com-style
//! speedtest (§3.1, Fig. 13 a).
//!
//! fast.com measures downlink against Netflix edge servers; like every
//! CDN-backed speedtest, server selection follows the client's public-IP
//! geolocation (the breakout site for roaming eSIMs). The web campaign ran
//! inside a browser, so the test includes TLS setup and has no uplink
//! phase; it also records the public IP the server saw — the input to the
//! tomography classification.

use crate::dns::resolve_checked;
use crate::endpoint::Endpoint;
use crate::targets::{Service, ServiceTargets};
use roam_geo::{City, Country};
use roam_netsim::throughput::TransferSpec;
use roam_netsim::Network;
use std::net::Ipv4Addr;

/// Bytes fetched by the browser-based test.
const TEST_BYTES: f64 = 25e6;

/// One completed web-campaign measurement: "the volunteer uploading their
/// current DNS configuration followed by the result of a fast.com speed
/// test" (§A.3).
#[derive(Debug, Clone, Copy)]
pub struct WebRecord {
    /// Country the volunteer measured from.
    pub country: Country,
    /// fast.com downlink, Mbps.
    pub down_mbps: f64,
    /// fast.com latency, ms.
    pub latency_ms: f64,
    /// Public IP the test saw (tomography input).
    pub public_ip: Ipv4Addr,
    /// Resolver the DNS check identified.
    pub resolver_city: City,
}

/// Run one web-campaign measurement on an (eSIM) endpoint as the flow
/// family named by `label`: the DNS check as `{label}/dns`, then the
/// browser speedtest as `label`. `None` when either finds no target or
/// its path is dead — the volunteer uploads nothing.
pub fn run_web_measurement(
    net: &mut Network,
    ep: &Endpoint,
    targets: &ServiceTargets,
    label: &str,
) -> Option<WebRecord> {
    let dns = resolve_checked(net, ep, targets, &format!("{label}/dns")).ok()?;
    let server = targets.nearest(net, Service::FastCom, ep.att.breakout_city)?;
    let mut probe = ep.probe(net, label);
    let latency = probe.rtt_checked(server).ok()?;
    let cqi = ep.channel.sample(probe.rng());
    let down = probe.goodput_mbps(&TransferSpec {
        bytes: TEST_BYTES,
        rtt_ms: latency.rtt_ms,
        policy_rate_mbps: ep.effective_down_mbps(cqi),
        loss: ep.loss,
        setup_rtts: 3.0, // TCP + TLS from a cold browser context
        parallel: 6,     // fast.com's parallel object fetches
    });
    Some(WebRecord {
        country: ep.country,
        down_mbps: down,
        latency_ms: latency.rtt_ms,
        public_ip: ep.att.public_ip,
        resolver_city: dns.resolver_city?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use roam_cellular::{ChannelSampler, MnoId, Rat, SimType};
    use roam_ipx::{Attachment, DnsMode, PgwProviderId, RoamingArch};
    use roam_netsim::link::LatencyModel;
    use roam_netsim::NodeKind;

    fn world() -> (Network, Endpoint, ServiceTargets) {
        let mut net = Network::new(11);
        let ue = net.add_node(
            "ue",
            NodeKind::Host,
            City::Paris,
            "10.0.0.2".parse().unwrap(),
        );
        let nat = net.add_node(
            "nat",
            NodeKind::CgNat,
            City::Ashburn,
            "147.28.128.9".parse().unwrap(),
        );
        net.link_with(ue, nat, LatencyModel::fixed(55.0, 1.0), 0.0);
        let nfx = net.add_node(
            "nflx-iad",
            NodeKind::SpEdge,
            City::Ashburn,
            "45.57.1.1".parse().unwrap(),
        );
        net.link_with(nat, nfx, LatencyModel::fixed(1.0, 0.2), 0.0);
        let gdns = net.add_node(
            "gdns-iad",
            NodeKind::DnsResolver,
            City::Ashburn,
            "8.8.8.30".parse().unwrap(),
        );
        net.link_with(nat, gdns, LatencyModel::fixed(0.8, 0.1), 0.0);
        let mut targets = ServiceTargets::new();
        targets.add(Service::FastCom, nfx);
        targets.add_google_dns(gdns);
        let ep = Endpoint {
            att: Attachment {
                ue,
                ran: ue,
                sgw: ue,
                cgnat: nat,
                public_ip: "147.28.128.9".parse().unwrap(),
                arch: RoamingArch::IpxHubBreakout,
                provider: PgwProviderId(0),
                breakout_city: City::Ashburn,
                tunnel_km: 6200.0,
                dns: DnsMode::GooglePublic { doh: true },
                teid: 3,
                v_mno: MnoId(0),
                b_mno: MnoId(1),
                rat: Rat::Lte,
                private_hops: 8,
                flow_stamp: 0xFA57,
            },
            sim_type: SimType::Esim,
            country: Country::FRA,
            label: "FRA eSIM".into(),
            policy_down_mbps: 30.0,
            policy_up_mbps: 10.0,
            youtube_cap_mbps: None,
            loss: 0.0005,
            channel: ChannelSampler {
                mode_cqi: 12,
                weak_tail: 0.0,
            },
        };
        (net, ep, targets)
    }

    #[test]
    fn records_public_ip_and_tunnel_latency() {
        let (mut net, ep, targets) = world();
        let r = run_web_measurement(&mut net, &ep, &targets, "web/0").unwrap();
        assert_eq!(r.country, Country::FRA);
        assert_eq!(r.public_ip, Ipv4Addr::new(147, 28, 128, 9));
        assert_eq!(r.resolver_city, City::Ashburn);
        assert!(
            r.latency_ms > 100.0,
            "transatlantic tunnel RTT: {}",
            r.latency_ms
        );
        assert!(
            r.down_mbps > 1.0 && r.down_mbps < 30.0,
            "goodput {}",
            r.down_mbps
        );
    }

    #[test]
    fn no_server_gives_none() {
        let (mut net, ep, targets) = world();
        let mut dns_only = ServiceTargets::new();
        dns_only.add_google_dns(targets.google_dns_by_distance(&net, City::Ashburn)[0]);
        assert!(run_web_measurement(&mut net, &ep, &dns_only, "web/0").is_none());
        assert!(run_web_measurement(&mut net, &ep, &ServiceTargets::new(), "web/0").is_none());
    }
}
