//! The web campaign's fast.com-style speedtest (§3.1, Fig. 13 a).
//!
//! fast.com measures downlink against Netflix edge servers; like every
//! CDN-backed speedtest, server selection follows the client's public-IP
//! geolocation (the breakout site for roaming eSIMs). The web campaign ran
//! inside a browser, so the test includes TLS setup and has no uplink
//! phase; it also records the public IP the server saw — the input to the
//! tomography classification.

use crate::endpoint::Endpoint;
use crate::error::MeasureError;
use crate::targets::{Service, ServiceTargets};
use roam_netsim::throughput::TransferSpec;
use roam_netsim::Network;
use std::net::Ipv4Addr;

/// Bytes fetched by the browser-based test.
const TEST_BYTES: f64 = 25e6;

/// One fast.com-style measurement.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WebTestResult {
    /// Downlink goodput, Mbps.
    pub down_mbps: f64,
    /// Latency shown by the widget, ms.
    pub latency_ms: f64,
    /// Public IP the server observed (classification input).
    pub public_ip: Ipv4Addr,
}

/// Run the browser speedtest as the flow named by `label`. `None` when no
/// server is reachable.
pub(crate) fn fastcom_test(
    net: &mut Network,
    endpoint: &Endpoint,
    targets: &ServiceTargets,
    label: &str,
) -> Option<WebTestResult> {
    fastcom_test_checked(net, endpoint, targets, label).ok()
}

/// [`fastcom_test`] with typed failure semantics: a missing Netflix edge
/// is [`MeasureError::NoTarget`]; a dead path surfaces the probe's error.
///
/// # Errors
/// Propagates [`crate::endpoint::Probe::rtt_checked`] failures.
pub(crate) fn fastcom_test_checked(
    net: &mut Network,
    endpoint: &Endpoint,
    targets: &ServiceTargets,
    label: &str,
) -> Result<WebTestResult, MeasureError> {
    let server = targets
        .nearest(net, Service::FastCom, endpoint.att.breakout_city)
        .ok_or(MeasureError::NoTarget)?;
    let mut probe = endpoint.probe(net, label);
    let latency = probe.rtt_checked(server)?;
    let cqi = endpoint.channel.sample(probe.rng());
    let down = probe.goodput_mbps(&TransferSpec {
        bytes: TEST_BYTES,
        rtt_ms: latency.rtt_ms,
        policy_rate_mbps: endpoint.effective_down_mbps(cqi),
        loss: endpoint.loss,
        setup_rtts: 3.0, // TCP + TLS from a cold browser context
        parallel: 6,     // fast.com's parallel object fetches
    });
    Ok(WebTestResult {
        down_mbps: down,
        latency_ms: latency.rtt_ms,
        public_ip: endpoint.att.public_ip,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use roam_cellular::{ChannelSampler, MnoId, Rat, SimType};
    use roam_geo::{City, Country};
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
        let mut targets = ServiceTargets::new();
        targets.add(Service::FastCom, nfx);
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
        let r = fastcom_test(&mut net, &ep, &targets, "web/0").unwrap();
        assert_eq!(r.public_ip, "147.28.128.9".parse::<Ipv4Addr>().unwrap());
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
        let (mut net, ep, _) = world();
        assert!(fastcom_test(&mut net, &ep, &ServiceTargets::new(), "web/0").is_none());
    }
}
