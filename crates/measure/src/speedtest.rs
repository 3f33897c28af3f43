//! Ookla-style speedtest (§5.1 "Download and Upload Speeds", Fig. 13 b–c).
//!
//! The client picks the server nearest the device's **public-IP
//! geolocation** — for roaming eSIMs that is the breakout site, which is why
//! Fig. 11(c) is titled "latency to the nearest Ookla Speedtest server from
//! the PGW". Throughput is the policy/PHY-capped TCP transfer of
//! [`roam_netsim::throughput::transfer_time_ms`]; latency is a real ping
//! on the measurement's own flow.

use crate::endpoint::Endpoint;
use crate::error::{MeasureError, MeasureStatus};
use crate::targets::{Service, ServiceTargets};
use roam_cellular::{Cqi, Rat};
use roam_geo::City;
use roam_netsim::throughput::TransferSpec;
use roam_netsim::Network;

/// Bytes moved by the downlink phase (Ookla-scale bulk transfer).
const DOWN_BYTES: f64 = 50e6;
/// Bytes moved by the uplink phase.
const UP_BYTES: f64 = 20e6;

/// One speedtest outcome.
#[derive(Debug, Clone, Copy)]
pub struct SpeedtestResult {
    /// Downlink goodput, Mbps.
    pub down_mbps: f64,
    /// Uplink goodput, Mbps.
    pub up_mbps: f64,
    /// Latency to the selected server, ms.
    pub latency_ms: f64,
    /// Echo attempts the latency phase consumed (probe loss shows up here).
    pub attempts: u32,
    /// Where the selected server sits.
    pub server_city: City,
    /// Channel quality during the test (the CQI the paper filters on).
    pub cqi: Cqi,
    /// RAT of the attachment.
    pub rat: Rat,
    /// How the measurement ended (ok, or ok-via-failover).
    pub status: MeasureStatus,
}

/// Run a speedtest as the flow named by `label`. `None` when no server is
/// reachable.
pub fn ookla_speedtest(
    net: &mut Network,
    endpoint: &Endpoint,
    targets: &ServiceTargets,
    label: &str,
) -> Option<SpeedtestResult> {
    ookla_speedtest_checked(net, endpoint, targets, label).ok()
}

/// [`ookla_speedtest`] with typed failure semantics: a missing server is
/// [`MeasureError::NoTarget`], a dead or fully-lossy path surfaces the
/// probe's error instead of a silent `None`.
///
/// # Errors
/// Propagates [`crate::endpoint::Probe::rtt_checked`] failures.
pub fn ookla_speedtest_checked(
    net: &mut Network,
    endpoint: &Endpoint,
    targets: &ServiceTargets,
    label: &str,
) -> Result<SpeedtestResult, MeasureError> {
    // Server selection by public-IP geolocation = breakout city.
    let server = targets
        .nearest(net, Service::Ookla, endpoint.att.breakout_city)
        .ok_or(MeasureError::NoTarget)?;
    let mut probe = endpoint.probe(net, label);
    let latency = probe.rtt_checked(server)?;
    let cqi = endpoint.channel.sample(probe.rng());

    let down = probe.goodput_mbps(&TransferSpec {
        bytes: DOWN_BYTES,
        rtt_ms: latency.rtt_ms,
        policy_rate_mbps: endpoint.effective_down_mbps(cqi),
        loss: endpoint.loss,
        setup_rtts: 1.0, // one TCP handshake; the tool reuses it for the test
        parallel: 8,     // Ookla's multi-connection measurement
    });
    let up = probe.goodput_mbps(&TransferSpec {
        bytes: UP_BYTES,
        rtt_ms: latency.rtt_ms,
        policy_rate_mbps: endpoint.effective_up_mbps(cqi),
        loss: endpoint.loss,
        setup_rtts: 1.0,
        parallel: 8,
    });

    Ok(SpeedtestResult {
        down_mbps: down,
        up_mbps: up,
        latency_ms: latency.rtt_ms,
        attempts: latency.attempts,
        server_city: net.node(server).city,
        cqi,
        rat: endpoint.rat(),
        status: latency.status(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use roam_cellular::{ChannelSampler, MnoId, SimType};
    use roam_geo::Country;
    use roam_ipx::{Attachment, DnsMode, PgwProviderId, RoamingArch};
    use roam_netsim::link::{LatencyModel, LinkClass};
    use roam_netsim::{NodeId, NodeKind};

    fn world(tunnel_ms: f64, down: f64) -> (Network, Endpoint, ServiceTargets) {
        let mut net = Network::new(9);
        let ue = net.add_node(
            "ue",
            NodeKind::Host,
            City::Karachi,
            "10.0.0.2".parse().unwrap(),
        );
        let nat = net.add_node(
            "nat",
            NodeKind::CgNat,
            City::Singapore,
            "202.166.126.5".parse().unwrap(),
        );
        net.link_with(
            ue,
            nat,
            LinkClass::Tunnel,
            LatencyModel::fixed(tunnel_ms, 0.5),
            0.0,
        );
        let ookla_sgp = net.add_node(
            "ookla-sgp",
            NodeKind::SpEdge,
            City::Singapore,
            "202.150.1.1".parse().unwrap(),
        );
        let ookla_khi = net.add_node(
            "ookla-khi",
            NodeKind::SpEdge,
            City::Karachi,
            "119.160.1.1".parse().unwrap(),
        );
        net.link_with(
            nat,
            ookla_sgp,
            LinkClass::Peering,
            LatencyModel::fixed(1.0, 0.2),
            0.0,
        );
        net.link_with(
            nat,
            ookla_khi,
            LinkClass::Backbone,
            LatencyModel::fixed(40.0, 1.0),
            0.0,
        );
        let mut targets = ServiceTargets::new();
        targets.add(Service::Ookla, ookla_sgp);
        targets.add(Service::Ookla, ookla_khi);
        let endpoint = Endpoint {
            att: Attachment {
                ue,
                ran: ue,
                sgw: ue,
                cgnat: nat,
                public_ip: "202.166.126.5".parse().unwrap(),
                arch: RoamingArch::HomeRouted,
                provider: PgwProviderId(0),
                breakout_city: City::Singapore,
                tunnel_km: 4700.0,
                dns: DnsMode::OperatorResolver,
                teid: 2,
                v_mno: MnoId(0),
                b_mno: MnoId(1),
                rat: Rat::Lte,
                private_hops: 8,
                flow_stamp: 0x5EED,
            },
            sim_type: SimType::Esim,
            country: Country::PAK,
            label: "PAK eSIM".into(),
            policy_down_mbps: down,
            policy_up_mbps: down / 2.0,
            youtube_cap_mbps: None,
            loss: 0.0,
            channel: ChannelSampler {
                mode_cqi: 12,
                weak_tail: 0.0,
            },
        };
        (net, endpoint, targets)
    }

    #[test]
    fn server_selected_near_breakout_not_user() {
        let (mut net, ep, targets) = world(150.0, 10.0);
        let r = ookla_speedtest(&mut net, &ep, &targets, "t/0").unwrap();
        assert_eq!(
            r.server_city,
            City::Singapore,
            "HR eSIM must test against a server near the PGW"
        );
        assert!(r.latency_ms > 290.0, "tunnel dominates: {}", r.latency_ms);
        assert_eq!(r.attempts, 1, "lossless path needs one echo");
    }

    #[test]
    fn long_tunnel_degrades_goodput_at_same_policy() {
        let (mut short_net, short_ep, t1) = world(10.0, 20.0);
        let (mut long_net, long_ep, t2) = world(200.0, 20.0);
        let fast = ookla_speedtest(&mut short_net, &short_ep, &t1, "t/0").unwrap();
        let slow = ookla_speedtest(&mut long_net, &long_ep, &t2, "t/0").unwrap();
        assert!(
            slow.down_mbps < fast.down_mbps,
            "long RTT must cost goodput: {} vs {}",
            slow.down_mbps,
            fast.down_mbps
        );
    }

    #[test]
    fn policy_rate_is_approached_on_short_paths() {
        let (mut net, ep, targets) = world(5.0, 15.0);
        let r = ookla_speedtest(&mut net, &ep, &targets, "t/0").unwrap();
        assert!(
            (10.0..15.2).contains(&r.down_mbps),
            "goodput {}",
            r.down_mbps
        );
        assert!(r.up_mbps < r.down_mbps);
    }

    #[test]
    fn no_server_no_result() {
        let (mut net, ep, _) = world(5.0, 15.0);
        assert!(ookla_speedtest(&mut net, &ep, &ServiceTargets::new(), "t/0").is_none());
    }

    #[test]
    fn cqi_is_recorded_for_filtering() {
        let (mut net, mut ep, targets) = world(5.0, 15.0);
        ep.channel = ChannelSampler {
            mode_cqi: 8,
            weak_tail: 0.5,
        };
        let mut weak = 0;
        for i in 0..100 {
            let r = ookla_speedtest(&mut net, &ep, &targets, &format!("t/{i}")).unwrap();
            if !r.cqi.passes_quality_filter() {
                weak += 1;
            }
        }
        assert!(
            weak > 20,
            "weak-channel tests must appear for the filter to matter"
        );
    }

    #[test]
    fn same_label_same_result_regardless_of_history() {
        let (mut net, ep, targets) = world(5.0, 15.0);
        let a = ookla_speedtest(&mut net, &ep, &targets, "t/7").unwrap();
        // Interleave other flows; the repeat must be bit-identical.
        let _ = ookla_speedtest(&mut net, &ep, &targets, "t/8");
        let b = ookla_speedtest(&mut net, &ep, &targets, "t/7").unwrap();
        assert_eq!(a.latency_ms.to_bits(), b.latency_ms.to_bits());
        assert_eq!(a.down_mbps.to_bits(), b.down_mbps.to_bits());
        assert_eq!(a.cqi, b.cqi);
    }

    #[test]
    fn resolved_node_matches_netsim_equivalent_ids() {
        // Guard against NodeId confusion between crates.
        let (net, _, targets) = world(5.0, 15.0);
        let n = targets
            .nearest(&net, Service::Ookla, City::Singapore)
            .unwrap();
        assert_eq!(n, NodeId(2));
    }
}
