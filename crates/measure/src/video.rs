//! YouTube streaming via "stats-for-nerds" (§5.2, Fig. 15).
//!
//! The campaign plays a 4K-capable video through a browser extension and
//! records the resolution the ABR controller settles on. The model: the
//! controller probes the available bandwidth (policy ∧ PHY ∧ any
//! service-specific cap, discounted by a utilisation factor) and picks the
//! highest rung whose bitrate fits with headroom. Observed resolutions in
//! the paper top out at 1440p, with 720p the global mode and the HR
//! b-MNO's YouTube throttle pinning PAK/ARE at 720p despite sufficient
//! measured bandwidth — that cap is [`crate::endpoint::Endpoint::youtube_cap_mbps`].

use crate::endpoint::Endpoint;
use crate::error::{MeasureError, MeasureStatus};
use crate::targets::{Service, ServiceTargets};
use rand::Rng;
use roam_netsim::Network;

/// Playback resolutions with their ladder bitrates (Mbps, H.264-ish).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Resolution {
    /// 480p — the worst the paper observed (2.2% of Thai eSIM playbacks).
    P480,
    /// 720p — the global mode.
    P720,
    /// 1080p.
    P1080,
    /// 1440p — the best observed.
    P1440,
    /// 2160p (4K) — offered by the test video, never reached in the paper.
    P2160,
}

impl Resolution {
    /// Ladder in ascending order.
    pub const LADDER: [Resolution; 5] = [
        Resolution::P480,
        Resolution::P720,
        Resolution::P1080,
        Resolution::P1440,
        Resolution::P2160,
    ];

    /// Nominal bitrate of the rung, Mbps.
    #[must_use]
    pub(crate) fn bitrate_mbps(&self) -> f64 {
        match self {
            Resolution::P480 => 1.2,
            Resolution::P720 => 2.8,
            Resolution::P1080 => 5.5,
            Resolution::P1440 => 9.5,
            Resolution::P2160 => 17.0,
        }
    }

    /// Display label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Resolution::P480 => "480p",
            Resolution::P720 => "720p",
            Resolution::P1080 => "1080p",
            Resolution::P1440 => "1440p",
            Resolution::P2160 => "2160p",
        }
    }
}

impl std::fmt::Display for Resolution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One playback session's stats-for-nerds summary.
#[derive(Debug, Clone, Copy)]
pub struct VideoResult {
    /// Resolution the ABR settled on.
    pub resolution: Resolution,
    /// Bandwidth the controller estimated, Mbps.
    pub estimated_bw_mbps: f64,
    /// Whether the buffer ran dry during the session.
    pub rebuffered: bool,
    /// How the session ended (ok, or ok-via-failover).
    pub status: MeasureStatus,
}

/// ABR headroom: a rung is selected only if its bitrate fits under
/// `bandwidth / HEADROOM`.
const HEADROOM: f64 = 1.25;

/// Play the 4K test video from the endpoint as the flow named by `label`.
/// A missing YouTube edge is [`MeasureError::NoTarget`]; a dead path
/// surfaces the probe's error.
///
/// # Errors
/// Propagates [`crate::endpoint::Probe::rtt_checked`] failures.
pub fn play_youtube_checked(
    net: &mut Network,
    endpoint: &Endpoint,
    targets: &ServiceTargets,
    label: &str,
) -> Result<VideoResult, MeasureError> {
    let edge = targets
        .nearest(net, Service::YouTube, endpoint.att.breakout_city)
        .ok_or(MeasureError::NoTarget)?;
    let mut probe = endpoint.probe(net, label);
    let sample = probe.rtt_checked(edge)?;
    let rtt = sample.rtt_ms;
    let cqi = endpoint.channel.sample(probe.rng());

    // Long RTT also hurts the ABR's achievable throughput (chunk fetches
    // are request/response bound): apply a mild RTT discount.
    let rtt_factor = (1.0 - (rtt / 2000.0)).clamp(0.4, 1.0);
    let mut bw = endpoint.effective_down_mbps(cqi) * rtt_factor;
    if let Some(cap) = endpoint.youtube_cap_mbps {
        bw = bw.min(cap);
    }
    // Per-session utilisation wobble (cross traffic, pacing).
    let bw = bw * probe.rng().gen_range(0.7..0.98);

    let resolution = Resolution::LADDER
        .iter()
        .rev()
        .copied()
        .find(|r| r.bitrate_mbps() * HEADROOM <= bw)
        .unwrap_or(Resolution::P480);
    // Rebuffering when even the chosen rung has <5% headroom.
    let rebuffered = bw < resolution.bitrate_mbps() * 1.05;

    Ok(VideoResult {
        resolution,
        estimated_bw_mbps: bw,
        rebuffered,
        status: sample.status(),
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

    fn world(down: f64, cap: Option<f64>) -> (Network, Endpoint, ServiceTargets) {
        let mut net = Network::new(31);
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
            "147.75.81.2".parse().unwrap(),
        );
        net.link_with(ue, nat, LatencyModel::fixed(25.0, 1.0), 0.0);
        let yt = net.add_node(
            "yt-ams",
            NodeKind::SpEdge,
            City::Amsterdam,
            "142.250.9.1".parse().unwrap(),
        );
        net.link_with(nat, yt, LatencyModel::fixed(1.0, 0.2), 0.0);
        let mut targets = ServiceTargets::new();
        targets.add(Service::YouTube, yt);
        let ep = Endpoint {
            att: Attachment {
                ue,
                ran: ue,
                sgw: ue,
                cgnat: nat,
                public_ip: "147.75.81.2".parse().unwrap(),
                arch: RoamingArch::IpxHubBreakout,
                provider: PgwProviderId(0),
                breakout_city: City::Amsterdam,
                tunnel_km: 600.0,
                dns: DnsMode::GooglePublic { doh: true },
                teid: 5,
                v_mno: MnoId(0),
                b_mno: MnoId(1),
                rat: Rat::Nr5g,
                private_hops: 8,
                flow_stamp: 0x0007_1DE0,
            },
            sim_type: SimType::Esim,
            country: Country::DEU,
            label: "DEU eSIM".into(),
            policy_down_mbps: down,
            policy_up_mbps: 10.0,
            youtube_cap_mbps: cap,
            loss: 0.0,
            channel: ChannelSampler {
                mode_cqi: 13,
                weak_tail: 0.0,
            },
        };
        (net, ep, targets)
    }

    fn mode_resolution(down: f64, cap: Option<f64>, seed: u64) -> Resolution {
        let (mut net, ep, targets) = world(down, cap);
        let mut counts = std::collections::HashMap::new();
        for i in 0..60 {
            let r =
                play_youtube_checked(&mut net, &ep, &targets, &format!("v/{seed}/{i}")).unwrap();
            *counts.entry(r.resolution).or_insert(0) += 1;
        }
        counts.into_iter().max_by_key(|(_, c)| *c).unwrap().0
    }

    #[test]
    fn ample_bandwidth_reaches_high_rungs() {
        let m = mode_resolution(80.0, None, 1);
        assert!(
            m >= Resolution::P1440,
            "80 Mbps should stream ≥1440p, got {m}"
        );
    }

    #[test]
    fn throttled_policy_pins_720p() {
        let m = mode_resolution(5.0, None, 2);
        assert_eq!(m, Resolution::P720, "5 Mbps policy → 720p mode");
    }

    #[test]
    fn youtube_cap_overrides_fast_policy() {
        // The §5.2 surprise: plenty of bandwidth, but the b-MNO throttles
        // YouTube specifically → constant 720p.
        let m = mode_resolution(50.0, Some(5.0), 3);
        assert_eq!(m, Resolution::P720);
    }

    #[test]
    fn starved_session_rebuffers_at_bottom_rung() {
        let (mut net, mut ep, targets) = world(1.0, None);
        ep.policy_down_mbps = 1.0;
        let r = play_youtube_checked(&mut net, &ep, &targets, "v/starved").unwrap();
        assert_eq!(r.resolution, Resolution::P480);
        assert!(r.rebuffered, "1 Mbps cannot sustain 480p at 1.2 Mbps");
    }

    #[test]
    fn ladder_is_monotone_in_bitrate() {
        let mut last = 0.0;
        for r in Resolution::LADDER {
            assert!(r.bitrate_mbps() > last);
            last = r.bitrate_mbps();
        }
    }

    #[test]
    fn no_edge_returns_none() {
        let (mut net, ep, _) = world(10.0, None);
        assert!(play_youtube_checked(&mut net, &ep, &ServiceTargets::new(), "v/0").is_err());
    }
}
