//! VoIP quality probing — the paper's stated future work.
//!
//! §7: "future measurement campaigns could incorporate a broader suite of
//! network performance metrics, specifically including jitter and packet
//! loss, which are crucial for evaluating real-time services like Voice
//! over IP (VoIP)". This module does exactly that: a burst of probes
//! yields RTT, inter-probe jitter and loss, folded into a Mean Opinion
//! Score with the ITU-T G.107 E-model (the standard way to turn transport
//! metrics into call quality).

use crate::endpoint::Endpoint;
use crate::targets::{Service, ServiceTargets};
use roam_netsim::Network;

/// Result of a VoIP probe burst.
#[derive(Debug, Clone, Copy)]
pub struct VoipResult {
    /// Mean round-trip time, ms.
    pub rtt_ms: f64,
    /// Mean absolute inter-probe RTT difference (RFC 3550-style jitter), ms.
    pub jitter_ms: f64,
    /// Probe loss fraction (0..1).
    pub loss: f64,
    /// E-model R-factor (0–93.2 for G.711 without advantage factor).
    pub r_factor: f64,
    /// Mean Opinion Score (1.0–4.5).
    pub mos: f64,
}

impl VoipResult {
    /// ITU-T guidance buckets: ≥ 4.0 good, ≥ 3.6 fair ("users satisfied"),
    /// ≥ 3.1 "some users dissatisfied", below that poor.
    #[must_use]
    pub fn verdict(&self) -> &'static str {
        match self.mos {
            m if m >= 4.0 => "good",
            m if m >= 3.6 => "fair",
            m if m >= 3.1 => "degraded",
            _ => "poor",
        }
    }
}

/// Compute the E-model R-factor and MOS from transport metrics.
///
/// G.107-style: `R = 93.2 − Id − Ie_eff`. The delay impairment combines
/// the linear echo-free term `0.024·d` with the interactivity impairment
/// `Idd` (the G.107 sixth-root form, zero below 100 ms one-way and
/// increasingly steep beyond). Loss uses the G.711+PLC effective equipment
/// impairment `Ie_eff = 95·p/(p + Bpl)` with `Bpl = 25` (random loss,
/// concealment on). Jitter consumed by the de-jitter buffer is charged as
/// extra delay (buffer ≈ 2× jitter).
#[must_use]
pub(crate) fn e_model(rtt_ms: f64, jitter_ms: f64, loss: f64) -> (f64, f64) {
    let one_way = rtt_ms / 2.0 + 2.0 * jitter_ms + 25.0; // + codec/packetisation
    let idd = if one_way <= 100.0 {
        0.0
    } else {
        let x = (one_way / 100.0).ln() / std::f64::consts::LN_2;
        let p6 = |v: f64| (1.0 + v.powi(6)).powf(1.0 / 6.0);
        25.0 * (p6(x) - 3.0 * p6(x / 3.0) + 2.0)
    };
    let id = 0.024 * one_way + idd;
    let p = loss * 100.0;
    let ie_eff = 95.0 * p / (p + 25.0);
    let r = (93.2 - id - ie_eff).clamp(0.0, 100.0);
    // Standard R→MOS mapping.
    let mos = if r <= 0.0 {
        1.0
    } else if r >= 100.0 {
        4.5
    } else {
        1.0 + 0.035 * r + r * (r - 60.0) * (100.0 - r) * 7e-6
    };
    (r, mos.clamp(1.0, 4.5))
}

/// Probe the nearest Google edge with `probes` pings as the flow named by
/// `label`, and score the path for VoIP. `None` when no edge is reachable
/// at all.
pub fn voip_probe(
    net: &mut Network,
    endpoint: &Endpoint,
    targets: &ServiceTargets,
    probes: u32,
    label: &str,
) -> Option<VoipResult> {
    assert!(probes >= 2, "jitter needs at least two samples");
    let dst = targets.nearest(net, Service::Google, endpoint.att.breakout_city)?;
    let mut probe = endpoint.probe(net, label);
    let mut rtts = Vec::new();
    let mut lost = 0u32;
    for _ in 0..probes {
        match probe.ping(dst) {
            Some(r) => rtts.push(r.rtt_ms),
            None => lost += 1,
        }
    }
    if rtts.len() < 2 {
        // Effectively a dead path: report a floor-quality result.
        return Some(VoipResult {
            rtt_ms: f64::INFINITY,
            jitter_ms: f64::INFINITY,
            loss: 1.0,
            r_factor: 0.0,
            mos: 1.0,
        });
    }
    let mean = rtts.iter().sum::<f64>() / rtts.len() as f64;
    let jitter =
        rtts.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (rtts.len() - 1) as f64;
    let loss = f64::from(lost) / f64::from(probes);
    // The access network's residual loss applies even to delivered bursts.
    let loss = (loss + endpoint.loss).min(1.0);
    let (r_factor, mos) = e_model(mean, jitter, loss);
    Some(VoipResult {
        rtt_ms: mean,
        jitter_ms: jitter,
        loss,
        r_factor,
        mos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e_model_orders_paths_sensibly() {
        let (_, good) = e_model(40.0, 2.0, 0.001);
        let (_, hr) = e_model(400.0, 2.0, 0.001);
        let (_, extreme) = e_model(700.0, 2.0, 0.001);
        let (_, lossy) = e_model(40.0, 2.0, 0.05);
        let (_, jittery) = e_model(40.0, 40.0, 0.001);
        assert!(good > 4.0, "clean short path is 'good': {good}");
        assert!(
            hr < good - 0.3,
            "HR-scale delay noticeably degrades calls: {hr}"
        );
        assert!(
            extreme < good - 0.8,
            "extreme delay wrecks calls: {extreme}"
        );
        assert!(
            lossy < good - 0.5,
            "5% loss degrades calls even with PLC: {lossy}"
        );
        assert!(jittery < good, "jitter charges the de-jitter buffer");
    }

    #[test]
    fn mos_is_bounded() {
        for (rtt, j, l) in [(1.0, 0.0, 0.0), (2000.0, 500.0, 0.9), (100.0, 10.0, 0.01)] {
            let (r, mos) = e_model(rtt, j, l);
            assert!((0.0..=100.0).contains(&r));
            assert!((1.0..=4.5).contains(&mos));
        }
    }

    #[test]
    fn verdict_buckets() {
        let mk = |mos| VoipResult {
            rtt_ms: 0.0,
            jitter_ms: 0.0,
            loss: 0.0,
            r_factor: 0.0,
            mos,
        };
        assert_eq!(mk(4.2).verdict(), "good");
        assert_eq!(mk(3.8).verdict(), "fair");
        assert_eq!(mk(3.3).verdict(), "degraded");
        assert_eq!(mk(2.0).verdict(), "poor");
    }

    #[test]
    fn delay_penalty_kicks_in_past_the_knee() {
        // Below the 177.3 ms one-way knee the slope is gentle; above, steep.
        let (r1, _) = e_model(120.0, 0.0, 0.0); // one-way ≈ 85 (below knee)
        let (r2, _) = e_model(240.0, 0.0, 0.0); // one-way ≈ 145
        let (r3, _) = e_model(480.0, 0.0, 0.0); // one-way ≈ 265 (well past knee)
        let gentle = r1 - r2;
        let steep = r2 - r3;
        assert!(
            steep > gentle * 2.0,
            "gentle {gentle:.2} vs steep {steep:.2}"
        );
    }
}
