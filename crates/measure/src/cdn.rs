//! CDN object fetch (§5.1 "CDN Download Time", Figs. 14a and 20).
//!
//! The device campaign `curl`s `jquery.min.js` (v3.6.0) from five CDN
//! providers and records the download time and the cache header. The fetch
//! decomposes into DNS lookup, TCP+TLS setup, and the object transfer; a
//! cache MISS adds an edge→origin fetch, which is how the Thai physical
//! SIM's 7.7% MISS rate showed up as an 18% higher median (§5.1).

use crate::campaign::{CdnRecord, RecordTag};
use crate::dns::resolve_checked;
use crate::endpoint::Endpoint;
use crate::error::{MeasureError, MeasureStatus};
use crate::targets::{Service, ServiceTargets};
use rand::Rng;
use roam_netsim::throughput::TransferSpec;
use roam_netsim::Network;

/// Compressed transfer size of jquery.min.js v3.6.0 (~30 kB gzipped).
pub(crate) const JQUERY_BYTES: f64 = 30_345.0;

/// The five CDN providers of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CdnProvider {
    /// Cloudflare (the headline panel, Fig. 14a).
    Cloudflare,
    /// Google CDN (Hosted Libraries).
    GoogleCdn,
    /// jsDelivr.
    JsDelivr,
    /// code.jquery.com.
    JQuery,
    /// Microsoft Ajax CDN.
    MicrosoftAjax,
}

impl CdnProvider {
    /// All providers, in the order the appendix plots them.
    pub const ALL: [CdnProvider; 5] = [
        CdnProvider::Cloudflare,
        CdnProvider::GoogleCdn,
        CdnProvider::JsDelivr,
        CdnProvider::JQuery,
        CdnProvider::MicrosoftAjax,
    ];

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            CdnProvider::Cloudflare => "Cloudflare",
            CdnProvider::GoogleCdn => "Google CDN",
            CdnProvider::JsDelivr => "jsDelivr",
            CdnProvider::JQuery => "jQuery",
            CdnProvider::MicrosoftAjax => "Microsoft Ajax",
        }
    }
}

impl std::fmt::Display for CdnProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-fetch options.
#[derive(Debug, Clone, Copy)]
pub struct CdnOptions {
    /// Probability the edge must go to the origin.
    pub miss_rate: f64,
}

impl Default for CdnOptions {
    fn default() -> Self {
        CdnOptions { miss_rate: 0.02 }
    }
}

/// Fetch jquery.min.js from `provider` as the flow named by `label` (the
/// DNS lookup runs as its own `{label}/dns` sub-flow), returning the
/// fetch's campaign record. DNS failures and dead edges surface as
/// [`MeasureError`]s; a missing edge or resolver in the scenario is
/// [`MeasureError::NoTarget`].
///
/// # Errors
/// Propagates [`resolve_checked`] and
/// [`crate::endpoint::Probe::rtt_checked`] failures.
pub fn fetch_jquery_checked(
    net: &mut Network,
    endpoint: &Endpoint,
    targets: &ServiceTargets,
    provider: CdnProvider,
    opts: CdnOptions,
    label: &str,
) -> Result<CdnRecord, MeasureError> {
    let dns = resolve_checked(net, endpoint, targets, &format!("{label}/dns"))?;
    let edge = targets
        .nearest(net, Service::Cdn(provider), endpoint.att.breakout_city)
        .ok_or(MeasureError::NoTarget)?;

    let mut probe = endpoint.probe(net, label);
    let rtt = probe.rtt_checked(edge)?;
    let cqi = endpoint.channel.sample(probe.rng());

    let mut total = dns.lookup_ms
        + probe.transfer_ms(&TransferSpec {
            bytes: JQUERY_BYTES,
            rtt_ms: rtt.rtt_ms,
            policy_rate_mbps: endpoint.effective_down_mbps(cqi),
            loss: endpoint.loss,
            setup_rtts: 3.0, // TCP + TLS
            parallel: 1,     // curl fetches one object on one connection
        });

    let cache_hit = !probe.rng().gen_bool(opts.miss_rate.clamp(0.0, 1.0));
    if !cache_hit {
        // Edge→origin fetch before the first byte reaches the client.
        if let Some(origin) = targets.origin(provider) {
            let edge_city = net.node(edge).city.location();
            let origin_city = net.node(origin).city.location();
            let origin_rtt =
                2.0 * roam_geo::fiber_delay_ms(edge_city.distance_km(origin_city)) * 1.4 + 2.0;
            total += 1.5 * origin_rtt; // connect reuse + object fetch
        } else {
            total += 120.0; // no origin registered: generic penalty
        }
    }

    Ok(CdnRecord {
        tag: RecordTag::of(endpoint),
        provider,
        total_ms: total,
        dns_ms: dns.lookup_ms,
        cache_hit,
        status: if rtt.failover || dns.status == MeasureStatus::Failover {
            MeasureStatus::Failover
        } else {
            MeasureStatus::Ok
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use roam_cellular::{ChannelSampler, MnoId, Rat, SimType};
    use roam_geo::{City, Country};
    use roam_ipx::{Attachment, DnsMode, PgwProviderId, RoamingArch};
    use roam_netsim::link::{LatencyModel, LinkClass};
    use roam_netsim::NodeKind;

    fn world(tunnel_ms: f64) -> (Network, Endpoint, ServiceTargets) {
        let mut net = Network::new(21);
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
            "202.166.126.7".parse().unwrap(),
        );
        net.link_with(ue, nat, LatencyModel::fixed(tunnel_ms, 1.0), 0.0);
        let edge = net.add_node(
            "cf-sgp",
            NodeKind::SpEdge,
            City::Singapore,
            "104.16.1.1".parse().unwrap(),
        );
        let origin = net.add_node(
            "cf-origin",
            NodeKind::SpEdge,
            City::Ashburn,
            "104.16.9.9".parse().unwrap(),
        );
        let dns_node = net.add_node(
            "op-dns",
            NodeKind::DnsResolver,
            City::Singapore,
            "165.21.83.88".parse().unwrap(),
        );
        net.link_with(nat, edge, LatencyModel::fixed(1.0, 0.2), 0.0);
        net.link_with(nat, dns_node, LatencyModel::fixed(0.8, 0.1), 0.0);
        net.link_geo(edge, origin, LinkClass::Backbone);
        let mut targets = ServiceTargets::new();
        targets.add(Service::Cdn(CdnProvider::Cloudflare), edge);
        targets.set_origin(CdnProvider::Cloudflare, origin);
        targets.set_operator_dns(MnoId(1), dns_node);
        let ep = Endpoint {
            att: Attachment {
                ue,
                ran: ue,
                sgw: ue,
                cgnat: nat,
                public_ip: "202.166.126.7".parse().unwrap(),
                arch: RoamingArch::HomeRouted,
                provider: PgwProviderId(0),
                breakout_city: City::Singapore,
                tunnel_km: 4700.0,
                dns: DnsMode::OperatorResolver,
                teid: 4,
                v_mno: MnoId(0),
                b_mno: MnoId(1),
                rat: Rat::Lte,
                private_hops: 8,
                flow_stamp: 0xCD4,
            },
            sim_type: SimType::Esim,
            country: Country::PAK,
            label: "PAK eSIM".into(),
            policy_down_mbps: 12.0,
            policy_up_mbps: 6.0,
            youtube_cap_mbps: None,
            loss: 0.0,
            channel: ChannelSampler {
                mode_cqi: 12,
                weak_tail: 0.0,
            },
        };
        (net, ep, targets)
    }

    #[test]
    fn long_tunnel_multiplies_download_time() {
        let opts = CdnOptions { miss_rate: 0.0 };
        let (mut fast_net, fast_ep, t1) = world(10.0);
        let (mut slow_net, slow_ep, t2) = world(180.0);
        let fast = fetch_jquery_checked(
            &mut fast_net,
            &fast_ep,
            &t1,
            CdnProvider::Cloudflare,
            opts,
            "cdn/0",
        )
        .unwrap();
        let slow = fetch_jquery_checked(
            &mut slow_net,
            &slow_ep,
            &t2,
            CdnProvider::Cloudflare,
            opts,
            "cdn/0",
        )
        .unwrap();
        let ratio = slow.total_ms / fast.total_ms;
        assert!(ratio > 3.0, "HR-scale RTT inflation: {ratio:.1}x");
        assert!(
            slow.total_ms > 1500.0,
            "HR CDN fetches take seconds: {}",
            slow.total_ms
        );
    }

    #[test]
    fn misses_cost_more_than_hits() {
        let (mut net, ep, targets) = world(10.0);
        let mut hit_times = vec![];
        let mut miss_times = vec![];
        for i in 0..300 {
            let r = fetch_jquery_checked(
                &mut net,
                &ep,
                &targets,
                CdnProvider::Cloudflare,
                CdnOptions { miss_rate: 0.3 },
                &format!("cdn/{i}"),
            )
            .unwrap();
            if r.cache_hit {
                hit_times.push(r.total_ms);
            } else {
                miss_times.push(r.total_ms);
            }
        }
        assert!(!miss_times.is_empty() && !hit_times.is_empty());
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            avg(&miss_times) > avg(&hit_times) + 100.0,
            "origin fetch must hurt: hit {:.0} vs miss {:.0}",
            avg(&hit_times),
            avg(&miss_times)
        );
    }

    #[test]
    fn dns_time_is_part_of_total() {
        let (mut net, ep, targets) = world(10.0);
        let r = fetch_jquery_checked(
            &mut net,
            &ep,
            &targets,
            CdnProvider::Cloudflare,
            CdnOptions { miss_rate: 0.0 },
            "cdn/0",
        )
        .unwrap();
        assert!(r.dns_ms > 0.0 && r.dns_ms < r.total_ms);
        let edge = targets
            .nearest(
                &net,
                Service::Cdn(CdnProvider::Cloudflare),
                ep.att.breakout_city,
            )
            .unwrap();
        assert_eq!(net.node(edge).city, City::Singapore);
    }

    #[test]
    fn provider_metadata() {
        assert_eq!(CdnProvider::ALL.len(), 5);
        for p in CdnProvider::ALL {
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn unreachable_cdn_returns_none() {
        let (mut net, ep, targets) = world(10.0);
        assert!(fetch_jquery_checked(
            &mut net,
            &ep,
            &targets,
            CdnProvider::JsDelivr,
            CdnOptions::default(),
            "cdn/0"
        )
        .is_err());
    }
}
