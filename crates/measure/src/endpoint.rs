//! A measurement endpoint: an attached SIM/eSIM plus its policy context,
//! and the probe API every measurement client opens its flows through.
//! Pings and traceroutes walk the network on the probe's flow; bulk
//! transfers are timed by [`throughput::transfer_time_ms`], the one
//! transfer model.

use crate::error::{MeasureError, MeasureStatus};
use rand::rngs::SmallRng;
use rand::Rng;
use roam_cellular::{phy_rate_mbps, ChannelSampler, Cqi, Rat, SimType};
use roam_geo::Country;
use roam_ipx::Attachment;
use roam_netsim::engine::{flow_seed, Flow};
use roam_netsim::{
    throughput, Network, NodeId, PingResult, ProbeError, Traceroute, TracerouteOpts, TransferSpec,
};
use roam_telemetry::{Counter, Event, EventScope, Hist};

/// Everything a measurement client needs to know about the device it runs
/// on: the attachment (node handles, breakout, DNS mode) and the resolved
/// subscriber policy the v-MNO applies to it.
#[derive(Debug, Clone)]
pub struct Endpoint {
    /// The live attachment in the network.
    pub att: Attachment,
    /// Physical SIM or eSIM — the comparison axis of every figure.
    pub sim_type: SimType,
    /// Country the endpoint measures from.
    pub country: Country,
    /// Label for report rows, e.g. `"PAK eSIM"`.
    pub label: String,
    /// Downlink policy rate the serving network enforces, Mbps.
    pub policy_down_mbps: f64,
    /// Uplink policy rate, Mbps.
    pub policy_up_mbps: f64,
    /// Optional video-service cap (traffic differentiation, §5.2).
    pub youtube_cap_mbps: Option<f64>,
    /// End-to-end loss characteristic of the serving access network.
    pub loss: f64,
    /// Channel-condition sampler for per-test CQI draws.
    pub channel: ChannelSampler,
}

impl Endpoint {
    /// Effective downlink ceiling for a test taken at channel quality
    /// `cqi`: the policy rate capped by what the air interface can carry.
    #[must_use]
    pub(crate) fn effective_down_mbps(&self, cqi: Cqi) -> f64 {
        self.policy_down_mbps.min(phy_rate_mbps(self.att.rat, cqi))
    }

    /// Effective uplink ceiling (uplink PHY is roughly half of downlink
    /// for the TDD/FDD mixes in play).
    #[must_use]
    pub(crate) fn effective_up_mbps(&self, cqi: Cqi) -> f64 {
        self.policy_up_mbps
            .min(phy_rate_mbps(self.att.rat, cqi) * 0.5)
    }

    /// RAT of the attachment.
    #[must_use]
    pub fn rat(&self) -> Rat {
        self.att.rat
    }

    /// Open a measurement flow on this endpoint. `label` names the
    /// measurement (`"ookla/0"`, `"cdn/Cloudflare/2"`…); together with the
    /// attachment's flow stamp it determines the flow's entire RNG stream,
    /// so the probe's results do not depend on what ran before it.
    pub fn probe<'n>(&self, net: &'n mut Network, label: &str) -> Probe<'n> {
        net.telemetry_mut().add(Counter::FlowsOpened, 1);
        // The event label is only materialised when the run keeps an event
        // stream — the disabled path must not allocate.
        let ev_label = net.telemetry().wants_events().then(|| label.to_string());
        Probe {
            ue: self.att.ue,
            // Hash the label bytes directly — no `fmt` machinery on this path.
            flow: Flow::open(flow_seed(self.att.flow_stamp, label)),
            ev_label,
            net,
        }
    }
}

/// A successful checked RTT measurement (see [`Probe::rtt_checked`]).
#[derive(Debug, Clone, Copy)]
pub struct ProbeRtt {
    /// Round-trip time of the successful echo, ms.
    pub rtt_ms: f64,
    /// Echo attempts consumed across every retry round.
    pub attempts: u32,
    /// Did the exchange traverse a failover gateway?
    pub failover: bool,
}

impl ProbeRtt {
    /// The status this sample stamps on its record.
    #[must_use]
    pub fn status(&self) -> MeasureStatus {
        if self.failover {
            MeasureStatus::Failover
        } else {
            MeasureStatus::Ok
        }
    }
}

/// Base backoff delay after a fully-lost probe, ms.
const BACKOFF_BASE_MS: f64 = 200.0;
/// Extra retry rounds a probe gets when the fault plane is active. Each
/// round is itself a 3-echo [`Network::rtt_probe_checked`] exchange.
const BACKOFF_ROUNDS: u32 = 2;
/// A probe (including its backoff waits) never runs longer than this.
const PROBE_DEADLINE_MS: f64 = 2_000.0;

/// One measurement flow in flight: the endpoint's UE and a private RNG
/// stream. All network I/O a client performs — pings, traceroutes,
/// transfers, server think-time draws — goes through here; clients never
/// touch the network's shared RNG or the throughput formulas directly.
pub struct Probe<'n> {
    net: &'n mut Network,
    ue: NodeId,
    flow: Flow,
    ev_label: Option<String>,
}

impl Probe<'_> {
    /// RTT to `dst` with retries and typed failures, reporting the echo
    /// attempts consumed. With the fault plane active, lost rounds retry
    /// with deterministic exponential backoff.
    ///
    /// Successful samples land in the [`Hist::ProbeRttMs`] histogram and —
    /// in `jsonl` mode — as a flow-scoped `rtt` event. RTTs are walked
    /// packet-by-packet on the flow's own stream, so they are safe
    /// observables for the byte-stable telemetry plane.
    ///
    /// An unroutable or silent destination fails immediately as
    /// [`MeasureError::Unreachable`]; a fully-lost exchange earns up to
    /// `BACKOFF_ROUNDS` extra rounds, each preceded by a backoff of
    /// `BACKOFF_BASE_MS · 2^round · (1 + jitter)` with the jitter drawn
    /// from the flow's own RNG stream, so retry behaviour is a pure
    /// function of the flow identity. Each retry re-phases against the
    /// fault calendar, giving it a real chance to escape the burst or
    /// outage window that ate the previous round. With faults off the
    /// retry machinery is inert and the draw sequence matches the plain
    /// 3-echo probe exactly.
    ///
    /// # Errors
    /// [`MeasureError::Unreachable`] for dead destinations,
    /// [`MeasureError::Timeout`] when every round was lost.
    pub fn rtt_checked(&mut self, dst: NodeId) -> Result<ProbeRtt, MeasureError> {
        let failovers_before = self.net.fault_failovers();
        let rounds = if self.net.faults_enabled() {
            BACKOFF_ROUNDS
        } else {
            0
        };
        let mut attempts = 0u32;
        let mut waited_ms = 0.0;
        for round in 0..=rounds {
            match self.net.rtt_probe_checked(self.ue, dst, &mut self.flow) {
                Ok(s) => {
                    attempts += s.attempts;
                    self.net.telemetry_mut().observe(Hist::ProbeRttMs, s.rtt_ms);
                    if let Some(label) = &self.ev_label {
                        let ev = Event {
                            at_ns: 0,
                            scope: EventScope::Flow(self.flow.id().0),
                            kind: "rtt",
                            label: label.clone(),
                            value: Some(s.rtt_ms),
                            attempts: Some(attempts),
                        };
                        self.net.telemetry_mut().push_event(ev);
                    }
                    return Ok(ProbeRtt {
                        rtt_ms: s.rtt_ms,
                        attempts,
                        failover: self.net.fault_failovers() > failovers_before,
                    });
                }
                Err(ProbeError::Lost) => {
                    attempts += 3;
                    if round == rounds {
                        break;
                    }
                    let jitter: f64 = self.flow.rng().gen_range(0.0..1.0);
                    let wait = BACKOFF_BASE_MS * f64::from(1u32 << round) * (1.0 + jitter);
                    if waited_ms + wait > PROBE_DEADLINE_MS {
                        break;
                    }
                    waited_ms += wait;
                    self.net.telemetry_mut().add(Counter::ProbeBackoffs, 1);
                }
                Err(ProbeError::NoRoute | ProbeError::Silent) => {
                    return Err(MeasureError::Unreachable);
                }
            }
        }
        Err(MeasureError::Timeout { attempts })
    }

    /// A single echo exchange with `dst`.
    pub fn ping(&mut self, dst: NodeId) -> Option<PingResult> {
        let r = self
            .net
            .ping_flow_checked(self.ue, dst, &mut self.flow)
            .ok();
        if let Some(p) = &r {
            self.net.telemetry_mut().observe(Hist::ProbeRttMs, p.rtt_ms);
        }
        r
    }

    /// TTL-walk toward `dst`.
    pub fn traceroute(&mut self, dst: NodeId, opts: TracerouteOpts) -> Traceroute {
        let trace = self.net.traceroute_flow(self.ue, dst, opts, &mut self.flow);
        let t = self.net.telemetry_mut();
        t.add(Counter::TracerouteRuns, 1);
        t.observe(Hist::TraceHops, trace.hops.len() as f64);
        trace
    }

    /// Completion time of a bulk transfer, ms
    /// ([`throughput::transfer_time_ms`]).
    ///
    /// The byte count enters [`Counter::TransferBytes`]; the duration is
    /// returned to the client and never reaches the telemetry plane.
    #[must_use]
    pub(crate) fn transfer_ms(&mut self, spec: &TransferSpec) -> f64 {
        self.net
            .telemetry_mut()
            .add(Counter::TransferBytes, spec.bytes as u64);
        throughput::transfer_time_ms(spec)
    }

    /// Goodput of a bulk transfer, Mbps ([`throughput::goodput_mbps`]).
    /// Same telemetry rule as `Probe::transfer_ms`: bytes are counted,
    /// the rate is not recorded.
    #[must_use]
    pub fn goodput_mbps(&mut self, spec: &TransferSpec) -> f64 {
        self.net
            .telemetry_mut()
            .add(Counter::TransferBytes, spec.bytes as u64);
        throughput::goodput_mbps(spec)
    }

    /// The flow's private RNG, for application-level draws (server think
    /// time, cache luck, channel quality).
    pub fn rng(&mut self) -> &mut SmallRng {
        self.flow.rng()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roam_ipx::{DnsMode, PgwProviderId, RoamingArch};
    use roam_netsim::NodeId;

    fn endpoint(rat: Rat, down: f64) -> Endpoint {
        Endpoint {
            att: Attachment {
                ue: NodeId(0),
                ran: NodeId(1),
                sgw: NodeId(2),
                cgnat: NodeId(3),
                public_ip: "198.51.100.7".parse().unwrap(),
                arch: RoamingArch::IpxHubBreakout,
                provider: PgwProviderId(0),
                breakout_city: roam_geo::City::Amsterdam,
                tunnel_km: 600.0,
                dns: DnsMode::GooglePublic { doh: true },
                teid: 7,
                v_mno: roam_cellular::MnoId(0),
                b_mno: roam_cellular::MnoId(1),
                rat,
                private_hops: 8,
                flow_stamp: 0x00A1_1A10,
            },
            sim_type: SimType::Esim,
            country: Country::DEU,
            label: "DEU eSIM".into(),
            policy_down_mbps: down,
            policy_up_mbps: 10.0,
            youtube_cap_mbps: None,
            loss: 0.001,
            channel: ChannelSampler::default(),
        }
    }

    #[test]
    fn policy_binds_when_channel_is_good() {
        let e = endpoint(Rat::Nr5g, 20.0);
        // CQI 15 on NR carries ~250 Mbps; policy 20 binds.
        assert_eq!(e.effective_down_mbps(Cqi::new(15)), 20.0);
    }

    #[test]
    fn channel_binds_when_weak() {
        let e = endpoint(Rat::Lte, 100.0);
        // CQI 7 on LTE ≈ 22 Mbps < policy 100.
        let eff = e.effective_down_mbps(Cqi::new(7));
        assert!(eff < 30.0, "PHY-limited: {eff}");
    }

    #[test]
    fn uplink_is_half_phy() {
        let e = endpoint(Rat::Lte, 100.0);
        let up = e.effective_up_mbps(Cqi::new(7));
        let down = e.effective_down_mbps(Cqi::new(7));
        assert!(up <= down / 2.0 + 1e-9);
    }
}
