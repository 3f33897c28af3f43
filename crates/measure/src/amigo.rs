//! The AmiGo-style testbed: control server + instrumented endpoints.
//!
//! §3.2: the device campaign "extends the (open-source) AmiGo code, which
//! provides a control server to remotely manage mobile measurement
//! endpoints (MEs)". The MEs (1) report status — "device vitals like
//! battery level and connectivity, as well as radio-level metrics (RSSI,
//! SNR, CQI)" — and (2) retrieve instrumentation to execute. This module is
//! that machinery:
//!
//! * [`DeviceVitals`] — the status report;
//! * [`Instrumentation`] — one executable job (a measurement, or a SIM
//!   switch on the dual-SIM phone);
//! * [`ControlServer`] — queues jobs per ME, collects reports, and models
//!   the operational frictions behind Table 4's lopsided `SIM // eSIM`
//!   counts: MEs skip work below a battery floor, and Ookla-style
//!   server-side **rate limiting per public IP** rejects bursts — which
//!   bites physical SIMs hardest because a whole operator's customers share
//!   few CG-NAT addresses ("likely triggered by IP address aggregation by
//!   the local operator", §A.3);
//! * [`MeasurementEndpoint`] — executes jobs against an attached
//!   [`Endpoint`], draining battery and updating radio vitals per job.

use crate::campaign::{CampaignData, RecordTag, SpeedtestRecord, TraceRecord};
use crate::cdn::{fetch_jquery, CdnOptions, CdnProvider};
use crate::dns::resolve_checked;
use crate::endpoint::Endpoint;
use crate::speedtest::ookla_speedtest;
use crate::targets::{Service, ServiceTargets};
use crate::trace::mtr_run;
use crate::video::play_youtube;
use rand::rngs::SmallRng;
use rand::Rng;
use roam_netsim::Network;
use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;

/// Which SIM slot the dual-SIM phone has active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimSlot {
    /// The local physical SIM.
    Physical,
    /// The aggregator eSIM.
    Esim,
}

/// The status report an ME posts to the control server.
#[derive(Debug, Clone, Copy)]
pub struct DeviceVitals {
    /// Battery level, 0–100.
    pub battery_pct: f64,
    /// Received signal strength, dBm.
    pub rssi_dbm: f64,
    /// Signal-to-noise ratio, dB.
    pub snr_db: f64,
    /// Channel quality indicator of the last sample.
    pub cqi: u8,
    /// Is a data bearer up?
    pub connected: bool,
}

/// One job the server hands an ME.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instrumentation {
    /// Switch the active SIM slot.
    SwitchSim(SimSlot),
    /// Ookla-style speedtest.
    Speedtest,
    /// `mtr` to a service.
    Traceroute(Service),
    /// Fetch jquery.min.js from a CDN.
    CdnFetch(CdnProvider),
    /// Resolver discovery + lookup timing.
    DnsCheck,
    /// YouTube stats-for-nerds session.
    Video,
    /// Plug the phone in for a while (volunteers charge overnight).
    Charge,
}

/// Why a job produced no record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// Battery below the floor; the ME reported status and went back to
    /// sleep.
    LowBattery,
    /// The measurement server rejected the request (per-IP rate limiting).
    RateLimited,
    /// The network path failed (no route / all probes lost).
    NetworkFailure,
}

/// The control server.
#[derive(Debug)]
pub struct ControlServer {
    queues: HashMap<u32, VecDeque<Instrumentation>>,
    vitals: HashMap<u32, DeviceVitals>,
    skips: Vec<(u32, Instrumentation, SkipReason)>,
    /// Ookla-style limiter: completed speedtests per public IP.
    ookla_counts: HashMap<Ipv4Addr, u32>,
    /// Speedtests allowed per public IP per campaign window.
    pub ookla_limit_per_ip: u32,
}

impl ControlServer {
    /// A server with the given per-IP speedtest allowance.
    #[must_use]
    pub fn new(ookla_limit_per_ip: u32) -> Self {
        ControlServer {
            queues: HashMap::new(),
            vitals: HashMap::new(),
            skips: Vec::new(),
            ookla_counts: HashMap::new(),
            ookla_limit_per_ip,
        }
    }

    /// Queue a job for an ME.
    pub fn push_job(&mut self, me: u32, job: Instrumentation) {
        self.queues.entry(me).or_default().push_back(job);
    }

    /// Queue the standard alternating day plan: switch to each slot and run
    /// the whole Table-1 suite on it.
    pub fn push_day_plan(&mut self, me: u32, rounds: u32) {
        for _ in 0..rounds {
            for slot in [SimSlot::Physical, SimSlot::Esim] {
                self.push_job(me, Instrumentation::SwitchSim(slot));
                self.push_job(me, Instrumentation::Speedtest);
                for svc in [Service::Google, Service::Facebook, Service::YouTube] {
                    self.push_job(me, Instrumentation::Traceroute(svc));
                }
                for p in CdnProvider::ALL {
                    self.push_job(me, Instrumentation::CdnFetch(p));
                }
                self.push_job(me, Instrumentation::DnsCheck);
                self.push_job(me, Instrumentation::Video);
            }
        }
        self.push_job(me, Instrumentation::Charge);
    }

    /// The restful "give me work" endpoint.
    pub fn next_instruction(&mut self, me: u32) -> Option<Instrumentation> {
        self.queues.get_mut(&me)?.pop_front()
    }

    /// The restful "here is my status" endpoint.
    pub fn report_status(&mut self, me: u32, vitals: DeviceVitals) {
        self.vitals.insert(me, vitals);
    }

    /// Last reported vitals of an ME.
    #[must_use]
    pub fn vitals_of(&self, me: u32) -> Option<DeviceVitals> {
        self.vitals.get(&me).copied()
    }

    /// Record a skip.
    fn record_skip(&mut self, me: u32, job: Instrumentation, why: SkipReason) {
        self.skips.push((me, job, why));
    }

    /// All skips observed, for campaign accounting.
    #[must_use]
    pub fn skips(&self) -> &[(u32, Instrumentation, SkipReason)] {
        &self.skips
    }

    /// Ookla admission control: count a speedtest attempt from `ip`,
    /// rejecting once the per-IP allowance is spent.
    fn admit_speedtest(&mut self, ip: Ipv4Addr) -> bool {
        let n = self.ookla_counts.entry(ip).or_insert(0);
        if *n >= self.ookla_limit_per_ip {
            false
        } else {
            *n += 1;
            true
        }
    }
}

/// A rooted dual-SIM phone carried by a volunteer.
#[derive(Debug)]
pub struct MeasurementEndpoint {
    /// ME identifier at the control server.
    pub id: u32,
    /// The physical-SIM attachment.
    pub physical: Endpoint,
    /// The eSIM attachment.
    pub esim: Endpoint,
    active: SimSlot,
    battery_pct: f64,
    /// MEs stop measuring below this battery level.
    pub battery_floor: f64,
    /// Jobs executed so far — names each job's measurement flow.
    jobs_run: u64,
}

/// Battery cost per job, percent.
fn battery_cost(job: Instrumentation) -> f64 {
    match job {
        Instrumentation::SwitchSim(_) => 0.2,
        Instrumentation::Speedtest => 2.2, // bulk transfer is expensive
        Instrumentation::Traceroute(_) => 0.4,
        Instrumentation::CdnFetch(_) => 0.3,
        Instrumentation::DnsCheck => 0.1,
        Instrumentation::Video => 3.0, // screen + decode + radio
        Instrumentation::Charge => 0.0,
    }
}

impl MeasurementEndpoint {
    /// A freshly provisioned ME, physical SIM active, full battery.
    #[must_use]
    pub fn new(id: u32, physical: Endpoint, esim: Endpoint) -> Self {
        MeasurementEndpoint {
            id,
            physical,
            esim,
            active: SimSlot::Physical,
            battery_pct: 100.0,
            battery_floor: 15.0,
            jobs_run: 0,
        }
    }

    /// Currently active endpoint.
    #[must_use]
    pub fn active_endpoint(&self) -> &Endpoint {
        match self.active {
            SimSlot::Physical => &self.physical,
            SimSlot::Esim => &self.esim,
        }
    }

    /// Current battery level.
    #[must_use]
    pub fn battery(&self) -> f64 {
        self.battery_pct
    }

    /// Build the vitals report from the active endpoint's channel state.
    pub fn vitals(&self, rng: &mut SmallRng) -> DeviceVitals {
        let cqi = self.active_endpoint().channel.sample(rng);
        // Map CQI to plausible RSSI/SNR (linear stand-ins).
        DeviceVitals {
            battery_pct: self.battery_pct,
            rssi_dbm: -110.0 + 3.2 * f64::from(cqi.value()),
            snr_db: -5.0 + 1.8 * f64::from(cqi.value()),
            cqi: cqi.value(),
            connected: true,
        }
    }

    /// Poll the server once: fetch one instruction, execute it, deliver the
    /// record into `data`. Returns the executed instruction (if any work was
    /// queued).
    pub fn poll(
        &mut self,
        server: &mut ControlServer,
        net: &mut Network,
        targets: &ServiceTargets,
        data: &mut CampaignData,
        rng: &mut SmallRng,
    ) -> Option<Instrumentation> {
        let job = server.next_instruction(self.id)?;
        server.report_status(self.id, self.vitals(rng));

        // Battery gate: below the floor the ME only reports status.
        if self.battery_pct < self.battery_floor
            && !matches!(job, Instrumentation::Charge | Instrumentation::SwitchSim(_))
        {
            server.record_skip(self.id, job, SkipReason::LowBattery);
            return Some(job);
        }
        self.battery_pct = (self.battery_pct - battery_cost(job)).max(0.0);

        let ep = match self.active {
            SimSlot::Physical => self.physical.clone(),
            SimSlot::Esim => self.esim.clone(),
        };
        let tag = RecordTag::of(&ep);
        // Each executed job is its own flow: the label carries the ME id
        // and a monotone job counter.
        let label = format!("amigo/{}/{}", self.id, self.jobs_run);
        self.jobs_run += 1;
        match job {
            Instrumentation::SwitchSim(slot) => self.active = slot,
            Instrumentation::Charge => self.battery_pct = 100.0,
            Instrumentation::Speedtest => {
                if !server.admit_speedtest(ep.att.public_ip) {
                    server.record_skip(self.id, job, SkipReason::RateLimited);
                } else if let Some(r) = ookla_speedtest(net, &ep, targets, &label) {
                    data.speedtests.push(SpeedtestRecord {
                        tag,
                        down_mbps: r.down_mbps,
                        up_mbps: r.up_mbps,
                        latency_ms: r.latency_ms,
                        attempts: r.attempts,
                        cqi: Some(r.cqi),
                        status: r.status,
                    });
                } else {
                    server.record_skip(self.id, job, SkipReason::NetworkFailure);
                }
            }
            Instrumentation::Traceroute(service) => {
                match mtr_run(net, &ep, targets, service, self.jobs_run as u32) {
                    Some(out) => {
                        let status = if out.analysis.reached {
                            crate::error::MeasureStatus::Ok
                        } else {
                            crate::error::MeasureStatus::Timeout
                        };
                        data.traces.push(TraceRecord {
                            tag,
                            service,
                            analysis: out.analysis,
                            status,
                        });
                    }
                    None => server.record_skip(self.id, job, SkipReason::NetworkFailure),
                }
            }
            Instrumentation::CdnFetch(provider) => {
                match fetch_jquery(net, &ep, targets, provider, CdnOptions::default(), &label) {
                    Some(r) => data.cdns.push(crate::campaign::CdnRecord {
                        tag,
                        provider,
                        total_ms: r.total_ms,
                        dns_ms: r.dns_ms,
                        cache_hit: r.cache_hit,
                        status: r.status,
                    }),
                    None => server.record_skip(self.id, job, SkipReason::NetworkFailure),
                }
            }
            Instrumentation::DnsCheck => match resolve_checked(net, &ep, targets, &label).ok() {
                Some(r) => data.dns.push(crate::campaign::DnsRecord {
                    tag,
                    lookup_ms: r.lookup_ms,
                    attempts: r.attempts,
                    resolver_city: Some(r.resolver_city),
                    doh: r.doh,
                    status: r.status,
                }),
                None => server.record_skip(self.id, job, SkipReason::NetworkFailure),
            },
            Instrumentation::Video => match play_youtube(net, &ep, targets, &label) {
                Some(r) => data.videos.push(crate::campaign::VideoRecord {
                    tag,
                    resolution: Some(r.resolution),
                    rebuffered: r.rebuffered,
                    status: r.status,
                }),
                None => server.record_skip(self.id, job, SkipReason::NetworkFailure),
            },
        }
        // Idle drain between polls.
        self.battery_pct = (self.battery_pct - rng.gen::<f64>() * 0.3).max(0.0);
        Some(job)
    }

    /// Drain the ME's whole queue.
    pub fn run_to_completion(
        &mut self,
        server: &mut ControlServer,
        net: &mut Network,
        targets: &ServiceTargets,
        data: &mut CampaignData,
        rng: &mut SmallRng,
    ) {
        while self.poll(server, net, targets, data, rng).is_some() {}
    }
}
