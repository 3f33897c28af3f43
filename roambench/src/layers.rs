//! Per-operation cost of each layer a simulated user passes through,
//! measured by calling the layer's public functions directly in short
//! batches (median over batches). The traced run multiplies these costs
//! by the workload's own counts to predict its time (the ladder).

use crate::trace::Tracer;
use roamsim::econ::Market;
use roamsim::fleet::{synthesize, UserId};
use roamsim::measure::{resolve_timing, Endpoint, ResolverPlan, Service};
use roamsim::netsim::{FaultSpec, NodeId, TransferSpec, TransportKind};
use roamsim::stats::stream::{KeyedReservoir, QuantileSketch};
use roamsim::world::World;
use std::hint::black_box;
use std::time::Instant;

/// Cost per operation of every laddered layer, under one fault spec.
#[derive(Debug, Clone, Copy)]
pub struct LayerCosts {
    /// `World::build`, ms.
    pub world_build_ms: f64,
    /// One `World::attach_esim`, µs.
    pub attach_us: f64,
    /// `Market::generate`, ms.
    pub market_ms: f64,
    /// One `ResolverPlan::new` plus `targets.nearest`, µs.
    pub plan_us: f64,
    /// The whole fixed stage a shard builds before its first user, ms.
    pub shard_setup_ms: f64,
    /// One `synthesize`, ns.
    pub synth_ns: f64,
    /// One `Market::price_on_day`, ns.
    pub price_ns: f64,
    /// One `Endpoint::probe` + `rtt_checked`, ns.
    pub probe_ns: f64,
    /// One `resolve_timing`, ns.
    pub resolve_ns: f64,
    /// One `Network::ping`, ns.
    pub ping_ns: f64,
    /// One spec through `transfer_ms_batch`, ns.
    pub transfer_ns: f64,
    /// One `QuantileSketch::observe`, ns.
    pub observe_ns: f64,
    /// One `KeyedReservoir::offer`, ns.
    pub offer_ns: f64,
}

/// Median over `reps` batches of the time per operation of `batch`,
/// which performs `ops` operations per call; nanoseconds.
fn per_op_ns(reps: usize, ops: u64, mut batch: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The fixed probe stage a fleet shard builds: two eSIMs per measured
/// country, with their RTT target and resolver plan.
struct Pool {
    world: World,
    slots: Vec<(Endpoint, Option<NodeId>, ResolverPlan)>,
}

fn pool(seed: u64) -> Pool {
    let mut world = World::build(seed);
    let countries = world.measured_countries();
    let eps: Vec<Endpoint> = countries
        .iter()
        .flat_map(|&c| [c, c])
        .map(|c| world.attach_esim(c))
        .collect();
    let slots = eps
        .into_iter()
        .map(|ep| {
            let target =
                world
                    .internet
                    .targets
                    .nearest(&world.net, Service::Google, ep.att.breakout_city);
            let plan = ResolverPlan::new(&world.net, &ep, &world.internet.targets);
            (ep, target, plan)
        })
        .collect();
    Pool { world, slots }
}

/// Measure every layer cost for `seed` with `faults` pinned, recording
/// one span per layer batch under a `layers` parent span.
pub fn measure(seed: u64, faults: FaultSpec, days: u32, tracer: &mut Tracer) -> LayerCosts {
    let previous = FaultSpec::override_faults(Some(faults));
    let costs = tracer.span("layers", 0, |t| measure_inner(seed, days, t));
    FaultSpec::override_faults(previous);
    costs
}

fn measure_inner(seed: u64, days: u32, t: &mut Tracer) -> LayerCosts {
    let world_build_ms = t.span("world.build", 5, |_| {
        per_op_ns(5, 1, || {
            black_box(World::build(seed));
        }) / 1e6
    });
    let market_ms = t.span("econ.market", 5, |_| {
        per_op_ns(5, 1, || {
            black_box(Market::generate(seed));
        }) / 1e6
    });
    let countries = World::build(seed).measured_countries();
    let attaches = 2 * countries.len() as u64;
    let attach_us = t.span("world.attach", 3 * attaches, |_| {
        let mut v = Vec::new();
        for _ in 0..3 {
            let mut world = World::build(seed);
            let start = Instant::now();
            for &country in &countries {
                black_box(world.attach_esim(country));
                black_box(world.attach_esim(country));
            }
            v.push(start.elapsed().as_nanos() as f64 / attaches as f64 / 1e3);
        }
        crate::stats::median(&v)
    });
    let mut p = pool(seed);
    let plan_us = t.span("measure.plan", 5 * attaches, |_| {
        let world = &p.world;
        per_op_ns(5, attaches, || {
            for (ep, _, _) in &p.slots {
                black_box(world.internet.targets.nearest(
                    &world.net,
                    Service::Google,
                    ep.att.breakout_city,
                ));
                black_box(ResolverPlan::new(&world.net, ep, &world.internet.targets));
            }
        }) / 1e3
    });
    let shard_setup_ms = t.span("fleet.shard_setup", 3, |_| {
        per_op_ns(3, 1, || {
            black_box(Market::generate(seed));
            black_box(pool(seed));
        }) / 1e6
    });
    const USERS: u64 = 20_000;
    let synth_ns = t.span("fleet.synth", 3 * USERS, |_| {
        per_op_ns(3, USERS, || {
            for u in 0..USERS {
                black_box(synthesize(seed, UserId(u), &countries, days));
            }
        })
    });
    let market = Market::generate(seed);
    let offers = market.offers();
    const PRICES: u64 = 200_000;
    let price_ns = t.span("econ.price", 3 * PRICES, |_| {
        per_op_ns(3, PRICES, || {
            for i in 0..PRICES {
                let offer = &offers[i as usize % offers.len()];
                black_box(market.price_on_day(offer, (i % u64::from(days)) as u32));
            }
        })
    });
    const PROBES: u64 = 20_000;
    let mut label = String::with_capacity(48);
    let probe_ns = t.span("measure.probe", 3 * PROBES, |_| {
        per_op_ns(3, PROBES, || {
            for i in 0..PROBES {
                let (ep, target, _) = &p.slots[i as usize % p.slots.len()];
                let Some(target) = *target else { continue };
                label.clear();
                label.push_str("bench/probe/");
                label.push_str(&i.to_string());
                let mut probe = ep.probe(&mut p.world.net, &label);
                let _ = black_box(probe.rtt_checked(target));
            }
        })
    });
    const LOOKUPS: u64 = 10_000;
    let resolve_ns = t.span("measure.resolve", 3 * LOOKUPS, |_| {
        per_op_ns(3, LOOKUPS, || {
            for i in 0..LOOKUPS {
                let (ep, _, plan) = &p.slots[i as usize % p.slots.len()];
                label.clear();
                label.push_str("bench/dns/");
                label.push_str(&i.to_string());
                let _ = black_box(resolve_timing(&mut p.world.net, ep, plan, &label));
            }
        })
    });
    const PINGS: u64 = 20_000;
    let ping_ns = t.span("netsim.ping", 3 * PINGS, |_| {
        per_op_ns(3, PINGS, || {
            for i in 0..PINGS {
                let (ep, target, _) = &p.slots[i as usize % p.slots.len()];
                let Some(target) = *target else { continue };
                black_box(p.world.net.ping(ep.att.ue, target));
            }
        })
    });
    let specs: Vec<TransferSpec> = (0..1_000u32)
        .map(|i| {
            let (ep, _, _) = &p.slots[i as usize % p.slots.len()];
            TransferSpec {
                bytes: f64::from(1 + i % 200) * 1e6,
                rtt_ms: 40.0 + f64::from(i % 300),
                policy_rate_mbps: ep.policy_down_mbps,
                loss: ep.loss,
                setup_rtts: 1.0,
                parallel: 1,
            }
        })
        .collect();
    let transport = TransportKind::ClosedForm.transport();
    let mut out = Vec::with_capacity(specs.len());
    let transfer_ns = t.span("netsim.transfer", 50 * specs.len() as u64, |_| {
        per_op_ns(50, specs.len() as u64, || {
            out.clear();
            transport.transfer_ms_batch(black_box(&specs), &mut out);
            black_box(&out);
        })
    });
    const OBS: u64 = 1_000_000;
    let observe_ns = t.span("stats.observe", 3 * OBS, |_| {
        per_op_ns(3, OBS, || {
            let mut sk = QuantileSketch::log_spaced(0.5, 2_000.0, 10);
            for i in 0..OBS {
                sk.observe(black_box(1.0 + (i % 1_500) as f64 * 0.7));
            }
            black_box(sk);
        })
    });
    let offer_ns = t.span("stats.offer", 3 * OBS, |_| {
        per_op_ns(3, OBS, || {
            let mut r: KeyedReservoir<u64> = KeyedReservoir::new(16);
            for i in 0..OBS {
                let prio = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                r.offer(black_box(prio), i, i);
            }
            black_box(r);
        })
    });
    LayerCosts {
        world_build_ms,
        market_ms,
        attach_us,
        plan_us,
        shard_setup_ms,
        synth_ns,
        price_ns,
        probe_ns,
        resolve_ns,
        ping_ns,
        transfer_ns,
        observe_ns,
        offer_ns,
    }
}
