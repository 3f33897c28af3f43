//! Shard execution: drive one contiguous user range through the full
//! stack, optionally starting from a checkpoint and writing new ones.
//!
//! This is the hot half of the fleet plane (the planner/merger halves
//! live in [`crate::plan`] and [`crate::merge`]). A run builds its
//! [`RunInputs`] once — the seeded world's network after knob set-up
//! and the fixed endpoint pool, plus the market and its per-country
//! offer shelves — and shares them read-only with every shard. One call
//! to [`run_fleet_shard`] owns one shard: it starts from a clone of the
//! set-up network, so every shard sees the same stage no matter which
//! user range it owns, then streams its range into the report. With a
//! [`CheckpointPolicy`] it also serializes its partial state every
//! `every_days` accumulated sim-days, at a user boundary (the only
//! point where no batched work is in flight), so a killed process can
//! resume mid-shard without replaying.

use crate::checkpoint::{self, CheckpointPolicy, ShardState};
use crate::config::{FleetConfig, SessionMix};
use crate::population::{synthesize, TravelerClass, UserId};
use crate::report::{FleetReport, JourneySample};
use crate::sink::{SessionKind, SessionRecord};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use roam_econ::{EsimOffer, Market};
use roam_geo::Country;
use roam_measure::{resolve_timing, Endpoint, MeasureError, MeasureStatus, ResolverPlan, Service};
use roam_netsim::engine::flow_seed;
use roam_netsim::{Network, NodeId, RunKnobs};
use roam_telemetry::{Counter, TelemetrySnapshot};
use roam_world::World;
use std::time::Instant;

/// One shard's work order: its index, its user range, and (when
/// resuming) the partial state to continue from.
#[derive(Debug, Clone)]
pub(crate) struct ShardSpec {
    /// Shard index (stable across runs; names the checkpoint file).
    pub index: usize,
    /// First user id (inclusive).
    pub lo: u64,
    /// One past the last user id.
    pub hi: u64,
    /// Partial state to resume from, if a checkpoint exists.
    pub resume: Option<ShardState>,
    /// Execution attempt, counted from 0. Supervision metadata only: it
    /// keys the worker-fault injection draws (`ROAM_WORKER_FAULTS`) so a
    /// retried shard re-rolls its chaos, and it never reaches
    /// [`run_fleet_shard`]'s outputs — a shard's outcome is a pure
    /// function of `(seed, config, index, lo, hi, resume)`.
    pub attempt: u32,
}

/// What one shard hands back to the merger.
#[derive(Debug)]
pub(crate) struct ShardOutcome {
    /// Shard index, for merge ordering.
    pub index: usize,
    /// The shard's aggregates.
    pub report: FleetReport,
    /// The shard's telemetry.
    pub snap: TelemetrySnapshot,
    /// Wall-clock milliseconds this shard took, from cloning the set-up
    /// network to its last user. The run's one-off [`RunInputs`] build
    /// is charged to no shard.
    pub wall_ms: f64,
    /// `false` when the shard stopped early because the checkpoint
    /// policy's `halt_after` tripped (harness use only).
    pub completed: bool,
    /// Per-session export records, in session order (empty unless the
    /// run carries a sink — see [`crate::FleetRunner::sink`]).
    pub sessions: Vec<SessionRecord>,
}

/// Tally a session's fault-plane outcome. Gated on the fault plane
/// being active so undisturbed runs keep an all-zero summary (and
/// therefore unchanged report bytes). `NoTarget` is a scenario gap, not
/// a fault, and stays out of the summary just like in campaign records.
fn count_outcome(
    report: &mut FleetReport,
    net: &Network,
    result: &Result<(f64, MeasureStatus), MeasureError>,
) {
    if !net.faults_enabled() {
        return;
    }
    let tally = &mut report.degraded;
    match result {
        Ok((_, MeasureStatus::Failover)) => tally.failover += 1,
        Ok(_) => tally.ok += 1,
        Err(MeasureError::NoTarget) => {}
        Err(e) if e.status() == MeasureStatus::Timeout => tally.timeout += 1,
        Err(_) => tally.unreachable += 1,
    }
}

/// The fixed per-country measurement stage: two eSIM attachments
/// (capturing the §4.1 provider alternation) plus their precomputed RTT
/// targets and resolver plans, so everything session-invariant is
/// resolved once instead of once per session. Every fleet shard and the
/// resident agent build the same pool with [`CountrySlot::pool`] and run
/// every RTT and DNS session through [`CountrySlot::measure`].
pub struct CountrySlot {
    endpoints: [Endpoint; 2],
    rtt_targets: [Option<NodeId>; 2],
    dns_plans: [ResolverPlan; 2],
}

impl CountrySlot {
    /// One slot per measured country, in [`World::measured_countries`]
    /// order. Every endpoint attaches first (mutable world), then the
    /// targets and plans resolve against the finished topology.
    #[must_use]
    pub fn pool(world: &mut World) -> Vec<CountrySlot> {
        let attached: Vec<[Endpoint; 2]> = world
            .measured_countries()
            .into_iter()
            .map(|c| [world.attach_esim(c), world.attach_esim(c)])
            .collect();
        let (net, targets) = (&world.net, &world.internet.targets);
        attached
            .into_iter()
            .map(|endpoints| CountrySlot {
                rtt_targets: [0, 1]
                    .map(|i| targets.nearest(net, Service::Google, endpoints[i].att.breakout_city)),
                dns_plans: [0, 1].map(|i| ResolverPlan::new(net, &endpoints[i], targets)),
                endpoints,
            })
            .collect()
    }

    /// Endpoint `which` (0 or 1); callers alternate sessions between the
    /// two.
    #[must_use]
    pub fn endpoint(&self, which: usize) -> &Endpoint {
        &self.endpoints[which]
    }

    /// Run one RTT or DNS session from endpoint `which` as the flow named
    /// `label`, returning its metric in ms (the RTT or the lookup time)
    /// and its status.
    ///
    /// # Errors
    /// [`MeasureError::NoTarget`] when an RTT session's country has no
    /// Google edge (checked before the flow opens, so no draw or counter
    /// moves) or a DNS session's endpoint has no resolver; otherwise the
    /// probe's failure.
    ///
    /// # Panics
    /// On [`SessionKind::Transfer`]: a transfer keeps its probe open for
    /// the channel draw, so it runs its own.
    pub fn measure(
        &self,
        net: &mut Network,
        which: usize,
        kind: SessionKind,
        label: &str,
    ) -> Result<(f64, MeasureStatus), MeasureError> {
        let ep = &self.endpoints[which];
        match kind {
            SessionKind::Rtt => {
                let target = self.rtt_targets[which].ok_or(MeasureError::NoTarget)?;
                let sample = ep.probe(net, label).rtt_checked(target)?;
                Ok((sample.rtt_ms, sample.status()))
            }
            SessionKind::Dns => resolve_timing(net, ep, &self.dns_plans[which], label)
                .map(|r| (r.lookup_ms, r.status)),
            SessionKind::Transfer => panic!("transfer sessions run their own probe"),
        }
    }

    /// Run one `mb`-sized transfer session from endpoint `which`: the RTT
    /// probe to the Google edge, then the transfer's bytes on the
    /// telemetry plane. The drawn size is the session's recorded
    /// observable; no report or record carries a transfer duration, so
    /// none is computed.
    fn transfer(
        &self,
        net: &mut Network,
        which: usize,
        label: &str,
        mb: f64,
    ) -> Result<(f64, MeasureStatus), MeasureError> {
        let target = self.rtt_targets[which].ok_or(MeasureError::NoTarget)?;
        let sample = self.endpoints[which]
            .probe(net, label)
            .rtt_checked(target)?;
        net.telemetry_mut()
            .add(Counter::TransferBytes, (mb * 1e6) as u64);
        Ok((mb, sample.status()))
    }
}

/// One seller's shelf for a destination, preprocessed for the per-leg
/// purchase decision: offers sorted by value (per-GB price, catalogue
/// order breaking ties) so "cheapest plan covering the need" is a short
/// forward scan with no per-leg divisions, plus the precomputed
/// biggest-plan fallback.
struct OfferLane {
    /// `(data_gb, offer index)` sorted ascending by `(per_gb, index)`.
    by_value: Vec<(f64, usize)>,
    /// The biggest plan on the shelf (ties break on catalogue order).
    biggest: Option<usize>,
}

impl OfferLane {
    fn build(offers: &[EsimOffer], idxs: impl Iterator<Item = usize>) -> Self {
        let mut by_value: Vec<(f64, f64, usize)> = idxs
            .map(|i| (offers[i].per_gb(), offers[i].data_gb, i))
            .collect();
        by_value.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
        let biggest = by_value
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.2.cmp(&a.2)))
            .map(|&(_, _, i)| i);
        OfferLane {
            by_value: by_value.into_iter().map(|(_, gb, i)| (gb, i)).collect(),
            biggest,
        }
    }

    /// The cheapest per-GB plan covering `need_gb`, else the biggest plan.
    fn pick(&self, need_gb: f64) -> Option<usize> {
        self.by_value
            .iter()
            .find(|&&(gb, _)| gb >= need_gb)
            .map(|&(_, i)| i)
            .or(self.biggest)
    }
}

/// Offer lanes for one destination, split by seller for the purchase
/// preference draw.
struct CountryOffers {
    airalo: OfferLane,
    all: OfferLane,
}

/// Pick an offer deterministically: prefer Airalo's shelf when the user
/// does (and it can cover the need), then the cheapest per-GB plan that
/// covers the need, falling back to the biggest plan on the shelf. Ties
/// break on catalogue order.
fn choose_offer<'m>(
    offers: &'m [EsimOffer],
    shelf: &CountryOffers,
    prefer_airalo: bool,
    need_gb: f64,
) -> Option<&'m EsimOffer> {
    if prefer_airalo {
        if let Some(i) = shelf.airalo.pick(need_gb) {
            return Some(&offers[i]);
        }
    }
    shelf.all.pick(need_gb).map(|i| &offers[i])
}

/// Everything a run's shards share, built once per run by
/// [`RunInputs::build`]: the seeded world's network after knob set-up
/// and pool attachment, the measured countries, the two-eSIM vantage
/// pool ([`CountrySlot::pool`]), the generated market and its
/// per-country offer shelves. All of it is a pure function of
/// `(seed, knobs)`.
///
/// A shard touches nothing of the world but its network, so the world
/// is dropped after set-up and each shard starts from a clone of the
/// network. The clone shares the set-up topology and the run's route
/// table, so a route any shard finds is found for every later shard of
/// the run, and copies the rest of the state a fresh build plus pool
/// reaches: the set-up telemetry records, the fault plane and the routes
/// the set-up looked up. Finding a route draws no randomness and books
/// no telemetry, so which shard found it first never shows in the bytes.
pub struct RunInputs {
    seed: u64,
    knobs: RunKnobs,
    net: Network,
    countries: Vec<Country>,
    pool: Vec<CountrySlot>,
    market: Market,
    shelves: Vec<CountryOffers>,
}

impl RunInputs {
    /// Build the world for `seed`, set `knobs` on its network, attach
    /// the vantage pool, and generate the market and its shelves.
    #[must_use]
    pub fn build(seed: u64, knobs: RunKnobs) -> Self {
        let mut world = World::build(seed);
        world.net.set_knobs(knobs);
        let countries = world.measured_countries();
        let pool = CountrySlot::pool(&mut world);
        let market = Market::generate(seed);
        let offers = market.offers();
        let shelves = countries
            .iter()
            .map(|&c| {
                let on_shelf: Vec<usize> = (0..offers.len())
                    .filter(|&i| offers[i].country == c)
                    .collect();
                CountryOffers {
                    airalo: OfferLane::build(
                        offers,
                        on_shelf
                            .iter()
                            .copied()
                            .filter(|&i| offers[i].provider == market.airalo()),
                    ),
                    all: OfferLane::build(offers, on_shelf.into_iter()),
                }
            })
            .collect();
        RunInputs {
            seed,
            knobs,
            net: world.net,
            countries,
            pool,
            market,
            shelves,
        }
    }

    /// Panic unless these inputs were built for `seed` under `knobs`: a
    /// shard started from another run's template would emit wrong
    /// bytes, so it must not start at all.
    pub(crate) fn assert_matches(&self, seed: u64, knobs: RunKnobs) {
        assert!(
            self.seed == seed && self.knobs == knobs,
            "run inputs were built for seed {} under {:?}, not seed {seed} under {knobs:?}",
            self.seed,
            self.knobs
        );
    }
}

/// Append `v` in decimal without going through the `fmt` machinery —
/// label derivation is hot enough at population scale that `Display`'s
/// formatter setup shows up in profiles.
fn push_dec(buf: &mut String, mut v: u64) {
    let mut tmp = [0u8; 20];
    let mut i = tmp.len();
    loop {
        i -= 1;
        tmp[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.push_str(std::str::from_utf8(&tmp[i..]).expect("decimal digits are ASCII"));
}

fn draw_kind(rng: &mut SmallRng, mix: SessionMix) -> SessionKind {
    let roll = rng.gen_range(0..mix.total());
    if roll < mix.rtt {
        SessionKind::Rtt
    } else if roll < mix.rtt + mix.dns {
        SessionKind::Dns
    } else {
        SessionKind::Transfer
    }
}

/// Drive one shard through the stack.
///
/// The shard's network is a clone of `inputs`' set-up network, which
/// runs under the knobs the inputs were built with — the run's resolved
/// telemetry mode and fault schedule — and nothing else: no
/// process-global setting reaches it, so concurrent runs in one process
/// stay independent.
///
/// With `spec.resume` set, the shard starts from the same clone as a
/// fresh one, the report and telemetry are restored wholesale from the
/// checkpoint, and the user loop starts at `next_uid` — because every
/// per-user observable derives from the user's own keyed RNG stream,
/// the byte stream from there on is exactly what the uninterrupted run
/// would have produced.
///
/// With `ckpt` set, the shard serializes its partial state to
/// `shard-NNN.ckpt` atomically each time `every_days` sim-days
/// accumulate, always at a user boundary so the report is a clean
/// prefix aggregate.
///
/// With `record_sessions` set, every measurement session additionally
/// lands in the outcome's [`SessionRecord`] buffer (delivered sessions
/// with their metric, failed sessions with status only; `NoTarget` is
/// a scenario gap and stays out, matching the degradation tallies).
pub(crate) fn run_fleet_shard(
    inputs: &RunInputs,
    config: &FleetConfig,
    spec: ShardSpec,
    ckpt: Option<&CheckpointPolicy>,
    record_sessions: bool,
) -> ShardOutcome {
    let started = Instant::now();
    let seed = inputs.seed;
    let RunInputs {
        countries,
        pool,
        market,
        shelves,
        ..
    } = inputs;
    let mut net = inputs.net.clone();
    let country_index = |c: Country| {
        countries
            .iter()
            .position(|&x| x == c)
            .expect("legs only visit measured countries")
    };

    // Resume point: the restored telemetry (which already contains the
    // original run's set-up records) replaces the clone's, never
    // duplicates it.
    let (start_uid, mut report) = match spec.resume {
        Some(state) => {
            debug_assert_eq!(
                state.index, spec.index,
                "resume state routed to wrong shard"
            );
            net.telemetry_mut().restore(state.telemetry);
            (state.next_uid, state.report)
        }
        None => (spec.lo, FleetReport::new(config.sample)),
    };

    // Stage 2: stream the users. No per-record buffering — every
    // observation lands in a sketch, a counter or the reservoir.
    // Checkpoint cadence: sim-days accumulated since the last write.
    // Resets to zero at each write, so a resumed shard naturally starts
    // a fresh accumulation window.
    let mut days_acc: u64 = 0;
    let mut checkpoints_written: u32 = 0;
    let mut completed = true;
    let mut sessions: Vec<SessionRecord> = Vec::new();
    // Reusable label buffer: every per-user / per-session key is built by
    // appending into this one allocation.
    let mut label = String::with_capacity(48);
    for uid in start_uid..spec.hi {
        let profile = synthesize(seed, UserId(uid), countries, config.days);
        label.clear();
        label.push_str("fleet/act/");
        push_dec(&mut label, uid);
        let mut act = SmallRng::seed_from_u64(flow_seed(seed, &label));
        report.count_user(profile.class);
        net.telemetry_mut().add(Counter::FleetUsers, 1);
        let mut spend_micro = 0u128;
        for (li, leg) in profile.legs.iter().enumerate() {
            let ci = country_index(leg.country);
            let slot = &pool[ci];
            let prefer_airalo = act.gen_bool(0.6);
            let offer = choose_offer(
                market.offers(),
                &shelves[ci],
                prefer_airalo,
                profile.need_gb,
            )
            .expect("every measured country has offers");
            let price = market.price_on_day(offer, leg.arrival_day);
            spend_micro += (price * 1e6).round() as u128;
            report.purchases += 1;
            report.price_per_gb.observe(price / offer.data_gb);
            net.telemetry_mut().add(Counter::FleetPurchases, 1);
            let which = (uid % 2) as usize;
            let ep = &slot.endpoints[which];
            // The per-session label only varies in its trailing session
            // index — build the prefix once per leg.
            label.clear();
            label.push_str("fleet/u");
            push_dec(&mut label, uid);
            label.push_str("/l");
            push_dec(&mut label, li as u64);
            label.push_str("/s");
            let prefix_len = label.len();
            for s in 0..leg.sessions {
                report.sessions += 1;
                net.telemetry_mut().add(Counter::FleetSessions, 1);
                label.truncate(prefix_len);
                push_dec(&mut label, u64::from(s));
                let kind = draw_kind(&mut act, config.mix);
                let result = match kind {
                    SessionKind::Transfer => {
                        let mb = match profile.class {
                            TravelerClass::Tourist => act.gen_range(1.0..200.0),
                            TravelerClass::Business => act.gen_range(5.0..500.0),
                            TravelerClass::IotDevice => act.gen_range(0.05..1.0),
                        };
                        slot.transfer(&mut net, which, &label, mb)
                    }
                    _ => slot.measure(&mut net, which, kind, &label),
                };
                match result {
                    Ok((v, _)) => match kind {
                        SessionKind::Rtt => {
                            report.rtt_probes += 1;
                            report.rtt_ms.observe(v);
                        }
                        SessionKind::Dns => {
                            report.dns_lookups += 1;
                            report.dns_ms.observe(v);
                        }
                        SessionKind::Transfer => {
                            report.transfers += 1;
                            report.session_mb.observe(v);
                        }
                    },
                    Err(_) => report.lost_sessions += 1,
                }
                count_outcome(&mut report, &net, &result);
                if record_sessions && !matches!(result, Err(MeasureError::NoTarget)) {
                    sessions.push(SessionRecord::new(ep, kind, &result));
                }
            }
        }
        report.spend_micro_usd += spend_micro;
        label.clear();
        label.push_str("fleet/sample/");
        push_dec(&mut label, uid);
        report.journeys.offer(
            flow_seed(seed, &label),
            uid,
            JourneySample {
                uid,
                class: profile.class.label(),
                legs: profile.legs.len() as u32,
                first: profile.legs[0].country.alpha3(),
                spend_micro_usd: spend_micro,
            },
        );
        if let Some(policy) = ckpt {
            days_acc += u64::from(config.days);
            // Write at the cadence boundary, but not after the final user:
            // the shard's own result supersedes a final checkpoint.
            if days_acc >= policy.every_days && uid + 1 < spec.hi {
                days_acc = 0;
                let state = ShardState {
                    index: spec.index,
                    next_uid: uid + 1,
                    report: report.clone(),
                    telemetry: net.telemetry_mut().snapshot().clone(),
                };
                checkpoint::write_shard(&policy.dir, &state).expect("checkpoint shard write");
                checkpoints_written += 1;
                if policy.halt_after.is_some_and(|n| checkpoints_written >= n) {
                    completed = false;
                    break;
                }
            }
        }
    }
    let snap = net.take_telemetry();
    ShardOutcome {
        index: spec.index,
        report,
        snap,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        completed,
        sessions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roam_econ::Market;
    use roam_measure::{run_shards, RunMode};
    use roam_netsim::FaultSpec;
    use roam_telemetry::TelemetryMode;

    fn spec(index: usize, lo: u64, hi: u64, resume: Option<ShardState>) -> ShardSpec {
        ShardSpec {
            index,
            lo,
            hi,
            resume,
            attempt: 0,
        }
    }

    /// Shards started in parallel from one shared [`RunInputs`] must
    /// equal the same shards each started from inputs built just for
    /// them — report, telemetry and sessions — with the set-up telemetry
    /// recorded, heavy faults on, and one shard resumed mid-range.
    #[test]
    fn shards_on_shared_inputs_match_shards_on_their_own() {
        let seed = 5;
        let config = FleetConfig {
            days: 6,
            ..FleetConfig::default()
        };
        let knobs = RunKnobs {
            telemetry: TelemetryMode::Jsonl,
            faults: FaultSpec::heavy(),
        };
        let run = |inputs: &RunInputs, spec: ShardSpec| {
            run_fleet_shard(inputs, &config, spec, None, true)
        };
        // Shard 2's state after its first 15 users, as a checkpoint
        // would hold it.
        let head = run(&RunInputs::build(seed, knobs), spec(2, 60, 75, None));
        let resume = ShardState {
            index: 2,
            next_uid: 75,
            report: head.report,
            telemetry: head.snap,
        };
        let specs = [
            spec(0, 0, 30, None),
            spec(1, 30, 60, None),
            spec(2, 60, 90, Some(resume)),
        ];
        let alone: Vec<ShardOutcome> = specs
            .iter()
            .map(|s| run(&RunInputs::build(seed, knobs), s.clone()))
            .collect();
        let inputs = RunInputs::build(seed, knobs);
        let shared = run_shards(RunMode::Parallel(3), specs.len(), |i| {
            run(&inputs, specs[i].clone())
        });
        for (a, b) in alone.iter().zip(&shared) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.report, b.report, "shard {}: report", a.index);
            assert_eq!(a.snap, b.snap, "shard {}: telemetry", a.index);
            assert_eq!(a.sessions, b.sessions, "shard {}: sessions", a.index);
            assert!(!a.sessions.is_empty() && !a.snap.events.is_empty());
        }
    }

    /// The pre-lane `choose_offer`, kept as the reference model: filter /
    /// `min_by` / `max_by` straight over the index lists.
    fn reference_choose<'m>(
        offers: &'m [EsimOffer],
        airalo: &[usize],
        all: &[usize],
        prefer_airalo: bool,
        need_gb: f64,
    ) -> Option<&'m EsimOffer> {
        let pick = |idxs: &[usize]| -> Option<usize> {
            let covering = idxs
                .iter()
                .filter(|&&i| offers[i].data_gb >= need_gb)
                .min_by(|&&a, &&b| {
                    offers[a]
                        .per_gb()
                        .total_cmp(&offers[b].per_gb())
                        .then(a.cmp(&b))
                });
            covering
                .or_else(|| {
                    idxs.iter().max_by(|&&a, &&b| {
                        offers[a]
                            .data_gb
                            .total_cmp(&offers[b].data_gb)
                            .then(b.cmp(&a))
                    })
                })
                .copied()
        };
        if prefer_airalo {
            if let Some(i) = pick(airalo) {
                return Some(&offers[i]);
            }
        }
        pick(all).map(|i| &offers[i])
    }

    #[test]
    fn offer_lanes_match_the_reference_scan() {
        let market = Market::generate(42);
        let offers = market.offers();
        for country in roam_geo::Country::MEASURED {
            let all_idx: Vec<usize> = offers
                .iter()
                .enumerate()
                .filter(|(_, o)| o.country == country)
                .map(|(i, _)| i)
                .collect();
            let airalo_idx: Vec<usize> = all_idx
                .iter()
                .copied()
                .filter(|&i| offers[i].provider == market.airalo())
                .collect();
            let shelf = CountryOffers {
                airalo: OfferLane::build(offers, airalo_idx.iter().copied()),
                all: OfferLane::build(offers, all_idx.iter().copied()),
            };
            // Sweep needs across and beyond every shelf size, both
            // preference branches.
            for tenth_gb in 0..400u32 {
                let need = f64::from(tenth_gb) / 10.0;
                for prefer in [false, true] {
                    let fast = choose_offer(offers, &shelf, prefer, need);
                    let slow = reference_choose(offers, &airalo_idx, &all_idx, prefer, need);
                    assert_eq!(
                        fast.map(|o| o as *const _),
                        slow.map(|o| o as *const _),
                        "{country:?} need={need} prefer={prefer}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_lane_yields_no_offer() {
        let market = Market::generate(7);
        let offers = market.offers();
        let shelf = CountryOffers {
            airalo: OfferLane::build(offers, std::iter::empty()),
            all: OfferLane::build(offers, std::iter::empty()),
        };
        assert!(choose_offer(offers, &shelf, true, 1.0).is_none());
        assert!(choose_offer(offers, &shelf, false, 1.0).is_none());
    }
}
