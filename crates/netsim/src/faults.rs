//! The deterministic fault-injection plane.
//!
//! Real measurement campaigns traverse a network that breaks: roaming
//! links flap and lose packets in bursts, breakout gateways go dark and
//! sessions fail over to the next-nearest site, anycast DNS blackholes a
//! region, CG-NATs rebind their pools and silently kill existing flows.
//! This module models all of that as *sim-time interval calendars* derived
//! from the same keyed-RNG universe as every flow ([`flow_seed`]), so a
//! fault window is a pure function of `(master_seed, entity, spec)` —
//! never of execution order, shard layout or worker count. That is what
//! keeps campaign and fleet reports byte-identical across `ROAM_PARALLEL`
//! × `ROAM_FLEET_SHARDS` × `ROAM_FLEET_WORKERS` while the plane is active.
//!
//! Faults come in four kinds:
//!
//! * **Link flaps** — a deterministic subset of links carries a
//!   [`GilbertElliott`] burst-loss process: alternating good/bad dwell
//!   windows; during a bad window the link's loss rate jumps to the burst
//!   value. The stationary bad-state share is `mean_bad/(mean_good +
//!   mean_bad)` — pinned by a proptest.
//! * **Gateway outages** — a subset of CG-NAT (breakout) nodes has dark
//!   windows. A packet hitting a dark gateway *fails over* when the
//!   session layer registered a detour (see
//!   [`Network::set_failover`](crate::Network::set_failover)): it pays the
//!   detour delay to the next-nearest site instead of dying. Without a
//!   registered failover the packet is dropped.
//! * **DNS anycast blackholes** — a subset of resolver nodes has dark
//!   windows during which they drop everything (the anycast catchment
//!   moved; this site serves nobody).
//! * **CG-NAT rebinds** — short dark windows on CG-NATs during which the
//!   translation state is gone; in-flight packets are dropped regardless
//!   of failover (the new gateway has no binding either).
//!
//! Each packet walk samples the calendars at `phase + t`, where the phase
//! is drawn once per walk from the flow's own RNG stream — so two flows
//! see different fault alignments, retries (which re-draw the phase) can
//! escape a window, and everything stays a function of flow identity.
//!
//! A [`Network`](crate::Network) starts from
//! `ROAM_FAULTS=off|light|heavy|<spec>` (see [`FaultSpec::parse`] and
//! [`FaultSpec::current`]); a runner that resolved its own spec hands it
//! over with [`Network::set_faults`](crate::Network::set_faults) or as
//! part of its [`RunKnobs`](crate::RunKnobs).

use crate::engine::flow_seed;
use crate::time::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::Write as _;
use std::sync::Mutex;

/// A two-state Gilbert–Elliott burst-loss process, parameterised by the
/// mean dwell time in each state and the per-packet loss rate while the
/// state holds. Realised as a deterministic calendar of alternating
/// good/bad windows (exponential dwells drawn from a keyed seed) rather
/// than a per-packet Markov step, so every shard and every retry
/// observes the *same* windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Mean dwell time in the good state, ms.
    pub mean_good_ms: f64,
    /// Mean dwell time in the bad (burst) state, ms.
    pub mean_bad_ms: f64,
    /// Loss probability while in the good state.
    pub good_loss: f64,
    /// Loss probability while in the bad state (the burst).
    pub bad_loss: f64,
}

impl GilbertElliott {
    /// Stationary probability of being in the bad state:
    /// `mean_bad / (mean_good + mean_bad)` — the continuous-dwell analogue
    /// of the classic `p/(p+r)`.
    #[must_use]
    pub fn stationary_bad(&self) -> f64 {
        self.mean_bad_ms / (self.mean_good_ms + self.mean_bad_ms)
    }

    /// Long-run packet loss rate:
    /// `π_bad·bad_loss + (1-π_bad)·good_loss`.
    #[must_use]
    pub fn stationary_loss(&self) -> f64 {
        let pb = self.stationary_bad();
        pb * self.bad_loss + (1.0 - pb) * self.good_loss
    }

    /// Realise the process as a cyclic calendar of bad windows over
    /// `period_ms`, deterministically from `seed`.
    #[must_use]
    pub fn calendar(&self, seed: u64, period_ms: f64) -> FaultCalendar {
        FaultCalendar::dwell(seed, period_ms, self.mean_good_ms, self.mean_bad_ms)
    }
}

/// A cyclic schedule of "bad" sim-time windows for one fault entity.
/// Queries wrap modulo the period, so a calendar covers arbitrarily long
/// runs with a bounded window list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultCalendar {
    period_ns: u64,
    /// Half-open `[start, end)` bad intervals in ns, sorted, within the
    /// period.
    bad: Vec<(u64, u64)>,
}

impl FaultCalendar {
    /// Build a calendar of alternating up/dark windows with exponential
    /// dwell times (means in ms), purely from `seed`.
    #[must_use]
    pub fn dwell(seed: u64, period_ms: f64, mean_up_ms: f64, mean_dark_ms: f64) -> Self {
        let period_ns = SimTime::from_ms(period_ms).as_nanos().max(1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut bad = Vec::new();
        // Random initial offset into the up/dark cycle so entity
        // calendars are phase-decorrelated even with equal dwell means.
        let mut t = SimTime::from_ms(exp_draw(&mut rng, mean_up_ms)).as_nanos();
        while t < period_ns {
            let dark = SimTime::from_ms(exp_draw(&mut rng, mean_dark_ms)).as_nanos();
            let end = (t + dark).min(period_ns);
            if end > t {
                bad.push((t, end));
            }
            let up = SimTime::from_ms(exp_draw(&mut rng, mean_up_ms)).as_nanos();
            t = end + up;
        }
        FaultCalendar { period_ns, bad }
    }

    /// Is the entity in a bad/dark window at `at` (cyclic)?
    #[must_use]
    pub fn is_bad(&self, at: SimTime) -> bool {
        let t = at.as_nanos() % self.period_ns;
        // The windows are sorted and disjoint, so their ends ascend: the
        // first window ending after `t` is the only one that can hold it.
        // A heavy flap calendar has ~19 windows and most queries miss, so
        // a binary search reads ~5 of them where a scan read all.
        let i = self.bad.partition_point(|&(_, e)| e <= t);
        self.bad.get(i).is_some_and(|&(s, _)| s <= t)
    }

    /// Fraction of the period covered by bad windows.
    #[must_use]
    pub fn bad_fraction(&self) -> f64 {
        let dark: u64 = self.bad.iter().map(|&(s, e)| e - s).sum();
        dark as f64 / self.period_ns as f64
    }

    /// The bad windows, `[start, end)` in ns within the period.
    #[must_use]
    pub fn windows(&self) -> &[(u64, u64)] {
        &self.bad
    }
}

/// Exponential draw with the given mean (ms). A zero/negative mean pins
/// the draw to zero.
fn exp_draw(rng: &mut SmallRng, mean_ms: f64) -> f64 {
    if mean_ms <= 0.0 {
        return 0.0;
    }
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -mean_ms * u.ln()
}

/// The fault schedule configuration: which fraction of each entity class
/// is fault-prone and the dwell structure of the windows. All fields are
/// plain numbers so a spec is `Copy`, comparable and printable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Fraction of links carrying a Gilbert–Elliott flap process.
    pub link_flap_rate: f64,
    /// Burst (bad-state) loss probability on flapping links.
    pub flap_bad_loss: f64,
    /// Mean good-state dwell on flapping links, ms.
    pub flap_good_ms: f64,
    /// Mean bad-state dwell on flapping links, ms.
    pub flap_bad_ms: f64,
    /// Fraction of breakout gateways (CG-NATs) with outage windows.
    pub gateway_outage_rate: f64,
    /// Mean up time between gateway outages, ms.
    pub outage_up_ms: f64,
    /// Mean dark time per gateway outage, ms.
    pub outage_dark_ms: f64,
    /// Fraction of DNS resolvers with anycast-blackhole windows.
    pub dns_blackhole_rate: f64,
    /// Fraction of CG-NATs with rebinding windows (short, kill in-flight
    /// packets, no failover possible).
    pub cgnat_rebind_rate: f64,
    /// Mean up time between rebinds, ms.
    pub rebind_up_ms: f64,
    /// Mean rebind-window length, ms.
    pub rebind_dark_ms: f64,
    /// Cyclic calendar period, ms. Walks sample `phase + t` modulo this.
    pub period_ms: f64,
}

impl FaultSpec {
    /// The disabled plane: no entity is fault-prone, nothing is drawn,
    /// every hot path short-circuits — byte- and draw-identical to a
    /// build without the fault plane.
    #[must_use]
    pub fn off() -> Self {
        FaultSpec {
            link_flap_rate: 0.0,
            flap_bad_loss: 0.0,
            gateway_outage_rate: 0.0,
            dns_blackhole_rate: 0.0,
            cgnat_rebind_rate: 0.0,
            ..FaultSpec::heavy()
        }
    }

    /// Occasional trouble: a few flapping links and rare outages — the
    /// level a healthy production ecosystem shows.
    #[must_use]
    pub fn light() -> Self {
        FaultSpec {
            link_flap_rate: 0.08,
            flap_bad_loss: 0.35,
            gateway_outage_rate: 0.05,
            dns_blackhole_rate: 0.03,
            cgnat_rebind_rate: 0.05,
            ..FaultSpec::heavy()
        }
    }

    /// A hostile network: a third of the links flap with heavy burst
    /// loss, a quarter of the gateways take outages, resolvers blackhole,
    /// CG-NATs rebind. Campaigns must *complete* under this, degraded.
    #[must_use]
    pub fn heavy() -> Self {
        FaultSpec {
            link_flap_rate: 0.35,
            flap_bad_loss: 0.75,
            flap_good_ms: 400.0,
            flap_bad_ms: 130.0,
            gateway_outage_rate: 0.25,
            outage_up_ms: 2400.0,
            outage_dark_ms: 800.0,
            dns_blackhole_rate: 0.20,
            cgnat_rebind_rate: 0.30,
            rebind_up_ms: 1800.0,
            rebind_dark_ms: 250.0,
            period_ms: 10_000.0,
        }
    }

    /// Is any fault kind active?
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.link_flap_rate > 0.0
            || self.gateway_outage_rate > 0.0
            || self.dns_blackhole_rate > 0.0
            || self.cgnat_rebind_rate > 0.0
    }

    /// The calendar period in nanoseconds (≥ 1).
    #[must_use]
    pub fn period_ns(&self) -> u64 {
        SimTime::from_ms(self.period_ms).as_nanos().max(1)
    }

    /// Parse a spec: `off` or empty disable the plane, `light` and
    /// `heavy` select the presets, anything else is comma-separated
    /// `key=value` pairs over a base of [`FaultSpec::off`]. Keys: `flap`,
    /// `burst`, `flap_good_ms`, `flap_bad_ms`, `outage`, `outage_up_ms`,
    /// `outage_dark_ms`, `dns`, `rebind`, `rebind_up_ms`, `rebind_dark_ms`,
    /// `period_ms`. `None` when a key is unknown or a value is not a
    /// finite number in range.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim() {
            "off" => return Some(FaultSpec::off()),
            "light" => return Some(FaultSpec::light()),
            "heavy" => return Some(FaultSpec::heavy()),
            _ => {}
        }
        let mut spec = FaultSpec::off();
        for pair in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = pair.split_once('=')?;
            let v: f64 = value.trim().parse().ok()?;
            if !v.is_finite() || v < 0.0 {
                return None;
            }
            let rate_ok = (0.0..=1.0).contains(&v);
            match key.trim() {
                "flap" if rate_ok => spec.link_flap_rate = v,
                "burst" if rate_ok => spec.flap_bad_loss = v,
                "outage" if rate_ok => spec.gateway_outage_rate = v,
                "dns" if rate_ok => spec.dns_blackhole_rate = v,
                "rebind" if rate_ok => spec.cgnat_rebind_rate = v,
                "flap_good_ms" => spec.flap_good_ms = v,
                "flap_bad_ms" => spec.flap_bad_ms = v,
                "outage_up_ms" => spec.outage_up_ms = v,
                "outage_dark_ms" => spec.outage_dark_ms = v,
                "rebind_up_ms" => spec.rebind_up_ms = v,
                "rebind_dark_ms" => spec.rebind_dark_ms = v,
                "period_ms" if v > 0.0 => spec.period_ms = v,
                _ => return None,
            }
        }
        Some(spec)
    }

    /// Read the spec from `ROAM_FAULTS` (see [`FaultSpec::parse`]; unset
    /// disables the plane).
    ///
    /// # Panics
    /// On an unparseable spec — a misspelt knob should fail loudly at
    /// startup, not silently run the happy path.
    #[must_use]
    pub fn from_env() -> Self {
        std::env::var("ROAM_FAULTS").map_or(FaultSpec::off(), |v| {
            FaultSpec::parse(&v)
                .unwrap_or_else(|| panic!("ROAM_FAULTS: unparseable spec {:?}", v.trim()))
        })
    }

    /// Install (or clear, with `None`) a process-wide override that
    /// [`FaultSpec::current`] — and so every new network's default —
    /// prefers over `ROAM_FAULTS`. Returns the previous override so the
    /// caller can restore it. No runner installs one: runners hand their
    /// spec to each network they build. It remains for harnesses that
    /// build worlds themselves and want a spec other than the
    /// environment's.
    pub fn override_faults(spec: Option<FaultSpec>) -> Option<FaultSpec> {
        let mut slot = FAULTS_OVERRIDE.lock().expect("faults override poisoned");
        std::mem::replace(&mut slot, spec)
    }

    /// The default spec a new network starts from: the process-wide
    /// override if one is installed, otherwise whatever `ROAM_FAULTS`
    /// says.
    #[must_use]
    pub fn current() -> Self {
        let slot = FAULTS_OVERRIDE.lock().expect("faults override poisoned");
        slot.unwrap_or_else(FaultSpec::from_env)
    }
}

/// `Some(spec)` = override installed, `None` = follow the environment.
static FAULTS_OVERRIDE: Mutex<Option<FaultSpec>> = Mutex::new(None);

/// What a node's fault state means for a packet arriving there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeFaultState {
    /// Business as usual.
    Up,
    /// Dark gateway with a registered failover: the packet detours to the
    /// next-nearest site, paying this extra one-way delay.
    Failover(SimTime),
    /// Dark with no way around: the packet dies here.
    Dark,
}

/// One entity's calendar slot: `None` until first asked for, then
/// `Some(None)` when the entity is healthy or `Some(Some(calendar))`.
type CalendarSlot = Option<Option<FaultCalendar>>;

/// Per-network fault state: the spec, lazily materialised calendars for
/// every fault-prone entity, registered failover detours and the plane's
/// own deterministic counters (kept outside the telemetry plane so
/// clients can observe failovers even with telemetry off).
///
/// Every per-entity table is a dense `Vec` indexed by link or node id,
/// grown on demand to `id + 1`: the walk asks one to three of them per
/// hop, and an index is cheaper than a hash. A table is as long as the
/// largest id asked of it, which for a network's own links and nodes is
/// at most the network's size.
#[derive(Debug, Clone)]
pub struct FaultPlane {
    spec: FaultSpec,
    enabled: bool,
    /// Link index → flap calendar (`Some(None)` = link does not flap).
    link_cal: Vec<CalendarSlot>,
    /// Node index → outage calendar (CG-NATs; `Some(None)` = no outages).
    outage_cal: Vec<CalendarSlot>,
    /// Node index → blackhole calendar (resolvers; `Some(None)` =
    /// healthy).
    dns_cal: Vec<CalendarSlot>,
    /// Node index → rebind calendar (CG-NATs; `Some(None)` = stable
    /// pool).
    rebind_cal: Vec<CalendarSlot>,
    /// Node index → failover detour delay, registered by the session
    /// layer at attach time (next-nearest breakout site).
    failover: Vec<Option<SimTime>>,
    /// Packets killed by a fault (dark node or rebind window).
    drops: u64,
    /// Packets that took a registered failover detour.
    failovers: u64,
}

impl FaultPlane {
    /// A plane for the given spec.
    #[must_use]
    pub fn new(spec: FaultSpec) -> Self {
        FaultPlane {
            spec,
            enabled: spec.enabled(),
            link_cal: Vec::new(),
            outage_cal: Vec::new(),
            dns_cal: Vec::new(),
            rebind_cal: Vec::new(),
            failover: Vec::new(),
            drops: 0,
            failovers: 0,
        }
    }

    /// Is the plane active? The walk hot path checks this one bool and
    /// pays nothing else when it is false.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The spec this plane runs.
    #[must_use]
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Swap in a new spec. Calendars are rebuilt lazily; counters and
    /// registered failovers survive (they are topology facts).
    pub(crate) fn set_spec(&mut self, spec: FaultSpec) {
        self.spec = spec;
        self.enabled = spec.enabled();
        self.link_cal.clear();
        self.outage_cal.clear();
        self.dns_cal.clear();
        self.rebind_cal.clear();
    }

    /// Register the failover detour for a gateway node: the extra one-way
    /// delay a packet pays when the gateway is dark but the session can
    /// break out at the next-nearest site.
    pub fn set_failover(&mut self, node: u32, detour: SimTime) {
        *slot(&mut self.failover, node) = Some(detour);
    }

    /// Total fault-killed packets so far.
    #[must_use]
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Total failover detours taken so far.
    #[must_use]
    pub(crate) fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Effective loss on link `li` at cyclic time `at`: the burst loss
    /// when the link flaps and is in a bad window, otherwise `None`
    /// (caller keeps the link's base loss).
    pub fn link_burst_loss(&mut self, master: u64, li: u32, at: SimTime) -> Option<f64> {
        let spec = self.spec;
        let cal = slot(&mut self.link_cal, li).get_or_insert_with(|| {
            entity_calendar(
                master,
                "fault/flap",
                li,
                spec.link_flap_rate,
                spec.period_ms,
                spec.flap_good_ms,
                spec.flap_bad_ms,
            )
        });
        match cal {
            Some(c) if c.is_bad(at) => Some(spec.flap_bad_loss),
            _ => None,
        }
    }

    /// Fault state of a CG-NAT node at cyclic time `at`, and count the
    /// consequence. Rebind darkness kills the packet even when a failover
    /// is registered — the next-nearest gateway holds no binding for an
    /// in-flight flow either.
    pub fn cgnat_state(&mut self, master: u64, node: u32, at: SimTime) -> NodeFaultState {
        let spec = self.spec;
        let rebinding = slot(&mut self.rebind_cal, node)
            .get_or_insert_with(|| {
                entity_calendar(
                    master,
                    "fault/rebind",
                    node,
                    spec.cgnat_rebind_rate,
                    spec.period_ms,
                    spec.rebind_up_ms,
                    spec.rebind_dark_ms,
                )
            })
            .as_ref()
            .is_some_and(|c| c.is_bad(at));
        if rebinding {
            self.drops += 1;
            return NodeFaultState::Dark;
        }
        let dark = slot(&mut self.outage_cal, node)
            .get_or_insert_with(|| {
                entity_calendar(
                    master,
                    "fault/outage",
                    node,
                    spec.gateway_outage_rate,
                    spec.period_ms,
                    spec.outage_up_ms,
                    spec.outage_dark_ms,
                )
            })
            .as_ref()
            .is_some_and(|c| c.is_bad(at));
        if !dark {
            return NodeFaultState::Up;
        }
        match self.failover.get(node as usize).copied().flatten() {
            Some(detour) => {
                self.failovers += 1;
                NodeFaultState::Failover(detour)
            }
            None => {
                self.drops += 1;
                NodeFaultState::Dark
            }
        }
    }

    /// Is a resolver node blackholed at cyclic time `at`? Counts the drop.
    pub fn dns_dark(&mut self, master: u64, node: u32, at: SimTime) -> bool {
        let spec = self.spec;
        let dark = slot(&mut self.dns_cal, node)
            .get_or_insert_with(|| {
                entity_calendar(
                    master,
                    "fault/dns",
                    node,
                    spec.dns_blackhole_rate,
                    spec.period_ms,
                    spec.outage_up_ms,
                    spec.outage_dark_ms,
                )
            })
            .as_ref()
            .is_some_and(|c| c.is_bad(at));
        if dark {
            self.drops += 1;
        }
        dark
    }
}

/// Entry `id` of a dense per-entity table, growing the table to `id + 1`
/// slots (all `None`) when it is shorter.
fn slot<T>(table: &mut Vec<Option<T>>, id: u32) -> &mut Option<T> {
    let i = id as usize;
    if i >= table.len() {
        table.resize_with(i + 1, || None);
    }
    &mut table[i]
}

/// Build (or decline to build) the calendar for one entity. Membership and
/// windows both come from `flow_seed(master, "<kind>/<index>")`, so the
/// answer is a pure function of identity — lazy fill order is irrelevant.
fn entity_calendar(
    master: u64,
    kind: &str,
    index: u32,
    rate: f64,
    period_ms: f64,
    mean_up_ms: f64,
    mean_dark_ms: f64,
) -> Option<FaultCalendar> {
    if rate <= 0.0 {
        return None;
    }
    // The label is built on the stack: the longest kind (12 bytes), a
    // slash and a 10-digit index fit with room to spare.
    let mut label = [0u8; 40];
    let mut rest = &mut label[..];
    write!(rest, "{kind}/{index}").expect("entity label fits its buffer");
    let unused = rest.len();
    let len = label.len() - unused;
    let key = std::str::from_utf8(&label[..len]).expect("entity label is UTF-8");
    let seed = flow_seed(master, key);
    let mut rng = SmallRng::seed_from_u64(seed);
    if !rng.gen_bool(rate.min(1.0)) {
        return None;
    }
    Some(FaultCalendar::dwell(
        rng.gen::<u64>(),
        period_ms,
        mean_up_ms,
        mean_dark_ms,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_and_enabled() {
        assert!(!FaultSpec::off().enabled());
        assert!(FaultSpec::light().enabled());
        assert!(FaultSpec::heavy().enabled());
        assert!(FaultSpec::heavy().link_flap_rate > FaultSpec::light().link_flap_rate);
    }

    #[test]
    fn parse_accepts_known_keys_and_rejects_junk() {
        let s = FaultSpec::parse("flap=0.2, burst=0.9,outage=0.1,period_ms=500").unwrap();
        assert_eq!(s.link_flap_rate, 0.2);
        assert_eq!(s.flap_bad_loss, 0.9);
        assert_eq!(s.gateway_outage_rate, 0.1);
        assert_eq!(s.period_ms, 500.0);
        assert!(s.enabled());
        assert_eq!(s.dns_blackhole_rate, 0.0, "unset keys stay off");
        assert!(FaultSpec::parse("flap=1.5").is_none(), "rate > 1");
        assert!(FaultSpec::parse("warp=0.5").is_none(), "unknown key");
        assert!(FaultSpec::parse("flap=x").is_none(), "non-numeric");
        assert!(FaultSpec::parse("flap").is_none(), "missing value");
        assert!(FaultSpec::parse("period_ms=0").is_none(), "zero period");
    }

    #[test]
    fn parse_selects_presets_and_custom_specs() {
        assert_eq!(FaultSpec::parse(""), Some(FaultSpec::off()));
        assert_eq!(FaultSpec::parse("off"), Some(FaultSpec::off()));
        assert_eq!(FaultSpec::parse(" light "), Some(FaultSpec::light()));
        assert_eq!(FaultSpec::parse("heavy\n"), Some(FaultSpec::heavy()));
        let custom = FaultSpec::parse("flap=0.4,burst=0.8").unwrap();
        assert_eq!(custom.link_flap_rate, 0.4);
        assert!(
            FaultSpec::parse("heavy,flap=0.1").is_none(),
            "preset plus keys"
        );
    }

    #[test]
    fn override_beats_env_while_installed() {
        // Pin disabled specs only: every `Network::new` in this test
        // binary reads the override, and a disabled spec cannot change
        // what a concurrent test's network does.
        let quiet = |period_ms| FaultSpec {
            period_ms,
            ..FaultSpec::off()
        };
        let prev = FaultSpec::override_faults(Some(quiet(500.0)));
        assert_eq!(FaultSpec::current(), quiet(500.0));
        let inner = FaultSpec::override_faults(Some(quiet(700.0)));
        assert_eq!(inner, Some(quiet(500.0)));
        assert_eq!(FaultSpec::current(), quiet(700.0));
        assert!(!FaultSpec::current().enabled());
        FaultSpec::override_faults(prev);
    }

    #[test]
    fn stationary_distribution_is_dwell_ratio() {
        let ge = GilbertElliott {
            mean_good_ms: 300.0,
            mean_bad_ms: 100.0,
            good_loss: 0.0,
            bad_loss: 0.8,
        };
        assert!((ge.stationary_bad() - 0.25).abs() < 1e-12);
        assert!((ge.stationary_loss() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn calendar_is_deterministic_and_cyclic() {
        let a = FaultCalendar::dwell(42, 1000.0, 200.0, 100.0);
        let b = FaultCalendar::dwell(42, 1000.0, 200.0, 100.0);
        assert_eq!(a, b);
        assert_ne!(a, FaultCalendar::dwell(43, 1000.0, 200.0, 100.0));
        // Cyclic: t and t + period agree everywhere.
        for ms in (0..1000).step_by(7) {
            let t = SimTime::from_ms(ms as f64);
            let t2 = SimTime::from_ms(ms as f64 + 1000.0);
            assert_eq!(a.is_bad(t), a.is_bad(t2), "at {ms} ms");
        }
        assert!(a.bad_fraction() > 0.0 && a.bad_fraction() < 1.0);
    }

    #[test]
    fn calendar_bad_fraction_tracks_dwell_means() {
        // Average over many entity calendars: the dark share converges to
        // mean_dark / (mean_up + mean_dark) = 1/3.
        let mut total = 0.0;
        let n = 200;
        for seed in 0..n {
            total += FaultCalendar::dwell(seed, 20_000.0, 200.0, 100.0).bad_fraction();
        }
        let avg = total / f64::from(n as u32);
        assert!((avg - 1.0 / 3.0).abs() < 0.05, "avg dark share {avg}");
    }

    #[test]
    fn entity_membership_follows_rate() {
        let spec = FaultSpec::heavy();
        let mut flapping = 0;
        for li in 0..1000u32 {
            if entity_calendar(
                7,
                "fault/flap",
                li,
                spec.link_flap_rate,
                spec.period_ms,
                spec.flap_good_ms,
                spec.flap_bad_ms,
            )
            .is_some()
            {
                flapping += 1;
            }
        }
        // 35% of 1000, generous tolerance.
        assert!((250..=450).contains(&flapping), "{flapping} links flap");
        // Zero rate: nobody.
        assert!(entity_calendar(7, "fault/flap", 3, 0.0, 1e4, 1.0, 1.0).is_none());
    }

    #[test]
    fn plane_counts_drops_and_failovers() {
        let mut plane = FaultPlane::new(FaultSpec {
            gateway_outage_rate: 1.0,
            outage_up_ms: 0.001,
            outage_dark_ms: 1e9,
            ..FaultSpec::off()
        });
        assert!(plane.enabled());
        // Without a registered failover: dark means dropped.
        let t = SimTime::from_ms(50.0);
        assert_eq!(plane.cgnat_state(1, 9, t), NodeFaultState::Dark);
        assert_eq!(plane.drops(), 1);
        // With one: the packet detours instead.
        plane.set_failover(9, SimTime::from_ms(12.0));
        assert_eq!(
            plane.cgnat_state(1, 9, t),
            NodeFaultState::Failover(SimTime::from_ms(12.0))
        );
        assert_eq!(plane.failovers(), 1);
    }

    #[test]
    fn off_plane_is_inert() {
        let mut plane = FaultPlane::new(FaultSpec::off());
        assert!(!plane.enabled());
        let t = SimTime::from_ms(1.0);
        assert_eq!(plane.link_burst_loss(1, 0, t), None);
        assert_eq!(plane.cgnat_state(1, 0, t), NodeFaultState::Up);
        assert!(!plane.dns_dark(1, 0, t));
        assert_eq!(plane.drops(), 0);
    }
}
