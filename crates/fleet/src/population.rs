//! Deterministic subscriber synthesis.
//!
//! Each user is a pure function of `(master seed, user id)`: the profile
//! is drawn from an RNG stream seeded with
//! `flow_seed(master, "fleet/user/<id>")`, the same derivation the
//! measurement flows use. No user ever touches another user's stream, so
//! any partition of the id range synthesizes exactly the same population —
//! the first half of the fleet determinism contract.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use roam_geo::Country;
use roam_netsim::engine::flow_seed;

/// A subscriber's stable identity within a fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub u64);

/// The traveller archetypes the related work observes at population scale:
/// leisure roamers, frequent business travellers, and the stationary
/// cellular-IoT fleet of "Where Things Roam".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TravelerClass {
    /// Leisure trip: 1–2 destinations, casual data needs.
    Tourist,
    /// Frequent flyer: 2–4 destinations, heavier data needs.
    Business,
    /// Deployed device: one destination, tiny but chatty sessions.
    IotDevice,
}

impl TravelerClass {
    /// Stable label used in report rows.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TravelerClass::Tourist => "tourist",
            TravelerClass::Business => "business",
            TravelerClass::IotDevice => "iot",
        }
    }
}

/// One leg of an itinerary: a destination and how long the user stays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Leg {
    /// Destination country (always one of the measured set, so every leg
    /// has a calibrated arrangement to attach through).
    pub country: Country,
    /// Day (within the run's window) the user lands and buys a plan.
    pub arrival_day: u32,
    /// Data sessions the user churns through on this leg.
    pub sessions: u32,
}

/// A fully-synthesized subscriber: identity, class, data appetite and
/// itinerary.
#[derive(Debug, Clone, PartialEq)]
pub struct UserProfile {
    /// Identity.
    pub id: UserId,
    /// Traveller archetype.
    pub class: TravelerClass,
    /// Data the user wants covered per leg, GB (drives offer selection).
    pub need_gb: f64,
    /// The itinerary, in travel order.
    pub legs: Vec<Leg>,
}

/// The per-user RNG stream: everything about user `id` is drawn from here
/// and nowhere else.
#[must_use]
pub(crate) fn user_rng(master: u64, id: UserId) -> SmallRng {
    // The key is `fleet/user/<id>`; building it on the stack without the
    // `fmt` machinery matters when this runs once per synthesized user.
    const PREFIX: &[u8] = b"fleet/user/";
    let mut buf = [0u8; PREFIX.len() + 20];
    buf[..PREFIX.len()].copy_from_slice(PREFIX);
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    let mut v = id.0;
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    let n = digits.len() - i;
    buf[PREFIX.len()..PREFIX.len() + n].copy_from_slice(&digits[i..]);
    let key = std::str::from_utf8(&buf[..PREFIX.len() + n]).expect("decimal digits are ASCII");
    SmallRng::seed_from_u64(flow_seed(master, key))
}

/// Draw a destination: rank-weighted over `countries` with weight
/// `1/(1+rank)`, a Zipf-flavoured skew — a few hotspot destinations carry
/// most of the fleet, the tail stays populated.
fn draw_destination(rng: &mut SmallRng, countries: &[Country]) -> Country {
    let total: f64 = (0..countries.len()).map(|r| 1.0 / (1 + r) as f64).sum();
    let mut roll = rng.gen_range(0.0..total);
    for (rank, &c) in countries.iter().enumerate() {
        roll -= 1.0 / (1 + rank) as f64;
        if roll <= 0.0 {
            return c;
        }
    }
    countries[countries.len() - 1]
}

/// Synthesize user `id` against the measured-country list (the possible
/// destinations) and the run's day window.
#[must_use]
pub fn synthesize(master: u64, id: UserId, countries: &[Country], days: u32) -> UserProfile {
    assert!(!countries.is_empty(), "no destinations to travel to");
    let mut rng = user_rng(master, id);
    let class = match rng.gen_range(0u32..100) {
        0..=69 => TravelerClass::Tourist,
        70..=94 => TravelerClass::Business,
        _ => TravelerClass::IotDevice,
    };
    let (leg_range, sessions_range, need_gb) = match class {
        TravelerClass::Tourist => (1..=2u32, 2..=4u32, rng.gen_range(1.0..8.0)),
        TravelerClass::Business => (2..=4u32, 3..=6u32, rng.gen_range(3.0..20.0)),
        // IoT: one deployment, many tiny sessions, sub-GB appetite.
        TravelerClass::IotDevice => (1..=1u32, 6..=10u32, rng.gen_range(0.05..0.5)),
    };
    let leg_count = rng.gen_range(leg_range);
    let mut day = rng.gen_range(0..days.max(1));
    let mut legs = Vec::with_capacity(leg_count as usize);
    for _ in 0..leg_count {
        let country = draw_destination(&mut rng, countries);
        let sessions = rng.gen_range(sessions_range.clone());
        legs.push(Leg {
            country,
            arrival_day: day,
            sessions,
        });
        // Next leg starts after a stay of 1–14 days, wrapped into the
        // window so every price lookup stays inside the run's calendar.
        day = (day + rng.gen_range(1..=14)) % days.max(1);
    }
    UserProfile {
        id,
        class,
        need_gb,
        legs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn countries() -> Vec<Country> {
        Country::MEASURED.to_vec()
    }

    #[test]
    fn synthesis_is_a_pure_function_of_seed_and_id() {
        let cs = countries();
        let a = synthesize(42, UserId(7), &cs, 60);
        let b = synthesize(42, UserId(7), &cs, 60);
        assert_eq!(a, b);
        // Different users get different streams…
        let c = synthesize(42, UserId(8), &cs, 60);
        assert_ne!(a, c);
        // …and different masters reshuffle everyone.
        let d = synthesize(43, UserId(7), &cs, 60);
        assert_ne!(a, d);
    }

    #[test]
    fn classes_follow_the_70_25_5_split() {
        let cs = countries();
        let mut counts = [0u32; 3];
        for id in 0..4000 {
            let p = synthesize(1, UserId(id), &cs, 60);
            counts[match p.class {
                TravelerClass::Tourist => 0,
                TravelerClass::Business => 1,
                TravelerClass::IotDevice => 2,
            }] += 1;
        }
        let frac = |n: u32| f64::from(n) / 4000.0;
        assert!((frac(counts[0]) - 0.70).abs() < 0.05, "tourists {counts:?}");
        assert!((frac(counts[1]) - 0.25).abs() < 0.05, "business {counts:?}");
        assert!((frac(counts[2]) - 0.05).abs() < 0.03, "iot {counts:?}");
    }

    #[test]
    fn itineraries_stay_inside_the_window_and_destination_set() {
        let cs = countries();
        for id in 0..500 {
            let p = synthesize(9, UserId(id), &cs, 30);
            assert!(!p.legs.is_empty());
            assert!(p.legs.len() <= 4);
            for leg in &p.legs {
                assert!(leg.arrival_day < 30);
                assert!(cs.contains(&leg.country));
                assert!(leg.sessions >= 1);
            }
            assert!(p.need_gb > 0.0);
        }
    }

    #[test]
    fn destinations_are_rank_skewed() {
        let cs = countries();
        let mut first = 0u32;
        let n = 3000u32;
        for id in 0..n {
            let p = synthesize(5, UserId(u64::from(id)), &cs, 60);
            first += u32::from(p.legs[0].country == cs[0]);
        }
        // Rank-0 weight is 1/H(24) ≈ 26% of draws; uniform would be ~4%.
        let frac = f64::from(first) / f64::from(n);
        assert!(frac > 0.15, "rank-0 destination underrepresented: {frac}");
    }
}
