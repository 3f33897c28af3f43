//! Links and their latency model.
//!
//! Each link's one-way delay decomposes exactly the way wide-area latency
//! does in the paper's analysis:
//!
//! ```text
//! delay = distance/c_fiber × circuitousness + processing + U(0, jitter)
//! ```
//!
//! *Circuitousness* captures how far real routes deviate from the great
//! circle. The paper finds (§4.3 takeaway) that breakout latency "is largely
//! driven by peering agreements … rather than physical distance or internal
//! routing" — in this model that is precisely the spread of circuitousness
//! values across link classes: a well-peered public path hugs the geodesic
//! (~1.3×), a poorly-peered IPX leg wanders (~2.6×).

use crate::time::SimTime;
use rand::rngs::SmallRng;
use rand::Rng;
use roam_geo::{fiber_delay_ms, GeoPoint};

/// What kind of infrastructure a link is — determines its default
/// circuitousness, processing delay and jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// The cellular air interface plus backhaul into the core.
    RadioAccess,
    /// Short-haul links inside one metro/core site (PGW→CG-NAT, etc.).
    Metro,
    /// Public-internet backbone between cities (well peered).
    Backbone,
    /// A leg across the private IPX backbone: geographically circuitous,
    /// with quality depending on the peering agreement.
    IpxBackbone,
    /// A GTP tunnel modelled as a single virtual hop (tunnels are opaque to
    /// TTL — the reason the paper can use private/public demarcation).
    Tunnel,
    /// Direct peering between a PGW provider and a service provider edge
    /// (§4.3.3: "PGW providers generally have direct peering arrangements
    /// with global SPs").
    Peering,
}

impl LinkClass {
    /// Default circuitousness multiplier applied to the geodesic distance.
    #[must_use]
    pub fn circuitousness(self) -> f64 {
        match self {
            LinkClass::RadioAccess => 1.0, // distance negligible anyway
            LinkClass::Metro => 1.0,
            LinkClass::Backbone => 1.35,
            LinkClass::IpxBackbone => 1.9,
            LinkClass::Tunnel => 1.9,
            LinkClass::Peering => 1.25,
        }
    }

    /// Default per-traversal processing delay (queueing, serialization,
    /// lookup) in milliseconds.
    #[must_use]
    pub fn processing_ms(self) -> f64 {
        match self {
            LinkClass::RadioAccess => 8.0,
            LinkClass::Metro => 0.35,
            LinkClass::Backbone => 0.5,
            LinkClass::IpxBackbone => 1.2,
            LinkClass::Tunnel => 1.5,
            LinkClass::Peering => 0.4,
        }
    }

    /// Default jitter bound in milliseconds (uniform on `[0, bound)`).
    #[must_use]
    pub fn jitter_ms(self) -> f64 {
        match self {
            LinkClass::RadioAccess => 10.0,
            LinkClass::Metro => 0.3,
            LinkClass::Backbone => 1.5,
            LinkClass::IpxBackbone => 4.0,
            LinkClass::Tunnel => 6.0,
            LinkClass::Peering => 1.0,
        }
    }
}

/// The delay model of one link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Deterministic one-way delay component, ms.
    pub base_ms: f64,
    /// Jitter bound: each traversal adds `U(0, jitter_ms)`, ms.
    pub jitter_ms: f64,
    /// Probability of a congestion spike on a traversal. Real public-path
    /// latency is heavy-tailed (transient queueing, reroutes); this is the
    /// source of the wide "% private" spread the paper's Fig. 12 shows for
    /// physical SIMs.
    pub spike_prob: f64,
    /// Spike magnitude bound: a spike adds `U(0, spike_ms)`, ms.
    pub spike_ms: f64,
}

impl LatencyModel {
    /// Build a model from endpoint locations and a link class.
    #[must_use]
    pub fn from_geo(a: GeoPoint, b: GeoPoint, class: LinkClass) -> Self {
        let distance = a.distance_km(b);
        LatencyModel {
            base_ms: fiber_delay_ms(distance) * class.circuitousness() + class.processing_ms(),
            jitter_ms: class.jitter_ms(),
            spike_prob: 0.0,
            spike_ms: 0.0,
        }
    }

    /// Build a model with an explicit circuitousness override — how the
    /// scenario layer encodes *peering quality* (e.g. Etisalat's better
    /// IPX peering vs Jazz's, §4.3.2).
    #[must_use]
    pub fn from_geo_with_circuitousness(
        a: GeoPoint,
        b: GeoPoint,
        class: LinkClass,
        circuitousness: f64,
    ) -> Self {
        let distance = a.distance_km(b);
        LatencyModel {
            base_ms: fiber_delay_ms(distance) * circuitousness + class.processing_ms(),
            jitter_ms: class.jitter_ms(),
            spike_prob: 0.0,
            spike_ms: 0.0,
        }
    }

    /// A fixed-delay model (no geography), for radio access and loopbacks.
    #[must_use]
    pub fn fixed(base_ms: f64, jitter_ms: f64) -> Self {
        LatencyModel {
            base_ms,
            jitter_ms,
            spike_prob: 0.0,
            spike_ms: 0.0,
        }
    }

    /// Add a heavy-tailed congestion-spike term: with probability `prob`
    /// each traversal gains an extra `U(0, ms)` of queueing delay.
    #[must_use]
    pub fn with_spikes(mut self, prob: f64, ms: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob) && ms >= 0.0);
        self.spike_prob = prob;
        self.spike_ms = ms;
        self
    }

    /// Sample one traversal's delay.
    #[must_use]
    pub fn sample(&self, rng: &mut SmallRng) -> SimTime {
        let jitter = if self.jitter_ms > 0.0 {
            rng.gen_range(0.0..self.jitter_ms)
        } else {
            0.0
        };
        let spike = if self.spike_prob > 0.0 && rng.gen_bool(self.spike_prob) {
            rng.gen_range(0.0..self.spike_ms.max(f64::MIN_POSITIVE))
        } else {
            0.0
        };
        SimTime::from_ms(self.base_ms + jitter + spike)
    }
}

/// A directed link in the network graph. Links are stored once and traversed
/// in both directions with the same model (delay symmetry is a reasonable
/// approximation at this scale and keeps forward/return paths consistent).
#[derive(Debug, Clone)]
pub(crate) struct Link {
    /// One endpoint (node index).
    pub a: u32,
    /// The other endpoint (node index).
    pub b: u32,
    /// Delay model per traversal.
    pub latency: LatencyModel,
    /// Probability a packet is dropped on traversal (fault injection).
    pub loss: f64,
}

impl Link {
    /// The opposite endpoint of `from` on this link, if `from` is attached.
    #[must_use]
    pub fn other(&self, from: u32) -> Option<u32> {
        if from == self.a {
            Some(self.b)
        } else if from == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use roam_geo::City;

    #[test]
    fn geo_model_grows_with_distance() {
        let short = LatencyModel::from_geo(
            City::Lille.location(),
            City::Wattrelos.location(),
            LinkClass::Metro,
        );
        let long = LatencyModel::from_geo(
            City::Karachi.location(),
            City::Singapore.location(),
            LinkClass::IpxBackbone,
        );
        assert!(short.base_ms < 1.0, "adjacent cities: {}", short.base_ms);
        assert!(long.base_ms > 40.0, "PAK→SGP tunnel leg: {}", long.base_ms);
    }

    #[test]
    fn circuitousness_override_scales_base() {
        let a = City::Dubai.location();
        let b = City::Singapore.location();
        let good = LatencyModel::from_geo_with_circuitousness(a, b, LinkClass::IpxBackbone, 1.4);
        let bad = LatencyModel::from_geo_with_circuitousness(a, b, LinkClass::IpxBackbone, 2.6);
        assert!(bad.base_ms > good.base_ms * 1.5);
    }

    #[test]
    fn sample_is_bounded_by_jitter() {
        let m = LatencyModel::fixed(10.0, 5.0);
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..1000 {
            let d = m.sample(&mut rng).as_ms();
            assert!((10.0..15.0).contains(&d), "sampled {d}");
        }
    }

    #[test]
    fn zero_jitter_is_deterministic() {
        let m = LatencyModel::fixed(3.25, 0.0);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(m.sample(&mut rng).as_ms(), 3.25);
        assert_eq!(m.sample(&mut rng).as_ms(), 3.25);
    }

    #[test]
    fn sampling_is_deterministic_given_seed() {
        let m = LatencyModel::fixed(1.0, 9.0);
        let run = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..32)
                .map(|_| m.sample(&mut rng).as_nanos())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn link_other_endpoint() {
        let l = Link {
            a: 3,
            b: 9,
            latency: LatencyModel::fixed(1.0, 0.0),
            loss: 0.0,
        };
        assert_eq!(l.other(3), Some(9));
        assert_eq!(l.other(9), Some(3));
        assert_eq!(l.other(4), None);
    }

    #[test]
    fn class_defaults_are_ordered_sensibly() {
        // Tunnels across the IPX should be worse than public backbone.
        assert!(LinkClass::Tunnel.circuitousness() > LinkClass::Backbone.circuitousness());
        assert!(LinkClass::Tunnel.jitter_ms() > LinkClass::Backbone.jitter_ms());
        // Radio access dominates processing delay.
        assert!(LinkClass::RadioAccess.processing_ms() > LinkClass::Metro.processing_ms());
    }
}
