//! Geodesy, countries and cities for the `roamsim` workspace.
//!
//! This crate is the lowest layer of the simulator: it knows where things are
//! on the planet and how far apart they are along the great circle. Everything
//! above it (link latencies, SGW↔PGW tunnel lengths, DNS anycast selection,
//! per-continent price analytics) is driven by these primitives.
//!
//! The gazetteer is a static, dependency-free table: the paper's analysis
//! needs country centroids (Fig. 3, Fig. 18), the specific cities hosting
//! SGWs, PGWs and service-provider edges (Figs. 3–4, §4.3), and a continent
//! partition (Fig. 16). Coordinates are rounded to ~0.1°, which is far below
//! the precision that matters for wide-area propagation delay (0.1° ≈ 11 km ≈
//! 0.1 ms RTT over fiber).
//!
//! # Example
//!
//! ```
//! use roam_geo::{City, Country, GeoPoint};
//!
//! let warsaw = City::Warsaw.location();
//! let amsterdam = City::Amsterdam.location();
//! let km = warsaw.distance_km(amsterdam);
//! assert!((1090.0..1200.0).contains(&km), "Warsaw–Amsterdam ≈ 1100 km, got {km}");
//! assert_eq!(Country::POL.continent(), roam_geo::Continent::Europe);
//! ```

pub mod city;
pub mod coord;
pub mod country;

pub use city::City;
pub use coord::GeoPoint;
pub use country::{Continent, Country};

/// Mean Earth radius in kilometres (IUGG value).
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// Propagation speed of light in optical fiber, km per millisecond.
///
/// Light travels at roughly 2/3 of c in silica fiber: ~204 km/ms, i.e. about
/// 4.9 µs per km one-way. Used by `roam-netsim` to turn geodesic distances
/// into link delays.
pub(crate) const FIBER_KM_PER_MS: f64 = 204.0;

/// One-way propagation delay over fiber for a geodesic distance, in
/// milliseconds, before any circuitousness factor is applied.
#[must_use]
pub fn fiber_delay_ms(distance_km: f64) -> f64 {
    distance_km / FIBER_KM_PER_MS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fiber_delay_is_linear_in_distance() {
        assert!((fiber_delay_ms(204.0) - 1.0).abs() < 1e-9);
        assert!((fiber_delay_ms(2040.0) - 10.0).abs() < 1e-9);
        assert_eq!(fiber_delay_ms(0.0), 0.0);
    }

    #[test]
    fn transatlantic_delay_is_plausible() {
        // London -> New York is ~5570 km; one-way fiber floor ~27 ms.
        let d = City::London
            .location()
            .distance_km(City::NewYork.location());
        let ms = fiber_delay_ms(d);
        assert!((25.0..31.0).contains(&ms), "got {ms} ms over {d} km");
    }
}
