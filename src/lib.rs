//! # roamsim
//!
//! A simulation and measurement toolkit reproducing **"Roam Without a Home:
//! Unraveling the Airalo Ecosystem"** (IMC 2025).
//!
//! The paper dissects Airalo — a *thick* Mobile Network Aggregator that
//! sells eSIM profiles leased from six base operators and breaks roaming
//! traffic out at third-party gateways inside the IPX ecosystem (IPX Hub
//! Breakout). Its raw data came from travellers, rooted phones and a
//! commercial price aggregator; none of that is reachable from a laptop, so
//! this workspace rebuilds the entire substrate as a deterministic
//! simulation and re-runs the paper's methodology on top of it.
//!
//! ## Crate map
//!
//! | module | crate | what it is |
//! |---|---|---|
//! | [`columnar`] | `roam-columnar` | zero-copy column pages + streaming query engine |
//! | [`geo`] | `roam-geo` | geodesy, country/city gazetteer |
//! | [`stats`] | `roam-stats` | quantiles, CDFs, Welch t, Levene |
//! | [`netsim`] | `roam-netsim` | packet-level network simulator (TTL/ICMP, CG-NAT, throughput) |
//! | [`cellular`] | `roam-cellular` | PLMN/IMSI, radio/CQI, operators, SIM/eSIM + RSP |
//! | [`ipx`] | `roam-ipx` | PGW providers, HR/LBO/IHBO, GTP sessions |
//! | [`core`] | `roam-core` | thick-MNA model + tomography (the paper's contribution) |
//! | [`measure`] | `roam-measure` | traceroute/speedtest/CDN/DNS/video clients, campaigns |
//! | [`telemetry`] | `roam-telemetry` | deterministic counters/histograms/events (`ROAM_TELEMETRY`) |
//! | [`econ`] | `roam-econ` | eSIM market, crawler, price analytics |
//! | [`world`] | `roam-world` | the calibrated 24-country scenario + emnify validation |
//! | [`fleet`] | `roam-fleet` | population-scale deterministic workload generator (`ROAM_FLEET_*`) |
//!
//! ## Quickstart
//!
//! ```
//! use roamsim::world::World;
//! use roamsim::measure::{mtr, Service};
//! use roamsim::geo::Country;
//!
//! // Build the paper's world and buy an Airalo eSIM for Pakistan.
//! let mut world = World::build(42);
//! let esim = world.attach_esim(Country::PAK);
//!
//! // It is Home-Routed through Singtel: traffic tunnels to Singapore.
//! let out = mtr(&mut world.net, &esim, &world.internet.targets, Service::Google)
//!     .expect("Google edges exist");
//! assert!(out.analysis.reached);
//! assert_eq!(out.analysis.pgw_city, Some(roamsim::geo::City::Singapore));
//! // Most of the latency is private-path (the GTP tunnel), §4.3's finding:
//! assert!(out.analysis.private_share.unwrap() > 0.5);
//! ```

pub use roam_cellular as cellular;
pub use roam_columnar as columnar;
pub use roam_core as core;
pub use roam_econ as econ;
pub use roam_fleet as fleet;
pub use roam_geo as geo;
pub use roam_ipx as ipx;
pub use roam_measure as measure;
pub use roam_netsim as netsim;
pub use roam_service as service;
pub use roam_stats as stats;
pub use roam_telemetry as telemetry;
pub use roam_world as world;
