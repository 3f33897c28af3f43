//! Deterministic discrete-event packet network simulator.
//!
//! `roam-netsim` is the substrate every measurement in the reproduction runs
//! on. It models the pieces of the internet the paper's campaigns touched:
//!
//! * a **node/link graph** with geographically derived propagation delays
//!   (great-circle distance × fiber speed × a circuitousness factor per link
//!   class), per-hop processing delay, bounded jitter, and loss injection;
//! * a **hop-by-hop packet walk** ([`net::Network::traceroute`],
//!   [`net::Network::ping`]) that decrements each probe's TTL at every
//!   router and answers expiry with a time-exceeded retracing the path;
//! * an **IP registry** mapping prefixes to ASN / organisation / geolocation,
//!   playing the role ipinfo and WHOIS play in the paper's methodology;
//! * **CG-NAT** semantics: private hops inside a PGW provider's core answer
//!   traceroute with RFC1918 addresses, the first public hop is the address
//!   the outside world sees — exactly the demarcation rule of §4.3;
//! * a **throughput model**: token-bucket policy enforcement plus a
//!   TCP-shaped transfer-time estimator (handshake, slow start, and a
//!   Mathis-style loss/RTT cap), used by the speedtest and CDN clients
//!   and the only transfer model the simulator has.
//!
//! Everything is deterministic: all randomness (jitter, loss) flows from a
//! seed supplied at [`net::Network::new`]. Two simulations with the same
//! seed and the same call sequence produce bit-identical results — a
//! property the integration suite checks explicitly. A run's knobs
//! (telemetry, faults) travel with each network as a
//! [`net::RunKnobs`] value, so concurrent runs in one process never
//! share them.

pub mod engine;
pub mod faults;
pub mod ip;
pub mod link;
pub mod net;
pub mod registry;
pub mod throughput;
pub mod time;

pub use engine::{flow_seed, Flow, FlowId};
pub use faults::{FaultCalendar, FaultPlane, FaultSpec, GilbertElliott, NodeFaultState};
pub use ip::Ipv4Net;
pub use link::{LatencyModel, LinkClass};
pub use net::{
    Network, NodeId, NodeKind, PacketEvent, PacketEventKind, PingResult, ProbeError, RttSample,
    RunKnobs, TraceHop, Traceroute, TracerouteOpts,
};
pub use registry::{Asn, IpRegistry, PrefixInfo};
pub use throughput::{transfer_time_ms, TokenBucket, TransferSpec, TransportKind};
pub use time::SimTime;
