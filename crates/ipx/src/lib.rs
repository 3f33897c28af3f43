//! The IPX network, breakout architectures and GTP session establishment.
//!
//! This crate models the machinery between the visited RAN and the public
//! internet — the part of the world the paper's tomography illuminates:
//!
//! * [`provider`] — **PGW providers**: organisations operating breakout
//!   gateways. They can be MNOs (Singtel breaking out its own roamers at
//!   home = HR) or third parties inside the IPX ecosystem (Packet Host,
//!   OVH, Wireless Logic, Webbing = IHBO). Each provider has *sites* (city +
//!   public prefix) and a *selection policy* describing how sessions are
//!   pinned to sites (the paper finds OVH selects per b-MNO while Packet
//!   Host load-balances, §4.3.2);
//! * [`breakout`] — the three roaming architectures of Fig. 1 (HR / LBO /
//!   IHBO) and the per-b-MNO [`breakout::BreakoutConfig`] that says which
//!   architecture and which provider a roaming session gets — the "static
//!   pre-arrangement of PGW selection" the paper criticises;
//! * [`session`] — [`session::attach`] builds the actual netsim subgraph
//!   for one attachment: UE → RAN/SGW (private) → GTP tunnel → PGW core
//!   (private hops) → CG-NAT (public breakout IP), with peering-quality
//!   overrides so that the same geographic tunnel can be fast for one
//!   v-MNO and slow for another (§4.3.2's Etisalat-vs-Jazz observation).

pub mod breakout;
pub mod provider;
pub mod session;

pub use breakout::{BreakoutConfig, DnsMode, RoamingArch};
pub use provider::{
    IpAssignment, PgwProvider, PgwProviderId, PgwSelection, PgwSite, ProviderDirectory,
};
pub use session::{
    attach, AttachError, AttachParams, Attachment, PeeringQuality, SIGNALLING_BYTES_PER_ATTACH,
};
