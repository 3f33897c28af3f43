//! Cellular ecosystem substrate: identifiers, radio, operators, SIMs.
//!
//! This crate models the parts of the mobile world that exist *below* the
//! roaming architectures of the paper:
//!
//! * [`ident`] — PLMN (MCC/MNC), IMSI and IMEI handling, including the IMSI
//!   *range* allocation that the v-MNO-visibility experiment (§4.2) pattern-
//!   matches against;
//! * [`radio`] — Radio Access Technology (4G/5G), CQI and its 3GPP mapping
//!   to modulation efficiency (the paper filters measurements at CQI ≥ 7,
//!   the QPSK threshold), access latency and achievable PHY rate;
//! * [`mno`] — Mobile Network Operators: PLMN identity, home country,
//!   whether they are an MVNO riding a parent network, and the per-class
//!   **bandwidth policies** that the paper finds dominate roaming
//!   throughput;
//! * [`sim`] — physical SIMs and eSIM profiles, with Remote SIM
//!   Provisioning (RSP) in the role the GSMA architecture gives it:
//!   profiles are *downloaded* onto an eUICC and enabled/disabled without
//!   physical swapping.

pub mod ident;
pub mod mno;
pub mod radio;
pub mod sim;

pub use ident::{Imei, Imsi, ImsiRange, Plmn};
pub use mno::{BandwidthPolicy, Mno, MnoDirectory, MnoId, SubscriberClass};
pub use radio::{cqi_efficiency, phy_rate_mbps, radio_latency_ms, ChannelSampler, Cqi, Rat};
pub use sim::{SimProfile, SimType, Smdp};
