//! The paper's contribution: the thick-MNA model and the tomography
//! methodology used to dissect it.
//!
//! Four pieces:
//!
//! * [`taxonomy`] — the MNA classification of Fig. 2 (light / thick / full),
//!   capturing who runs sales, core and RAN in each flavour;
//! * [`marketplace`] — the thick aggregator itself: a per-country catalogue
//!   of eSIM offers, each backed by a b-MNO, an IMSI lease, and a
//!   pre-arranged breakout configuration. Buying an eSIM redeems an RSP
//!   activation code and returns a profile ready to attach;
//! * [`tomography`] — the measurement methodology of §3/§4: classify a
//!   session's roaming architecture from the ASN of its public IP, infer
//!   PGW geolocation, and build Table-2-style inventories;
//! * [`path_analysis`] — the traceroute decomposition of §4.3: private vs
//!   public demarcation at the first public hop, path lengths, unique-ASN
//!   counts and the private-latency share of Fig. 12;
//! * [`vmno_visibility`] — the §4.2 collaboration experiment: generate
//!   v-MNO core records for native users, ordinary b-MNO roamers and
//!   aggregator users, then *recover* the aggregator's leased IMSI ranges
//!   by pattern matching, exactly as the authors did with the UK operator.

pub mod marketplace;
pub mod path_analysis;
pub mod taxonomy;
pub mod tomography;
pub mod vmno_visibility;

pub use marketplace::{Aggregator, CountryOffer};
pub use path_analysis::{analyze_traceroute, PathAnalysis};
pub use tomography::{classify_architecture, EsimObservation, TomographyReport, TomographyRow};
pub use vmno_visibility::{
    infer_class, recover_imsi_ranges, simulate_core_records, CoreRecord, TrafficStats, UserClass,
    VisibilityExperiment,
};
