//! eSIM market economics (§6, Figs. 16–19).
//!
//! The paper's crawler scraped eSIMDB daily for four months (54 providers,
//! 75,875 offers over 244 regions) and compared Airalo against both its
//! aggregator competitors and locally-bought physical SIMs. None of that
//! data is redistributable, so this crate generates a **synthetic offer
//! universe calibrated to the paper's published anchors**:
//!
//! * per-continent Airalo medians (Europe ≈ $4.5/GB, ~half of North
//!   America; a Central-America cluster of expensive plans; worldwide
//!   median ≈ $7.9/GB);
//! * provider medians spanning Airhub's $2.3 to Keepgo's $16.2, with
//!   MobiMatter ~60% cheaper than Airalo and holding ~5% of all offers to
//!   Airalo's ~3%;
//! * the Asia median drift from ~$5.5 to ~$6.5 around April 1st and the
//!   Africa 25th-percentile rise (Fig. 16's only real movements);
//! * no vantage-point price discrimination (Madrid/Abu Dhabi/New Jersey
//!   crawls see identical prices);
//! * non-linear size→price within a b-MNO, differing across countries that
//!   share that b-MNO (Fig. 19).
//!
//! [`market::Market`] generates the universe, [`crawler`] samples it daily
//! from a vantage point, and [`analytics`] reduces snapshots to the exact
//! series each figure plots. [`localsim`] carries the volunteer-collected
//! physical-SIM baseline of Fig. 17.

pub mod analytics;
pub mod crawler;
pub mod localsim;
pub mod market;
pub mod offer;

pub use analytics::{
    continent_boxplots, decile_thresholds, median_per_gb_by_country, provider_comparison,
    size_price_by_bmno, ProviderSummary,
};
pub use crawler::{CrawlDay, Crawler, Vantage};
pub use localsim::{local_sim_offers, LocalSimOffer};
pub use market::{Market, ProviderId, ProviderSpec};
pub use offer::EsimOffer;
