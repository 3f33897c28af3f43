//! Figure 20: jquery.min.js download time from the four remaining CDN
//! providers (Google CDN, Microsoft Ajax, jQuery, jsDelivr) — Cloudflare is
//! Fig. 14a.
//!
//! Paper shape: the same pattern on every provider — native eSIMs ≈
//! physical SIMs, HR eSIMs far slower, IHBO in between.

use roam_bench::{boxplot_row, CampaignRunner};
use roam_cellular::SimType;
use roam_ipx::RoamingArch;
use roam_measure::CdnProvider;
use roam_stats::Summary;

fn main() {
    let run = CampaignRunner::from_env(2024).scale(0.35).run();

    for provider in [
        CdnProvider::GoogleCdn,
        CdnProvider::MicrosoftAjax,
        CdnProvider::JQuery,
        CdnProvider::JsDelivr,
    ] {
        println!("--- {} download time (ms) ---", provider.name());
        for spec in roam_world::World::device_campaign_specs() {
            for (label, t) in [("SIM", SimType::Physical), ("eSIM", SimType::Esim)] {
                let v: Vec<f64> = run
                    .data
                    .cdns
                    .iter()
                    .filter(|r| {
                        r.tag.country == spec.country
                            && r.tag.sim_type == t
                            && r.provider == provider
                            && r.status.is_ok()
                    })
                    .map(|r| r.total_ms)
                    .collect();
                println!(
                    "{}",
                    boxplot_row(&format!("{} {label}", spec.country.alpha3()), &v)
                );
            }
        }
        // Per-architecture ordering check.
        let mean_of = |arch: RoamingArch| -> f64 {
            let v: Vec<f64> = run
                .data
                .cdns
                .iter()
                .filter(|r| {
                    r.tag.arch == arch
                        && r.tag.sim_type == SimType::Esim
                        && r.provider == provider
                        && r.status.is_ok()
                })
                .map(|r| r.total_ms)
                .collect();
            Summary::from(&v).map(|s| s.mean).unwrap_or(f64::NAN)
        };
        println!(
            "eSIM means: native {:.0} < IHBO {:.0} < HR {:.0} ms\n",
            mean_of(RoamingArch::Native),
            mean_of(RoamingArch::IpxHubBreakout),
            mean_of(RoamingArch::HomeRouted)
        );
    }
    println!("paper shape: native ≈ SIM << IHBO << HR on all four providers.");
}
