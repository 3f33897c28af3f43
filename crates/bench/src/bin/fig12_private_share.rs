//! Figure 12: CDFs of the share of end-to-end latency that is *private*
//! (device → PGW), in three panels: native eSIMs, HR eSIMs, IHBO eSIMs,
//! each against their physical-SIM counterparts.
//!
//! Paper anchors: for 80% of HR traceroutes the private share exceeds 98%
//! (vs <10% of SIM traces); IHBO's private share drops below the public
//! share for ~15% of measurements (vs ~1% for HR).

use roam_bench::{CampaignRunner, Env};
use roam_cellular::SimType;
use roam_geo::Country;
use roam_ipx::RoamingArch;
use roam_stats::Ecdf;

fn share_cdf(
    run: &roam_bench::DeviceCampaignRun,
    countries: &[Country],
    sim_type: SimType,
) -> Option<Ecdf> {
    let v: Vec<f64> = run
        .data
        .traces
        .iter()
        .filter(|r| countries.contains(&r.tag.country) && r.tag.sim_type == sim_type)
        .filter_map(|r| r.analysis.private_share)
        .collect();
    Ecdf::new(&v).ok()
}

fn print_panel(name: &str, run: &roam_bench::DeviceCampaignRun, countries: &[Country]) {
    println!("--- panel: {name} ---");
    for (label, t) in [("SIM", SimType::Physical), ("eSIM", SimType::Esim)] {
        let Some(cdf) = share_cdf(run, countries, t) else {
            continue;
        };
        let pts: Vec<String> = [0.25, 0.5, 0.75, 0.9]
            .iter()
            .map(|q| format!("p{:.0}={:.2}", q * 100.0, cdf.inverse(*q)))
            .collect();
        println!(
            "  {label:<5} n={:<5} {}  share>0.98: {:>4.0}%  share<0.50: {:>4.0}%",
            cdf.len(),
            pts.join(" "),
            cdf.frac_above(0.98) * 100.0,
            (1.0 - cdf.frac_above(0.50)) * 100.0
        );
    }
    println!();
}

fn main() {
    let env = Env::process().run().unwrap_or_else(|e| e.exit());
    let run = CampaignRunner::new(2024).knobs(env).scale(0.4).run();
    println!("Figure 12 — % of latency incurred before internet breakout\n");
    print_panel(
        "(a) native eSIM countries (KOR, THA)",
        &run,
        &[Country::KOR, Country::THA],
    );
    print_panel(
        "(b) HR eSIM countries (PAK, ARE)",
        &run,
        &[Country::PAK, Country::ARE],
    );
    let ihbo: Vec<Country> = roam_world::World::device_campaign_specs()
        .iter()
        .map(|s| s.country)
        .filter(|c| !matches!(c, Country::KOR | Country::THA | Country::PAK | Country::ARE))
        .collect();
    print_panel(
        "(c) IHBO eSIM countries (GEO, DEU, QAT, SAU, ESP, GBR)",
        &run,
        &ihbo,
    );

    // Aggregate HR vs IHBO "private below public" shares.
    let frac_below_half = |arch: RoamingArch| -> f64 {
        let v: Vec<f64> = run
            .data
            .traces
            .iter()
            .filter(|r| r.tag.arch == arch && r.tag.sim_type == SimType::Esim)
            .filter_map(|r| r.analysis.private_share)
            .collect();
        let below = v.iter().filter(|s| **s < 0.5).count();
        below as f64 / v.len().max(1) as f64 * 100.0
    };
    println!(
        "private < public (share < 0.5): IHBO {:.0}% vs HR {:.0}% (paper: 15% vs 1%)",
        frac_below_half(RoamingArch::IpxHubBreakout),
        frac_below_half(RoamingArch::HomeRouted)
    );
}
