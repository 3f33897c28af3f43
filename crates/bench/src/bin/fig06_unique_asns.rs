//! Figure 6: median number of unique ASNs observed in traceroutes to
//! Google and Facebook, SIM vs eSIM per country.
//!
//! Paper shape: mostly 2 (direct peering between the PGW provider and the
//! SP); Spanish and Pakistani physical SIMs cross national transit ASes
//! (3–4); some Qatari traces see only the SP's AS (silent CG-NAT).

use roam_bench::CampaignRunner;
use roam_cellular::SimType;
use roam_measure::Service;
use roam_stats::median;

fn main() {
    let run = CampaignRunner::from_env(2024).scale(0.3).run();

    for service in [Service::Google, Service::Facebook] {
        println!("--- traceroutes to {service:?} ---");
        println!("{:<12} {:>10} {:>10}", "country", "SIM", "eSIM");
        for spec in roam_world::World::device_campaign_specs() {
            let med = |t: SimType| -> f64 {
                let v: Vec<f64> = run
                    .data
                    .traces
                    .iter()
                    .filter(|r| {
                        r.tag.country == spec.country && r.tag.sim_type == t && r.service == service
                    })
                    .map(|r| r.analysis.unique_public_asns as f64)
                    .collect();
                median(&v).unwrap_or(f64::NAN)
            };
            println!(
                "{:<12} {:>10.1} {:>10.1}",
                spec.country.alpha3(),
                med(SimType::Physical),
                med(SimType::Esim)
            );
        }
        println!();
    }
    println!("paper shape: typically 2 unique ASNs (direct peering); Spain/Pakistan");
    println!("physical SIMs traverse national transit (3+).");
}
