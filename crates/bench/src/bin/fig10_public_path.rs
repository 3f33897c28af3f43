//! Figure 10: public path length (hops after breakout) per country and
//! configuration, traceroutes to Google and Facebook.
//!
//! Paper shape: native eSIMs ≈ SIMs; roaming eSIMs comparable or slightly
//! longer with larger variance; the variability comes from SP-internal
//! routing rather than inter-domain paths.

use roam_bench::{boxplot_row, CampaignRunner, Env};
use roam_cellular::SimType;
use roam_measure::Service;

fn main() {
    let env = Env::process().run().unwrap_or_else(|e| e.exit());
    let run = CampaignRunner::new(2024).knobs(env).scale(0.3).run();

    for service in [Service::Google, Service::Facebook] {
        println!("--- public path length, traceroutes to {service:?} ---");
        for spec in roam_world::World::device_campaign_specs() {
            for (label, t) in [("SIM", SimType::Physical), ("eSIM", SimType::Esim)] {
                let v: Vec<f64> = run
                    .data
                    .traces
                    .iter()
                    .filter(|r| {
                        r.tag.country == spec.country && r.tag.sim_type == t && r.service == service
                    })
                    .map(|r| r.analysis.public_len as f64)
                    .collect();
                println!(
                    "{}",
                    boxplot_row(&format!("{} {label}", spec.country.alpha3()), &v)
                );
            }
        }
        println!();
    }
    println!("paper shape: short public paths everywhere (SP edges sit next to the");
    println!("PGWs); variance driven by SP-internal routing depth.");
}
