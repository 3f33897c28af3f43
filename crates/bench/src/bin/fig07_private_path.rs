//! Figure 7: private path length per country (traceroutes to Google),
//! SIM vs eSIM.
//!
//! Paper anchors: Pakistan collapses to 4 hops (SIM) / 8 hops (eSIM);
//! Korea eSIM constant 7; Thai SIM and eSIM overlap (both dtac, 4–10);
//! OVH-routed IHBO sessions show short provider cores (3), Packet Host
//! deep ones (6–7).

use roam_bench::{boxplot_row, CampaignRunner, Env};
use roam_cellular::SimType;
use roam_measure::Service;

fn main() {
    let env = Env::process().run().unwrap_or_else(|e| e.exit());
    let run = CampaignRunner::new(2024).knobs(env).scale(0.3).run();

    println!("Figure 7 — private path length (hops before the first public IP)\n");
    println!(
        "{:<22} {:>7} {:>24} {:>7}",
        "", "lo", "[q1 median q3]", "hi"
    );
    for spec in roam_world::World::device_campaign_specs() {
        for (label, t) in [("SIM", SimType::Physical), ("eSIM", SimType::Esim)] {
            let v: Vec<f64> = run
                .data
                .traces
                .iter()
                .filter(|r| {
                    r.tag.country == spec.country
                        && r.tag.sim_type == t
                        && r.service == Service::Google
                })
                .map(|r| r.analysis.private_len as f64)
                .collect();
            println!(
                "{}",
                boxplot_row(&format!("{} {label}", spec.country.alpha3()), &v)
            );
        }
    }
    println!("\npaper anchors: PAK 4 (SIM) vs 8 (eSIM), KOR eSIM 7, THA 4–10 both.");
}
