//! Table 4: the device-based campaign overview — successful test counts per
//! country, formatted `<physical SIM> // <Airalo eSIM>` like the paper.

use roam_bench::{CampaignRunner, Env};
use roam_cellular::SimType;
use roam_measure::Service;

fn main() {
    let env = Env::process().run().unwrap_or_else(|e| e.exit());
    // Scale 0.25 keeps the run quick while preserving the per-country
    // ratios; pass-through of the real counts is in the spec table itself.
    let run = CampaignRunner::new(2024).knobs(env).scale(0.25).run();

    println!("Table 4 — device-based campaign overview (scaled ×0.25)\n");
    println!(
        "{:<12} {:>12} {:>14} {:>14} {:>14} {:>10}",
        "Country", "Ookla", "MTR (Google)", "MTR (FB)", "CDN (CF)", "Video"
    );
    for spec in roam_world::World::device_campaign_specs() {
        let c = spec.country;
        let count = |f: &dyn Fn(SimType) -> usize| {
            format!("{} // {}", f(SimType::Physical), f(SimType::Esim))
        };
        let ookla = count(&|t| {
            run.data
                .speedtests
                .iter()
                .filter(|r| r.tag.country == c && r.tag.sim_type == t)
                .count()
        });
        let mtr_g = count(&|t| {
            run.data
                .traces
                .iter()
                .filter(|r| {
                    r.tag.country == c && r.tag.sim_type == t && r.service == Service::Google
                })
                .count()
        });
        let mtr_f = count(&|t| {
            run.data
                .traces
                .iter()
                .filter(|r| {
                    r.tag.country == c && r.tag.sim_type == t && r.service == Service::Facebook
                })
                .count()
        });
        let cdn = count(&|t| {
            run.data
                .cdns
                .iter()
                .filter(|r| {
                    r.tag.country == c
                        && r.tag.sim_type == t
                        && r.provider == roam_measure::CdnProvider::Cloudflare
                })
                .count()
        });
        let video = count(&|t| {
            run.data
                .videos
                .iter()
                .filter(|r| r.tag.country == c && r.tag.sim_type == t)
                .count()
        });
        println!(
            "{:<12} {:>12} {:>14} {:>14} {:>14} {:>10}",
            c.name(),
            ookla,
            mtr_g,
            mtr_f,
            cdn,
            video
        );
    }
    println!("\n(Spain and the UK report no video sessions, as in §A.3.)");
    print!("{}", run.telemetry.render());
}
