//! Table 3: the web-based campaign overview (14 countries, completed
//! measurements = successful DNS + fast.com uploads per country).

use roam_bench::{CampaignRunner, Env};
use roam_world::World;

fn main() {
    let env = Env::process().run().unwrap_or_else(|e| e.exit());
    let specs = World::web_campaign_specs();
    let run = CampaignRunner::new(2024).knobs(env).run_web();
    let results = &run.results;

    println!("Table 3 — web-based campaign overview\n");
    println!(
        "{:<12} {:>12} {:>16} {:>15}",
        "Country", "# Volunteers", "Duration (days)", "# Measurements"
    );
    let mut total = 0;
    for spec in &specs {
        let completed = results
            .iter()
            .find(|(c, _, _)| *c == spec.country)
            .map(|(_, r, _)| r.len())
            .unwrap_or(0);
        total += completed;
        println!(
            "{:<12} {:>12} {:>16} {:>15}",
            spec.country.name(),
            spec.volunteers,
            spec.days,
            completed
        );
    }
    println!("\ntotal completed measurements: {total} (paper: 116)");
    print!("{}", run.telemetry.render());
}
