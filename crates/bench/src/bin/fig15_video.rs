//! Figure 15: YouTube playback resolution distribution per country and
//! configuration (stats-for-nerds, 4K test video).
//!
//! Paper anchors: 720p is the global mode; best observed 1440p (Korean
//! physical SIM); IHBO eSIMs stream 1080p 20–44% less often than physical
//! SIMs; PAK/ARE pinned at 720p on *both* SIMs (b-MNO YouTube throttling);
//! Georgia's eSIM matches its physical SIM.

use roam_bench::CampaignRunner;
use roam_cellular::SimType;
use roam_measure::Resolution;

fn main() {
    let run = CampaignRunner::from_env(2024).scale(0.6).run();

    println!("Figure 15 — YouTube resolution share per country (%)\n");
    println!(
        "{:<12} {:>5} {:>7} {:>7} {:>7} {:>7} {:>7} {:>5}",
        "country", "kind", "480p", "720p", "1080p", "1440p", "2160p", "n"
    );
    for spec in roam_world::World::device_campaign_specs() {
        if spec.spec.video == (0, 0) {
            continue; // Spain/UK excluded, §A.3
        }
        for (label, t) in [("SIM", SimType::Physical), ("eSIM", SimType::Esim)] {
            let sessions: Vec<Resolution> = run
                .data
                .videos
                .iter()
                .filter(|r| r.tag.country == spec.country && r.tag.sim_type == t)
                .filter_map(|r| r.resolution)
                .collect();
            let n = sessions.len().max(1);
            let share = |res: Resolution| {
                sessions.iter().filter(|r| **r == res).count() as f64 / n as f64 * 100.0
            };
            println!(
                "{:<12} {:>5} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>5}",
                spec.country.alpha3(),
                label,
                share(Resolution::P480),
                share(Resolution::P720),
                share(Resolution::P1080),
                share(Resolution::P1440),
                share(Resolution::P2160),
                sessions.len()
            );
        }
    }

    // Global mode + the HR pinning check.
    let all: Vec<Resolution> = run
        .data
        .videos
        .iter()
        .filter_map(|r| r.resolution)
        .collect();
    let mode = Resolution::LADDER
        .iter()
        .max_by_key(|res| all.iter().filter(|r| r == res).count())
        .expect("non-empty ladder");
    println!("\nglobal modal resolution: {mode} (paper: 720p)");

    let hr_1080 = run
        .data
        .videos
        .iter()
        .filter(|r| {
            matches!(
                r.tag.country,
                roam_geo::Country::PAK | roam_geo::Country::ARE
            )
        })
        .filter(|r| r.resolution.is_some_and(|res| res > Resolution::P720))
        .count();
    println!("PAK/ARE sessions above 720p: {hr_1080} (paper: none — b-MNO throttles YouTube)");
}
