//! Figure 3: the SGW↔PGW map for the 21 roaming eSIMs — each line of the
//! paper's map becomes a row: user location, PGW location, the great-circle
//! tunnel length, and the line style (solid = HR, dashed = IHBO).

use roam_bench::CampaignRunner;
use roam_core::TomographyReport;
use roam_ipx::RoamingArch;

fn main() {
    let run = CampaignRunner::from_env(2024).run_survey(6);
    let (world, obs) = (run.world, run.observations);
    let report = TomographyReport::build(&obs, world.net.registry());

    println!("Figure 3 — end-user (triangle) to PGW (circle) per roaming eSIM\n");
    println!(
        "{:<9} {:<18} {:<26} {:>10} {:>7} {:>7}",
        "visited", "b-MNO", "PGW provider(s)", "tunnel km", "style", "type"
    );
    let mut total_km = 0.0;
    let mut n = 0;
    for row in report.rows.iter().filter(|r| r.arch.is_roaming()) {
        let provs: Vec<String> = row
            .pgw_providers
            .iter()
            .map(|(org, _, city)| format!("{org}@{}", city.name()))
            .collect();
        println!(
            "{:<9} {:<18} {:<26} {:>10.0} {:>7} {:>7}",
            row.visited.alpha3(),
            format!("{} ({})", row.b_mno.0, row.b_mno.1.alpha3()),
            provs.join(", "),
            row.tunnel_km,
            if row.arch == RoamingArch::HomeRouted {
                "solid"
            } else {
                "dashed"
            },
            row.arch.label()
        );
        total_km += row.tunnel_km;
        n += 1;
    }
    println!(
        "\n{n} roaming eSIMs, mean GTP tunnel length {:.0} km",
        total_km / f64::from(n)
    );
    let (far, total) = report.suboptimal_breakouts();
    println!("IHBO tunnels longer than the b-MNO distance: {far}/{total} (paper: 8/16)");
}
