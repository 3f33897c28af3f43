//! Figure 8: CDF of RTT to the Singtel PGWs from the two HR eSIMs
//! (Pakistan and UAE).
//!
//! Paper shape: the UAE eSIM enjoys shorter RTTs than the Pakistani one
//! despite being geographically *farther* from Singapore — peering quality,
//! not distance (§4.3.2); both exceed the 150 ms "less desirable" bar.

use roam_bench::CampaignRunner;
use roam_cellular::SimType;
use roam_geo::Country;
use roam_stats::Ecdf;

fn main() {
    let run = CampaignRunner::from_env(2024).scale(0.4).run();

    println!("Figure 8 — CDF of RTT at the Singtel PGW hop (HR eSIMs)\n");
    for country in [Country::PAK, Country::ARE] {
        let rtts: Vec<f64> = run
            .data
            .traces
            .iter()
            .filter(|r| r.tag.country == country && r.tag.sim_type == SimType::Esim)
            .filter_map(|r| r.analysis.pgw_rtt_ms)
            .collect();
        let cdf = Ecdf::new(&rtts).expect("HR traces exist");
        println!("{} eSIM → Singtel PGW (n={}):", country.alpha3(), cdf.len());
        for (x, f) in cdf.points(9) {
            println!("  {:>7.1} ms  F={:.2}", x, f);
        }
        println!(
            "  median {:.0} ms, share >150 ms: {:.0}%\n",
            cdf.inverse(0.5),
            cdf.frac_above(150.0) * 100.0
        );
    }
    println!("paper shape: ARE < PAK everywhere on the CDF despite the longer");
    println!("geodesic; both entirely above 150 ms.");
}
