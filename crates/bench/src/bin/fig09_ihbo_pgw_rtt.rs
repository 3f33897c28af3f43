//! Figure 9: CDF of PGW-hop RTT for the Play-provisioned IHBO eSIMs in
//! Georgia, Germany and Spain, split by PGW provider (OVH vs Packet Host).
//!
//! Paper shape: in Germany and Spain, Packet Host breaks out faster than
//! OVH *despite twice the private hops*; in Georgia the order flips, with
//! Packet Host suffering a heavy fourth quartile — peering agreements, not
//! hop counts or distance, set the breakout latency.

use roam_bench::CampaignRunner;
use roam_cellular::SimType;
use roam_geo::Country;
use roam_netsim::registry::well_known;
use roam_stats::{quantile, Summary};

fn main() {
    let run = CampaignRunner::from_env(2024).scale(0.5).run();

    println!("Figure 9 — PGW RTT by provider for Play IHBO eSIMs\n");
    println!(
        "{:<6} {:<12} {:>7} {:>9} {:>9} {:>9} {:>6}",
        "ctry", "provider", "n", "median", "p75", "p95", "hops"
    );
    for country in [Country::GEO, Country::DEU, Country::ESP] {
        for (label, asn) in [
            ("OS (OVH)", well_known::OVH),
            ("PH (PacketHost)", well_known::PACKET_HOST),
        ] {
            let rows: Vec<&roam_measure::TraceRecord> = run
                .data
                .traces
                .iter()
                .filter(|r| {
                    r.tag.country == country
                        && r.tag.sim_type == SimType::Esim
                        && r.analysis.pgw_asn == Some(asn)
                })
                .collect();
            let rtts: Vec<f64> = rows.iter().filter_map(|r| r.analysis.pgw_rtt_ms).collect();
            let hops: Vec<f64> = rows.iter().map(|r| r.analysis.private_len as f64).collect();
            if rtts.len() < 3 {
                println!("{:<6} {:<12} {:>7}", country.alpha3(), label, "few");
                continue;
            }
            let s = Summary::from(&rtts).expect("non-empty");
            println!(
                "{:<6} {:<12} {:>7} {:>9.1} {:>9.1} {:>9.1} {:>6.1}",
                country.alpha3(),
                label,
                s.n,
                s.median,
                quantile(&rtts, 0.75).expect("non-empty"),
                quantile(&rtts, 0.95).expect("non-empty"),
                Summary::from(&hops).expect("non-empty").mean
            );
        }
    }
    println!("\npaper shape: PH faster than OVH in DEU/ESP despite ~2x the private");
    println!("hops; in GEO the order flips with a heavy PH tail.");

    // §4.3.2's statistical claim: distance does not decide which provider
    // breaks out faster. For each Play country, compare which provider is
    // geographically nearer against which one measured faster.
    println!();
    let mut misaligned = 0;
    let mut total = 0;
    for country in [Country::GEO, Country::DEU, Country::ESP] {
        let user = roam_geo::City::sgw_city_for(country)
            .expect("measured")
            .location();
        let med = |asn| {
            let v: Vec<f64> = run
                .data
                .traces
                .iter()
                .filter(|r| {
                    r.tag.country == country
                        && r.tag.sim_type == SimType::Esim
                        && r.analysis.pgw_asn == Some(asn)
                })
                .filter_map(|r| r.analysis.pgw_rtt_ms)
                .collect();
            roam_stats::median(&v).ok()
        };
        let (Some(ovh_rtt), Some(ph_rtt)) = (med(well_known::OVH), med(well_known::PACKET_HOST))
        else {
            continue;
        };
        let ovh_km = user.distance_km(roam_geo::City::Lille.location());
        let ph_km = user.distance_km(roam_geo::City::Amsterdam.location());
        let nearer_is_faster = (ovh_km < ph_km) == (ovh_rtt < ph_rtt);
        total += 1;
        if !nearer_is_faster {
            misaligned += 1;
        }
        println!(
            "{}: OVH {:.0} km / {:.1} ms vs PH {:.0} km / {:.1} ms — nearer provider {} faster",
            country.alpha3(),
            ovh_km,
            ovh_rtt,
            ph_km,
            ph_rtt,
            if nearer_is_faster { "IS" } else { "is NOT" }
        );
    }
    println!(
        "\nnearer ≠ faster in {misaligned}/{total} countries (paper: distance did not \
         explain the provider latency differences, p > 0.05)"
    );
}
