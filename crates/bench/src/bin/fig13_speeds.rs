//! Figure 13: (a) web-campaign downlink per country (fast.com), grouped by
//! configuration/b-MNO; (b) downlink and (c) uplink from the device
//! campaign (Ookla, CQI ≥ 7 filtered).
//!
//! Paper anchors: France ≈ 2× Uzbekistan despite the same Virginia PGW;
//! roaming eSIMs 78.8% slow (≤15 Mbps) / 4.5% fast (≥30) vs physical 31.9%
//! / 48%; eSIM uplink crushed only in Pakistan and Georgia; IHBO ≈ HR on
//! throughput.
//!
//! The device half runs as streaming queries over the campaign's columnar
//! `Speedtests` table: one export walk builds the column pages, and every
//! figure panel is a filter (`country`/`sim`/CQI) + `values` scan over the
//! chunks — no per-panel record re-walks.

use roam_bench::{boxplot_row, CampaignRunner};
use roam_cellular::Cqi;
use roam_columnar::{Query, Table};
use roam_geo::Country;
use roam_measure::{ColumnarSink, Dataset, Exporter};
use roam_stats::{mean_ci95, median};

fn main() {
    // ---- (a) web campaign ------------------------------------------------
    let web_run = CampaignRunner::from_env(2024).run_web();
    let (web_world, web) = (web_run.world, web_run.results);
    println!("Figure 13a — fast.com downlink per web-campaign country (Mbps)\n");
    println!(
        "{:<8} {:>8} {:>6} {:<22} {:<12}",
        "country", "median", "n", "b-MNO", "breakout"
    );
    for (country, records, ep) in &web {
        let v: Vec<f64> = records.iter().map(|r| r.down_mbps).collect();
        println!(
            "{:<8} {:>8.1} {:>6} {:<22} {:<12}",
            country.alpha3(),
            median(&v).unwrap_or(f64::NAN),
            v.len(),
            web_world.plan(*country).b_mno,
            ep.att.breakout_city.name()
        );
    }
    let med_of = |c: Country| {
        web.iter()
            .find(|(cc, _, _)| *cc == c)
            .map(|(_, r, _)| {
                let v: Vec<f64> = r.iter().map(|x| x.down_mbps).collect();
                median(&v).unwrap_or(f64::NAN)
            })
            .unwrap_or(f64::NAN)
    };
    println!(
        "\nFRA vs UZB (same Virginia PGW): {:.1} vs {:.1} Mbps (paper: 29 vs 15 — \
         proximity to the PGW matters)",
        med_of(Country::FRA),
        med_of(Country::UZB)
    );
    // The §5.1 proximity claim, as a statistic: tunnel length vs downlink
    // across the web campaign's roaming eSIMs.
    let mut dist = Vec::new();
    let mut down = Vec::new();
    for (country, records, ep) in &web {
        if !ep.att.arch.is_roaming() {
            continue;
        }
        let v: Vec<f64> = records.iter().map(|r| r.down_mbps).collect();
        let Ok(med) = median(&v) else {
            continue; // every run failed under the fault schedule
        };
        dist.push(ep.att.tunnel_km);
        down.push(med);
        let _ = country;
    }
    if let Ok(c) = roam_stats::pearson(&dist, &down) {
        println!(
            "distance↔downlink correlation (roaming web eSIMs): r = {:.2}, p = {:.3}, n = {} \
             (paper: closer PGWs → higher speeds, with exceptions like AZE > MDA)",
            c.r, c.p_value, c.n
        );
    }

    // ---- (b)+(c) device campaign ------------------------------------------
    let run = CampaignRunner::from_env(2024).scale(0.4).run();
    let mut sink = ColumnarSink::new();
    run.data.export_rows(Dataset::Speedtests, &mut sink);
    let speed = sink
        .into_table(Dataset::Speedtests)
        .expect("device campaign records speedtests");
    // The paper's quality filter: CQI ≥ 7 (failed runs carry a null CQI
    // and never pass, matching `filtered_speedtests`).
    let filtered = || -> Query<'_, Table> {
        Query::new(&speed).u32_ge("cqi", u32::from(Cqi::QPSK_THRESHOLD.value()))
    };
    println!("\nFigure 13b/c — Ookla down/up by country (CQI ≥ 7 only)\n");
    for spec in roam_world::World::device_campaign_specs() {
        for (label, sim) in [("SIM", "sim"), ("eSIM", "esim")] {
            let of = |metric: &str| {
                filtered()
                    .eq("country", spec.country.alpha3())
                    .eq("sim", sim)
                    .values(metric)
            };
            println!(
                "down {}",
                boxplot_row(
                    &format!("{} {label}", spec.country.alpha3()),
                    &of("down_mbps")
                )
            );
            println!("up   {}", boxplot_row("", &of("up_mbps")));
        }
    }

    // Slow/fast buckets, roaming countries only (§5.1 / SpeedTest index).
    let native = [Country::KOR.alpha3(), Country::THA.alpha3()];
    let bucket = |sim: &str| -> (f64, f64, usize) {
        let v = filtered()
            .eq("sim", sim)
            .none_of("country", &native)
            .values("down_mbps");
        let slow = v.iter().filter(|x| **x <= 15.0).count() as f64 / v.len() as f64;
        let fast = v.iter().filter(|x| **x >= 30.0).count() as f64 / v.len() as f64;
        (slow * 100.0, fast * 100.0, v.len())
    };
    let (es, ef, en) = bucket("esim");
    let (ss, sf, sn) = bucket("sim");
    println!("\nroaming-country downlink buckets:");
    println!(
        "  eSIM: {es:.1}% slow (≤15), {ef:.1}% fast (≥30), n={en} \
              (paper: 78.8% / 4.5%)"
    );
    println!("  SIM:  {ss:.1}% slow, {sf:.1}% fast, n={sn} (paper: 31.9% / 48%)");

    // 5G eSIM means the paper quotes.
    for (c, paper) in [
        (Country::ESP, 11.2),
        (Country::GEO, 31.7),
        (Country::DEU, 22.7),
    ] {
        let v = filtered()
            .eq("country", c.alpha3())
            .eq("sim", "esim")
            .values("down_mbps");
        if let Ok((m, ci)) = mean_ci95(&v) {
            println!(
                "  {} eSIM 5G mean: {m:.1} ± {ci:.2} Mbps (paper: {paper})",
                c.alpha3()
            );
        }
    }
}
