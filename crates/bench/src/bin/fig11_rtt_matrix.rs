//! Figure 11: RTT boxplots to Facebook, Google (final traceroute hop) and
//! the nearest Ookla server, per country and configuration — plus the
//! §5.1 statistics: HR +~620% / IHBO +~64% over native, the >150 ms
//! shares, the Welch t-tests and Levene's variance test.

use roam_bench::{boxplot_row, CampaignRunner};
use roam_cellular::SimType;
use roam_geo::Country;
use roam_ipx::RoamingArch;
use roam_measure::Service;
use roam_stats::test::LeveneCenter;
use roam_stats::{levene_test, median, welch_t_test, Ecdf};

fn main() {
    let run = CampaignRunner::from_env(2024).scale(0.4).run();
    let native = [Country::KOR, Country::THA];

    for service in [Service::Facebook, Service::Google] {
        println!("--- (final-hop) RTT to {service:?}, ms ---");
        for spec in roam_world::World::device_campaign_specs() {
            for (label, t) in [("SIM", SimType::Physical), ("eSIM", SimType::Esim)] {
                let v: Vec<f64> = run
                    .data
                    .traces
                    .iter()
                    .filter(|r| {
                        r.tag.country == spec.country && r.tag.sim_type == t && r.service == service
                    })
                    .filter_map(|r| r.analysis.final_rtt_ms)
                    .collect();
                let rat = run
                    .data
                    .traces
                    .iter()
                    .find(|r| r.tag.country == spec.country && r.tag.sim_type == t)
                    .map(|r| r.tag.rat.to_string())
                    .unwrap_or_default();
                println!(
                    "{}",
                    boxplot_row(&format!("{} {label} ({rat})", spec.country.alpha3()), &v)
                );
            }
        }
        println!();
    }

    println!("--- latency to the nearest Ookla server (from the PGW) ---");
    for spec in roam_world::World::device_campaign_specs() {
        for (label, t) in [("SIM", SimType::Physical), ("eSIM", SimType::Esim)] {
            let v: Vec<f64> = run
                .data
                .speedtests
                .iter()
                .filter(|r| r.tag.country == spec.country && r.tag.sim_type == t)
                .filter(|r| r.status.is_ok())
                .map(|r| r.latency_ms)
                .collect();
            println!(
                "{}",
                boxplot_row(&format!("{} {label}", spec.country.alpha3()), &v)
            );
        }
    }

    // --- headline statistics -------------------------------------------
    // The paper's inflation metric ("compared to the native setup, IHBO
    // inflates the latency by 64% … 621% for home routing") compares each
    // roaming eSIM against the same-country physical SIM and averages the
    // per-country increase.
    let country_median = |country: Country, t: SimType| -> Option<f64> {
        let v: Vec<f64> = run
            .data
            .traces
            .iter()
            .filter(|r| r.tag.country == country && r.tag.sim_type == t)
            .filter_map(|r| r.analysis.final_rtt_ms)
            .collect();
        median(&v).ok()
    };
    // Pooled across measurements (the sample mix matters: Germany and
    // Pakistan dominate Table 4, as in the paper's dataset).
    let pooled_increase = |arch: RoamingArch| -> f64 {
        let countries: Vec<Country> = roam_world::World::device_campaign_specs()
            .iter()
            .map(|s| s.country)
            .filter(|c| {
                run.data.traces.iter().any(|r| {
                    r.tag.country == *c && r.tag.sim_type == SimType::Esim && r.tag.arch == arch
                })
            })
            .collect();
        let pool = |t: SimType| -> Vec<f64> {
            run.data
                .traces
                .iter()
                .filter(|r| countries.contains(&r.tag.country) && r.tag.sim_type == t)
                .filter_map(|r| r.analysis.final_rtt_ms)
                .collect()
        };
        let esim = median(&pool(SimType::Esim)).expect("eSIM traces");
        let sim = median(&pool(SimType::Physical)).expect("SIM traces");
        (esim / sim - 1.0) * 100.0
    };
    println!("\nlatency inflation of roaming eSIMs over the native (physical) setup");
    println!("(pooled across measurements in the same countries):");
    println!(
        "  HR:   +{:.0}% (paper: ~+621%)",
        pooled_increase(RoamingArch::HomeRouted)
    );
    println!(
        "  IHBO: +{:.0}% (paper: ~+64%)",
        pooled_increase(RoamingArch::IpxHubBreakout)
    );
    print!("per-country medians:");
    for spec in roam_world::World::device_campaign_specs() {
        if let (Some(e), Some(s)) = (
            country_median(spec.country, SimType::Esim),
            country_median(spec.country, SimType::Physical),
        ) {
            print!(" {}:{:+.0}%", spec.country.alpha3(), (e / s - 1.0) * 100.0);
        }
    }
    println!();

    // All latency measurements: traceroute final-hop RTTs plus the
    // single-shot speedtest pings (which, unlike mtr's best-of-3, do keep
    // transient radio stalls).
    let rtt_of = |t: SimType| -> Vec<f64> {
        run.data
            .traces
            .iter()
            .filter(|r| r.tag.sim_type == t)
            .filter_map(|r| r.analysis.final_rtt_ms)
            .chain(
                run.data
                    .speedtests
                    .iter()
                    .filter(|r| r.tag.sim_type == t && r.status.is_ok())
                    .map(|r| r.latency_ms),
            )
            .collect()
    };
    let all_esim: Vec<f64> = rtt_of(SimType::Esim);
    let all_sim: Vec<f64> = rtt_of(SimType::Physical);
    let e150 = Ecdf::new(&all_esim).expect("non-empty").frac_above(150.0) * 100.0;
    let s150 = Ecdf::new(&all_sim).expect("non-empty").frac_above(150.0) * 100.0;
    println!(
        "\nshare of RTTs above 150 ms: eSIM {e150:.1}% vs SIM {s150:.1}% \
              (paper: 14.5% vs 3%)"
    );

    let roaming_sim: Vec<f64> = run
        .data
        .traces
        .iter()
        .filter(|r| r.tag.sim_type == SimType::Physical && !native.contains(&r.tag.country))
        .filter_map(|r| r.analysis.final_rtt_ms)
        .collect();
    let roaming_esim: Vec<f64> = run
        .data
        .traces
        .iter()
        .filter(|r| r.tag.sim_type == SimType::Esim && !native.contains(&r.tag.country))
        .filter_map(|r| r.analysis.final_rtt_ms)
        .collect();
    let t1 = welch_t_test(&roaming_sim, &roaming_esim).expect("samples");
    println!(
        "\nWelch t-test, SIM vs eSIM RTT (roaming countries): p = {:.2e} \
              (paper: 7.65e-5, significant)",
        t1.p_value
    );

    let nat_sim: Vec<f64> = run
        .data
        .traces
        .iter()
        .filter(|r| r.tag.sim_type == SimType::Physical && native.contains(&r.tag.country))
        .filter_map(|r| r.analysis.final_rtt_ms)
        .collect();
    let nat_esim: Vec<f64> = run
        .data
        .traces
        .iter()
        .filter(|r| r.tag.sim_type == SimType::Esim && native.contains(&r.tag.country))
        .filter_map(|r| r.analysis.final_rtt_ms)
        .collect();
    let t2 = welch_t_test(&nat_sim, &nat_esim).expect("samples");
    println!(
        "Welch t-test, SIM vs eSIM RTT (native countries):  p = {:.3} \
              (paper: 0.152, not significant)",
        t2.p_value
    );

    let lev = levene_test(&[&all_sim, &all_esim], LeveneCenter::Median).expect("groups");
    println!(
        "Levene variance test, SIM vs eSIM: p = {:.3} (paper: 0.025 — eSIMs vary more)",
        lev.p_value
    );
}
