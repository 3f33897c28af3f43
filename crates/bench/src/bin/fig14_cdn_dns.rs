//! Figure 14: (a) Cloudflare download time of jquery.min.js and (b) DNS
//! lookup time, per country and configuration.
//!
//! Paper anchors: HR eSIMs 481% (PAK) / 360% (ARE) slower than physical on
//! CDN; IHBO averages 1316 ms on Cloudflare — worse than native (306/514)
//! but far better than HR (3203/1781); HR DNS +610%/+517% medians; IHBO
//! DNS +103%…+616% (DoH-inflated Google resolvers near the PGW).
//!
//! Both panels run as streaming queries over the campaign's columnar `Cdn`
//! and `Dns` tables: one export walk per dataset builds the column pages,
//! then every figure row is a filter + `values` scan over the chunks.
//! Delivered records are `status ∈ {ok, failover}` — the columnar spelling
//! of `MeasureStatus::is_ok`.

use roam_bench::{boxplot_row, CampaignRunner, Env};
use roam_cellular::SimType;
use roam_columnar::{Query, Table};
use roam_geo::Country;
use roam_ipx::RoamingArch;
use roam_measure::{ColumnarSink, Dataset, Exporter};
use roam_stats::{median, Summary};

/// `MeasureStatus::is_ok` as a status-column filter.
const DELIVERED: [&str; 2] = ["ok", "failover"];

fn main() {
    let env = Env::process().run().unwrap_or_else(|e| e.exit());
    let run = CampaignRunner::new(2024).knobs(env).scale(0.4).run();
    let mut sink = ColumnarSink::new();
    run.data.export_rows(Dataset::Cdn, &mut sink);
    run.data.export_rows(Dataset::Dns, &mut sink);
    let tables = sink.into_tables();
    let table = |ds: Dataset| -> &Table {
        tables
            .iter()
            .find(|(d, _)| *d == ds)
            .map(|(_, t)| t)
            .expect("exported above")
    };
    let cdn = table(Dataset::Cdn);
    let dns = table(Dataset::Dns);

    println!("Figure 14a — Cloudflare jquery.min.js download time (ms)\n");
    for spec in roam_world::World::device_campaign_specs() {
        for (label, sim) in [("SIM", "sim"), ("eSIM", "esim")] {
            let v = Query::new(cdn)
                .eq("country", spec.country.alpha3())
                .eq("sim", sim)
                .eq("provider", "Cloudflare")
                .any_of("status", &DELIVERED)
                .values("total_ms");
            println!(
                "{}",
                boxplot_row(&format!("{} {label}", spec.country.alpha3()), &v)
            );
        }
    }

    let cf_mean = |arch: RoamingArch| -> f64 {
        let v = Query::new(cdn)
            .eq("arch", arch.label())
            .eq("sim", "esim")
            .eq("provider", "Cloudflare")
            .any_of("status", &DELIVERED)
            .values("total_ms");
        Summary::from(&v).map(|s| s.mean).unwrap_or(f64::NAN)
    };
    println!("\nCloudflare mean by eSIM architecture:");
    println!(
        "  native: {:.0} ms (paper: 306 KOR / 514 THA)",
        cf_mean(RoamingArch::Native)
    );
    println!(
        "  IHBO:   {:.0} ms (paper: 1316)",
        cf_mean(RoamingArch::IpxHubBreakout)
    );
    println!(
        "  HR:     {:.0} ms (paper: 3203 PAK / 1781 ARE)",
        cf_mean(RoamingArch::HomeRouted)
    );

    let pct = |c: Country| -> f64 {
        let m = |sim: &str| {
            let v = Query::new(cdn)
                .eq("country", c.alpha3())
                .eq("sim", sim)
                .any_of("status", &DELIVERED)
                .values("total_ms");
            Summary::from(&v).map(|s| s.mean).unwrap_or(f64::NAN)
        };
        (m("esim") / m("sim") - 1.0) * 100.0
    };
    println!(
        "\nall-CDN eSIM-over-SIM increases: PAK +{:.0}% (paper +481%), \
              ARE +{:.0}% (paper +360%), DEU +{:.0}% (paper +45.4%), QAT +{:.0}% (paper +181%)",
        pct(Country::PAK),
        pct(Country::ARE),
        pct(Country::DEU),
        pct(Country::QAT)
    );

    println!("\nFigure 14b — DNS lookup times (ms)\n");
    for spec in roam_world::World::device_campaign_specs() {
        for (label, sim) in [("SIM", "sim"), ("eSIM", "esim")] {
            let v = Query::new(dns)
                .eq("country", spec.country.alpha3())
                .eq("sim", sim)
                .any_of("status", &DELIVERED)
                .values("lookup_ms");
            println!(
                "{}",
                boxplot_row(&format!("{} {label}", spec.country.alpha3()), &v)
            );
        }
    }

    let dns_increase = |c: Country| -> f64 {
        let m = |sim: &str| {
            let v = Query::new(dns)
                .eq("country", c.alpha3())
                .eq("sim", sim)
                .any_of("status", &DELIVERED)
                .values("lookup_ms");
            median(&v).unwrap_or(f64::NAN)
        };
        (m("esim") / m("sim") - 1.0) * 100.0
    };
    println!(
        "\nmedian DNS increases, eSIM over SIM: PAK +{:.0}% (paper +610%), \
              ARE +{:.0}% (paper +517%), DEU +{:.0}% (paper +103%), QAT +{:.0}% (paper +616%)",
        dns_increase(Country::PAK),
        dns_increase(Country::ARE),
        dns_increase(Country::DEU),
        dns_increase(Country::QAT)
    );

    // Resolver placement for IHBO sessions (the 74% same-country figure).
    // This one stays on the records: the geographic join against the
    // endpoint pool (City → Country) lives outside the dataset schema.
    let ihbo_dns: Vec<&roam_measure::DnsRecord> = run
        .data
        .dns
        .iter()
        .filter(|r| r.tag.arch == RoamingArch::IpxHubBreakout && r.tag.sim_type == SimType::Esim)
        .collect();
    let same_country = ihbo_dns
        .iter()
        .filter(|r| {
            run.esims().any(|e| {
                e.country == r.tag.country
                    && r.resolver_city
                        .is_some_and(|c| e.att.breakout_city.country() == c.country())
            })
        })
        .count();
    println!(
        "\nIHBO queries answered in the PGW's country: {:.0}% (paper: 74%)",
        same_country as f64 / ihbo_dns.len().max(1) as f64 * 100.0
    );
}
