//! Cross-crate integration: the full pipeline from marketplace to paper
//! findings, at reduced sample counts.

use roamsim::cellular::SimType;
use roamsim::core::TomographyReport;
use roamsim::geo::{City, Country};
use roamsim::ipx::RoamingArch;
use roamsim::measure::{
    fetch_jquery, mtr, ookla_speedtest, play_youtube, resolve_checked, run_device_campaign,
    CdnProvider, DeviceCampaignSpec, Service,
};
use roamsim::stats::median;
use roamsim::world::World;

#[test]
fn hr_ihbo_native_latency_ordering_holds() {
    let mut world = World::build(11);
    let mut rtt = |country: Country| {
        let ep = world.attach_esim(country);
        mtr(
            &mut world.net,
            &ep,
            &world.internet.targets,
            Service::Google,
        )
        .and_then(|o| o.analysis.final_rtt_ms)
        .expect("Google reachable")
    };
    let hr = rtt(Country::PAK);
    let ihbo = rtt(Country::DEU);
    let native = rtt(Country::THA);
    assert!(hr > 2.0 * ihbo, "HR ({hr:.0}) must dwarf IHBO ({ihbo:.0})");
    assert!(ihbo > native * 0.9, "IHBO is not faster than native");
    assert!(hr > 150.0, "HR is in the 'less desirable' band");
}

#[test]
fn classification_of_all_24_countries_matches_table2() {
    let mut world = World::build(12);
    let mut endpoints = Vec::new();
    for c in world.measured_countries() {
        for _ in 0..4 {
            endpoints.push(world.attach_esim(c));
        }
    }
    // Group by country, classify from public IPs via the registry.
    let mut obs = std::collections::BTreeMap::new();
    for ep in &endpoints {
        let b = world.ops.dir.get(ep.att.b_mno);
        let v = world.ops.dir.get(ep.att.v_mno);
        let e = obs
            .entry(ep.country)
            .or_insert_with(|| roamsim::core::EsimObservation {
                visited: ep.country,
                b_mno_name: b.name.clone(),
                b_mno_country: b.country,
                b_mno_asn: b.asn,
                v_mno_asn: v.asn,
                user_city: City::sgw_city_for(ep.country).expect("measured"),
                public_ips: vec![],
            });
        e.public_ips.push(ep.att.public_ip);
    }
    let observations: Vec<_> = obs.into_values().collect();
    let report = TomographyReport::build(&observations, world.net.registry());
    assert_eq!(report.rows.len(), 24);
    assert_eq!(report.by_arch(RoamingArch::Native).len(), 3);
    assert_eq!(report.by_arch(RoamingArch::HomeRouted).len(), 5);
    assert_eq!(report.by_arch(RoamingArch::IpxHubBreakout).len(), 16);
    assert!(
        report.by_arch(RoamingArch::LocalBreakout).is_empty(),
        "no LBO observed"
    );
    assert_eq!(report.suboptimal_breakouts(), (8, 16), "the §4.2 headline");
}

#[test]
fn device_campaign_produces_coherent_records() {
    let mut world = World::build(13);
    let sim = world.attach_physical(Country::PAK);
    let esim = world.attach_esim(Country::PAK);
    let data = run_device_campaign(
        &mut world.net,
        &sim,
        &esim,
        &DeviceCampaignSpec::smoke(),
        &world.internet.targets,
    );
    // Counts: 2 endpoints × spec.
    assert_eq!(data.speedtests.len(), 6);
    assert_eq!(data.traces.len(), 2 * 3 * 3);
    assert_eq!(data.cdns.len(), 2 * 5 * 2);
    assert_eq!(data.dns.len(), 6);
    assert_eq!(data.videos.len(), 4);
    // SIM faster than HR eSIM on every axis (paper's core comparison).
    let m = |t: SimType, f: &dyn Fn(&roamsim::measure::TraceRecord) -> Option<f64>| {
        let v: Vec<f64> = data
            .traces
            .iter()
            .filter(|r| r.tag.sim_type == t)
            .filter_map(f)
            .collect();
        median(&v).expect("non-empty")
    };
    let rtt = |r: &roamsim::measure::TraceRecord| r.analysis.final_rtt_ms;
    assert!(m(SimType::Physical, &rtt) * 3.0 < m(SimType::Esim, &rtt));
}

#[test]
fn measurement_clients_work_on_every_archetype() {
    let mut world = World::build(14);
    for country in [Country::PAK, Country::DEU, Country::KOR] {
        let ep = world.attach_esim(country);
        assert!(
            ookla_speedtest(&mut world.net, &ep, &world.internet.targets, "e2e/st").is_some(),
            "{country} speedtest"
        );
        assert!(
            fetch_jquery(
                &mut world.net,
                &ep,
                &world.internet.targets,
                CdnProvider::Cloudflare,
                Default::default(),
                "e2e/cdn"
            )
            .is_some(),
            "{country} cdn"
        );
        assert!(
            resolve_checked(&mut world.net, &ep, &world.internet.targets, "e2e/dns").is_ok(),
            "{country} dns"
        );
        assert!(
            play_youtube(&mut world.net, &ep, &world.internet.targets, "e2e/video").is_some(),
            "{country} video"
        );
    }
}

#[test]
fn dns_mode_follows_architecture() {
    let mut world = World::build(15);
    // HR: operator resolver in Singapore.
    let hr = world.attach_esim(Country::PAK);
    let r = resolve_checked(&mut world.net, &hr, &world.internet.targets, "d/0")
        .expect("resolver reachable");
    assert!(!r.doh);
    assert_eq!(
        r.resolver_city,
        City::Singapore,
        "HR resolves in the b-MNO's core"
    );
    // IHBO: Google DoH near the PGW.
    let ihbo = world.attach_esim(Country::GEO);
    let r2 = resolve_checked(&mut world.net, &ihbo, &world.internet.targets, "d/1")
        .expect("resolver reachable");
    assert!(r2.doh, "IHBO uses DoH (the forgotten Android default)");
    let pgw_country = ihbo.att.breakout_city.country();
    // Anycast may flip to the second-nearest site, but it stays regional.
    let d = r2
        .resolver_city
        .location()
        .distance_km(ihbo.att.breakout_city.location());
    assert!(
        r2.resolver_city.country() == pgw_country || d < 1200.0,
        "resolver {} too far from PGW {}",
        r2.resolver_city,
        ihbo.att.breakout_city
    );
}

#[test]
fn hr_video_is_pinned_at_720p_despite_bandwidth() {
    let mut world = World::build(16);
    let ep = world.attach_esim(Country::ARE);
    assert!(ep.youtube_cap_mbps.is_some(), "Singtel throttles video");
    for i in 0..20 {
        let v = play_youtube(
            &mut world.net,
            &ep,
            &world.internet.targets,
            &format!("v/{i}"),
        )
        .expect("edge reachable");
        assert!(
            v.resolution <= roamsim::measure::Resolution::P720,
            "HR video must not exceed 720p, got {}",
            v.resolution
        );
    }
}
