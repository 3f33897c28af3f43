//! Fault injection: the methodology must stay sound when the network is
//! hostile — lossy radio links, silent CG-NATs, dead services. This is the
//! smoltcp discipline: adverse conditions are part of the test matrix, not
//! an afterthought.

use roamsim::core::analyze_traceroute;
use roamsim::geo::{City, Country};
use roamsim::measure::{mtr, ookla_speedtest_checked, Service};
use roamsim::netsim::link::LatencyModel;
use roamsim::netsim::{Network, NodeKind, TracerouteOpts};
use roamsim::world::World;

#[test]
fn demarcation_survives_heavy_probe_loss() {
    let mut net = Network::new(77);
    let h = net.add_node(
        "h",
        NodeKind::Host,
        City::Berlin,
        "10.0.0.2".parse().unwrap(),
    );
    let r = net.add_node(
        "r",
        NodeKind::Router,
        City::Berlin,
        "10.0.0.1".parse().unwrap(),
    );
    let nat = net.add_node(
        "nat",
        NodeKind::CgNat,
        City::Amsterdam,
        "147.75.81.1".parse().unwrap(),
    );
    let sp = net.add_node(
        "sp",
        NodeKind::SpEdge,
        City::Amsterdam,
        "142.250.0.1".parse().unwrap(),
    );
    let lossy = net.link_with(h, r, LatencyModel::fixed(12.0, 3.0), 0.0);
    net.link_with(r, nat, LatencyModel::fixed(8.0, 2.0), 0.0);
    net.link_with(nat, sp, LatencyModel::fixed(1.0, 0.5), 0.0);
    net.set_link_loss(lossy, 0.3);

    let tr = net.traceroute(
        h,
        sp,
        TracerouteOpts {
            max_ttl: 10,
            probes_per_hop: 10,
        },
    );
    let pa = analyze_traceroute(&tr, net.registry());
    assert!(pa.reached, "30% loss with 10 probes/hop still completes");
    assert_eq!(pa.private_len, 1);
    assert_eq!(pa.pgw_ip, Some("147.75.81.1".parse().unwrap()));
}

#[test]
fn silent_cgnat_degrades_gracefully() {
    // The Qatari gateway is ICMP-silent in the calibrated world; the
    // physical SIM's traceroutes must still complete and classify.
    let mut world = World::build(78);
    let sim = world.attach_physical(Country::QAT);
    let out = mtr(
        &mut world.net,
        &sim,
        &world.internet.targets,
        Service::Facebook,
    )
    .expect("Facebook edge exists");
    assert!(out.analysis.reached, "silent hop must not kill the trace");
    // The demarcation shifts past the silent CG-NAT: the first *responding*
    // public hop belongs to the SP, so fewer unique ASNs are seen — exactly
    // the Fig. 6 anomaly ("only the SP's ASN … CG-NAT failing to respond").
    assert!(out.analysis.unique_public_asns <= 2);
    assert!(
        out.analysis.private_len >= 3,
        "silent hops count as private"
    );
}

#[test]
fn lossy_access_reduces_goodput_not_correctness() {
    let mut world = World::build(79);
    let ep = world.attach_esim(Country::PAK); // Jazz: loss-prone access
    let mut got = 0;
    for i in 0..10 {
        if let Ok(r) = ookla_speedtest_checked(
            &mut world.net,
            &ep,
            &world.internet.targets,
            &format!("ft/{i}"),
        ) {
            assert!(r.down_mbps > 0.0 && r.down_mbps < 50.0);
            assert!(r.latency_ms > 100.0, "HR latency survives loss");
            got += 1;
        }
    }
    assert!(got >= 8, "retries absorb sporadic loss: {got}/10");
}

#[test]
fn unreachable_service_returns_none_not_panic() {
    let mut world = World::build(80);
    let ep = world.attach_esim(Country::DEU);
    // A service with no nodes registered anywhere.
    let empty = roamsim::measure::ServiceTargets::new();
    assert!(mtr(&mut world.net, &ep, &empty, Service::Google).is_none());
    assert!(ookla_speedtest_checked(&mut world.net, &ep, &empty, "ft/0").is_err());
}

#[test]
fn total_blackout_on_radio_link_fails_cleanly() {
    let mut net = Network::new(81);
    let a = net.add_node(
        "a",
        NodeKind::Host,
        City::Paris,
        "10.0.0.1".parse().unwrap(),
    );
    let b = net.add_node(
        "b",
        NodeKind::SpEdge,
        City::Paris,
        "1.1.1.1".parse().unwrap(),
    );
    let l = net.link_with(a, b, LatencyModel::fixed(10.0, 1.0), 0.0);
    net.set_link_loss(l, 1.0);
    assert!(net.ping(a, b).is_none());
    assert!(
        net.rtt_ms(a, b).is_none(),
        "all retries fail under 100% loss"
    );
    let tr = net.traceroute(a, b, TracerouteOpts::default());
    assert!(!tr.reached);
    assert!(tr.hops.iter().all(|h| !h.responded()));
}
