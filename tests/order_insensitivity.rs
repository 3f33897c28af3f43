//! Order insensitivity: every measurement in a device-campaign plan runs
//! on its own flow, keyed by the attachment's flow stamp and the plan
//! entry's label — never by execution order. Permuting the plan must
//! therefore permute the records and change nothing else.

use roamsim::geo::Country;
use roamsim::measure::{
    run_measurement, CampaignData, DeviceCampaignSpec, Endpoint, Exporter, PlannedMeasurement,
};
use roamsim::netsim::Network;
use roamsim::world::World;

/// Run one plan entry in isolation and serialize whatever it produced.
/// The CSV exporters cover every record field, so two entries with equal
/// serializations produced byte-identical records.
fn run_one(
    net: &mut Network,
    ep: &Endpoint,
    targets: &roamsim::measure::ServiceTargets,
    m: PlannedMeasurement,
) -> String {
    let mut data = CampaignData::default();
    run_measurement(net, ep, targets, m, &mut data);
    data.export_all()
        .into_iter()
        .map(|(_, csv)| csv)
        .collect::<String>()
}

/// Execute `plan` in the given order, returning each entry's serialized
/// records keyed by the entry itself.
fn run_plan(
    world: &mut World,
    ep: &Endpoint,
    plan: &[PlannedMeasurement],
) -> Vec<(PlannedMeasurement, String)> {
    plan.iter()
        .map(|&m| (m, run_one(&mut world.net, ep, &world.internet.targets, m)))
        .collect()
}

#[test]
fn permuted_plan_yields_identical_records_per_flow_key() {
    let mut world = World::build(29);
    let ep = world.attach_esim(Country::PAK);
    let spec = DeviceCampaignSpec {
        ookla: (2, 2),
        mtr_per_target: (1, 1),
        cdn_per_provider: (1, 1),
        dns: (2, 2),
        video: (2, 2),
    };
    let plan = spec.plan(ep.sim_type);
    assert!(plan.len() > 8, "plan is large enough to permute");

    let forward = run_plan(&mut world, &ep, &plan);

    // Reversal and rotation together exercise every relative reordering
    // class that matters: first-vs-last swaps and mid-plan shifts.
    let mut reversed_plan = plan.clone();
    reversed_plan.reverse();
    let mut rotated_plan = plan.clone();
    rotated_plan.rotate_left(plan.len() / 2);

    for permuted_plan in [reversed_plan, rotated_plan] {
        let permuted = run_plan(&mut world, &ep, &permuted_plan);
        for (m, bytes) in &forward {
            let (_, permuted_bytes) = permuted
                .iter()
                .find(|(pm, _)| pm == m)
                .expect("permutation preserves the entry set");
            assert_eq!(
                bytes, permuted_bytes,
                "records for {m:?} changed when the plan order changed"
            );
        }
    }
}
