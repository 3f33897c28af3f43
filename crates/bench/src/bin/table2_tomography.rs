//! Table 2: b-MNO → PGW provider/country/type for the 21 roaming eSIMs.
//!
//! Paper shape: 6 b-MNOs; Singtel rows are HR in SGP; Play/Telna alternate
//! Packet Host (NLD) and OVH (FRA); Telecom Italia → Wireless Logic (GBR);
//! Orange → Webbing (NLD, USA); Polkomtel → Packet Host (USA).
//!
//! The classification tallies run as streaming queries over a columnar
//! view of the inventory: each Table-2 row flattens to an `(arch,
//! farther-than-home)` pair of enum columns, and every count below is a
//! filtered scan over the chunks.

use roam_bench::{CampaignRunner, Env};
use roam_columnar::{field, CellValue, ColKind, Query, Schema, TableBuilder};
use roam_core::TomographyReport;
use roam_ipx::RoamingArch;

fn main() {
    let env = Env::process().run().unwrap_or_else(|e| e.exit());
    // Several attachments per country so provider alternation is observed.
    // All knobs (ROAM_PARALLEL / ROAM_TELEMETRY) come from
    // the environment; none of them may change a byte of this output.
    let run = CampaignRunner::new(2024).knobs(env).run_survey(6);
    let (world, obs) = (&run.world, &run.observations);
    let report = TomographyReport::build(obs, world.net.registry());

    println!("Table 2 — PGW providers of the roaming eSIMs (measured)\n");
    print!("{}", report.table2());

    let arch_labels = [
        RoamingArch::Native,
        RoamingArch::HomeRouted,
        RoamingArch::LocalBreakout,
        RoamingArch::IpxHubBreakout,
    ]
    .map(|a| a.label());
    let mut b = TableBuilder::new(Schema::new(vec![
        field("arch", ColKind::enumeration(&arch_labels)),
        field("farther", ColKind::enumeration(&["false", "true"])),
    ]));
    for row in &report.rows {
        let code = arch_labels
            .iter()
            .position(|&l| l == row.arch.label())
            .expect("arch label in enum") as u8;
        b.push_row(&[
            CellValue::Code(code),
            CellValue::Code(u8::from(row.breakout_farther_than_home)),
        ]);
    }
    let inventory = b.finish();
    let count = |arch: RoamingArch| Query::new(&inventory).eq("arch", arch.label()).count();

    let native = count(RoamingArch::Native);
    let hr = count(RoamingArch::HomeRouted);
    let ihbo = count(RoamingArch::IpxHubBreakout);
    let lbo = count(RoamingArch::LocalBreakout);
    println!("\nclassification: {native} native, {hr} HR, {ihbo} IHBO, {lbo} LBO");
    println!("paper:          3 native, 5 HR, 16 IHBO, 0 LBO");

    let far = Query::new(&inventory)
        .eq("arch", RoamingArch::IpxHubBreakout.label())
        .eq("farther", "true")
        .count();
    let total = ihbo;
    println!("\nIHBO breakouts farther than the b-MNO country: {far}/{total} (paper: 8/16)");

    // Empty string when ROAM_TELEMETRY is off/unset.
    print!("{}", run.telemetry.render());
}
