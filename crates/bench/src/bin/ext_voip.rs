//! Extension experiment (the paper's §7 future work): jitter, loss and
//! VoIP quality per country and configuration.
//!
//! Expectation from the latency structure: native and most IHBO paths
//! sustain usable calls; HR paths (one-way delay past the E-model's
//! 177.3 ms knee) cannot.

use roam_bench::CampaignRunner;
use roam_measure::voip_probe;

fn main() {
    let mut run = CampaignRunner::from_env(2024).scale(0.05).run();

    println!("extension — VoIP quality (E-model MOS) per country/configuration\n");
    println!(
        "{:<12} {:>6} {:>9} {:>10} {:>7} {:>6} {:>6}  verdict",
        "country", "kind", "RTT ms", "jitter ms", "loss%", "R", "MOS"
    );
    // Endpoint node ids live in their own shard's world, so the probes
    // run against each country's shard world.
    for shard in &mut run.shards {
        let world = &mut shard.world;
        let sim = world.attach_physical(shard.country);
        let esim = world.attach_esim(shard.country);
        for (label, ep) in [("SIM", &sim), ("eSIM", &esim)] {
            let flow = format!("voip/{}/{label}", shard.country.alpha3());
            let Some(v) = voip_probe(&mut world.net, ep, &world.internet.targets, 40, &flow) else {
                continue;
            };
            println!(
                "{:<12} {:>6} {:>9.1} {:>10.2} {:>7.2} {:>6.1} {:>6.2}  {} ({})",
                shard.country.alpha3(),
                label,
                v.rtt_ms,
                v.jitter_ms,
                v.loss * 100.0,
                v.r_factor,
                v.mos,
                v.verdict(),
                ep.att.arch.label()
            );
        }
    }
    println!("\nreading: HR's GTP detour pushes one-way delay toward the E-model's");
    println!("interactivity knee — Pakistan's calls degrade outright, the UAE's sit at");
    println!("the edge — while IHBO and native paths stay comfortably usable.");
}
