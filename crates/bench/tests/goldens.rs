//! Golden digests of the experiment binaries' stdout.
//!
//! Every `fig*`, `table*`, `ablation_*`, `val_*` and `ext_*` binary, the
//! fleet and service smoke harnesses (faults off and heavy), and the
//! `ROAM_TELEMETRY=jsonl` packet story of `table4_device_campaign` (faults
//! off and heavy) run as child processes. Each stdout is folded to an
//! FNV-1a-64 digest ([`roam_codec::hash64`]) and compared with the
//! checked-in table in `goldens.txt`. A refactor that keeps every report,
//! export and telemetry byte passes untouched; anything else fails and
//! prints the full recomputed table.
//!
//! `export_bench` is left out: its stdout carries wall-clock timings.
//!
//! Each child's environment is stripped of every `ROAM_*` variable, then
//! given only the knobs its case lists, so a developer's shell cannot
//! leak into the digests.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::OnceLock;

/// The only `ROAM_*` knobs a child sees.
type Knobs = &'static [(&'static str, &'static str)];

/// One child run: a label (the digest table's key), the binary, and its
/// knobs.
struct Case {
    label: String,
    bin: &'static str,
    env: Knobs,
}

macro_rules! bins {
    ($($name:literal),* $(,)?) => {
        [$(($name, env!(concat!("CARGO_BIN_EXE_", $name)))),*]
    };
}

const NO_ENV: Knobs = &[];

fn cases() -> Vec<Case> {
    let experiments = bins![
        "ablation_lbo",
        "ablation_pgw_selection",
        "ext_voip",
        "fig01_architectures",
        "fig02_taxonomy",
        "fig03_pgw_map",
        "fig04_as54825",
        "fig05_vmno_traffic",
        "fig06_unique_asns",
        "fig07_private_path",
        "fig08_hr_pgw_rtt",
        "fig09_ihbo_pgw_rtt",
        "fig10_public_path",
        "fig11_rtt_matrix",
        "fig12_private_share",
        "fig13_speeds",
        "fig14_cdn_dns",
        "fig15_video",
        "fig16_price_evolution",
        "fig17_provider_cdf",
        "fig18_country_map",
        "fig19_size_price",
        "fig20_cdn_others",
        "table1_suite",
        "table2_tomography",
        "table3_web_campaign",
        "table4_device_campaign",
        "val_emnify",
    ];
    let mut cases: Vec<Case> = experiments
        .iter()
        .map(|&(name, bin)| Case {
            label: name.to_string(),
            bin,
            env: NO_ENV,
        })
        .collect();
    let fleet = env!("CARGO_BIN_EXE_fleet_smoke");
    let service = env!("CARGO_BIN_EXE_service_smoke");
    let table4 = env!("CARGO_BIN_EXE_table4_device_campaign");
    let extra: [(&str, &'static str, Knobs); 6] = [
        ("fleet_smoke", fleet, &[("ROAM_FLEET_USERS", "20000")]),
        (
            "fleet_smoke",
            fleet,
            &[("ROAM_FLEET_USERS", "20000"), ("ROAM_FAULTS", "heavy")],
        ),
        ("service_smoke", service, NO_ENV),
        ("service_smoke", service, &[("ROAM_FAULTS", "heavy")]),
        (
            "table4_device_campaign",
            table4,
            &[("ROAM_TELEMETRY", "jsonl")],
        ),
        (
            "table4_device_campaign",
            table4,
            &[("ROAM_TELEMETRY", "jsonl"), ("ROAM_FAULTS", "heavy")],
        ),
    ];
    for (name, bin, env) in extra {
        let knobs: Vec<String> = env.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let label = if knobs.is_empty() {
            name.to_string()
        } else {
            format!("{name} {}", knobs.join(" "))
        };
        cases.push(Case { label, bin, env });
    }
    cases
}

fn run(case: &Case) -> String {
    let mut cmd = Command::new(case.bin);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("ROAM_") {
            cmd.env_remove(key);
        }
    }
    cmd.envs(case.env.iter().copied());
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("spawning {}: {e}", case.label));
    assert!(
        out.status.success(),
        "{} exited with {}:\n{}",
        case.label,
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap_or_else(|e| panic!("{} stdout: {e}", case.label))
}

/// Every case's stdout, keyed by label. Computed once per test process
/// (both tests read it), on at most two worker threads.
fn outputs() -> &'static BTreeMap<String, String> {
    static OUTPUTS: OnceLock<BTreeMap<String, String>> = OnceLock::new();
    OUTPUTS.get_or_init(|| {
        let cases = cases();
        let workers = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(2);
        let next = std::sync::atomic::AtomicUsize::new(0);
        let mut all = BTreeMap::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let Some(case) = cases.get(i) else { break };
                            mine.push((case.label.clone(), run(case)));
                        }
                        mine
                    })
                })
                .collect();
            for h in handles {
                all.extend(h.join().expect("golden worker panicked"));
            }
        });
        all
    })
}

fn output(label: &str) -> &'static str {
    outputs()
        .get(label)
        .unwrap_or_else(|| panic!("no golden case labelled {label:?}"))
}

/// `<16 hex digits>  <label>` lines; `#` starts a comment.
fn checked_in() -> BTreeMap<String, String> {
    include_str!("goldens.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (digest, label) = l.split_once("  ").expect("malformed golden line");
            (label.trim().to_string(), digest.to_string())
        })
        .collect()
}

#[test]
fn stdout_digests_match_the_checked_in_table() {
    let recomputed: BTreeMap<String, String> = outputs()
        .iter()
        .map(|(label, out)| {
            let digest = format!("{:016x}", roam_codec::hash64(out.as_bytes()));
            (label.clone(), digest)
        })
        .collect();
    let expected = checked_in();
    if recomputed != expected {
        let table: String = recomputed
            .iter()
            .map(|(label, digest)| format!("{digest}  {label}\n"))
            .collect();
        let diff: Vec<&str> = recomputed
            .keys()
            .chain(expected.keys())
            .filter(|k| recomputed.get(*k) != expected.get(*k))
            .map(String::as_str)
            .collect();
        panic!("golden digests differ for {diff:?}; recomputed table:\n{table}");
    }
}

/// The value after `prefix` on the first line that starts with it.
fn field<'a>(out: &'a str, prefix: &str) -> &'a str {
    out.lines()
        .find_map(|l| l.strip_prefix(prefix))
        .unwrap_or_else(|| panic!("no line starting with {prefix:?}"))
        .trim()
}

/// EXPERIMENTS.md's exact-count rows, checked against the bins' output.
#[test]
fn experiments_exact_counts_hold() {
    let emnify = output("val_emnify");
    assert_eq!(field(emnify, "traceroutes:"), "219 (paper: 219)");
    assert_eq!(
        field(emnify, "PGW inferred as AS16509 in Dublin:"),
        "219/219"
    );

    let table2 = output("table2_tomography");
    assert_eq!(
        field(table2, "classification:"),
        "3 native, 5 HR, 16 IHBO, 0 LBO"
    );
    // The §4.2 headline.
    assert!(
        field(table2, "IHBO breakouts farther than the b-MNO country:").starts_with("8/16 "),
        "§4.2: 8 of 16 IHBO eSIMs break out farther than the b-MNO country"
    );

    let table3 = output("table3_web_campaign");
    assert!(field(table3, "total completed measurements:").starts_with("116 "));

    let fig04 = output("fig04_as54825");
    assert!(
        field(fig04, "eSIMs breaking out in Virginia:").starts_with("FRA, UZB ("),
        "Virginia serves exactly FRA and UZB"
    );

    // Fig. 8: "  median 358 ms, share >150 ms: 100%" once per country,
    // PAK first, then ARE.
    let fig08 = output("fig08_hr_pgw_rtt");
    let summaries: Vec<(f64, &str)> = fig08
        .lines()
        .filter_map(|l| l.trim().strip_prefix("median "))
        .map(|rest| {
            let (ms, share) = rest.split_once(" ms, share >150 ms: ").expect("fig08 line");
            (ms.parse().expect("fig08 median"), share)
        })
        .collect();
    let pak_at = fig08.find("PAK eSIM").expect("PAK block");
    let are_at = fig08.find("ARE eSIM").expect("ARE block");
    assert!(pak_at < are_at, "fig08 prints PAK before ARE");
    let [(pak, pak_share), (are, are_share)] = summaries[..] else {
        panic!("fig08 must print two medians, got {summaries:?}");
    };
    assert!(are < pak, "ARE median {are} must sit below PAK's {pak}");
    assert_eq!((pak_share, are_share), ("100%", "100%"));
}
