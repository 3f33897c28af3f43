//! Output digests pinned for two seeds per workload. A run's digest is
//! FNV-1a-64 over the digests of its worlds' outputs, in world order
//! (see `Ctx::world`). A run on a pinned seed must reproduce it exactly;
//! a run on any other seed is checked by the workload's own relations
//! (round-to-round identity, a reference run, or a direct fold), which
//! the pinned seeds exercise too.

/// `(workload, seed, output, FNV-1a-64 digest)`.
pub const PINS: &[(&str, u64, &str, u64)] = &[
    ("fleet-population", 1, "report", 0xe8ee_bc7d_d848_c55f),
    ("fleet-population", 2, "report", 0xea08_f5e8_ce9a_680b),
    ("fleet-chaos-resume", 1, "report", 0xdca6_4a4c_5a05_d587),
    ("fleet-chaos-resume", 2, "report", 0x77f2_01ca_2c00_ebf2),
    ("agent-soak", 1, "report", 0x0f2f_cc63_e878_1b5c),
    ("agent-soak", 1, "sessions_csv", 0x07b4_65c2_a043_5a48),
    ("agent-soak", 2, "report", 0xe67e_e860_d188_527e),
    ("agent-soak", 2, "sessions_csv", 0x833f_0dd2_3abd_1fbd),
    ("export-query", 1, "answers", 0xcf2a_b00c_23c3_15f4),
    ("export-query", 2, "answers", 0x4ac2_b12a_62f0_0618),
];

/// The seeds with pinned digests.
pub const PINNED_SEEDS: [u64; 2] = [1, 2];

/// Compare `got` with the pin for `(workload, seed, what)`, if any.
///
/// # Errors
/// A message with both digests when the pin differs.
pub fn check(workload: &str, seed: u64, what: &str, got: u64) -> Result<(), String> {
    match PINS
        .iter()
        .find(|(w, s, o, _)| *w == workload && *s == seed && *o == what)
    {
        Some(&(_, _, _, want)) if want != got => Err(format!(
            "{workload}: {what} digest {got:#018x} for seed {seed} differs from the pinned {want:#018x}"
        )),
        _ => Ok(()),
    }
}
