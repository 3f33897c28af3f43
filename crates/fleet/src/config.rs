//! Fleet sizing and workload-mix knobs, as values.

/// Relative weights of the three measurement kinds a fleet session can
/// run: RTT probes, DNS lookups and bulk transfers, written
/// `rtt:dns:transfer` (e.g. `2:1:1`).
///
/// Only the *ratio* matters; a zero weight disables that kind. All-zero
/// mixes are rejected at parse time and by [`SessionMix::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionMix {
    /// Weight of RTT probes.
    pub rtt: u32,
    /// Weight of DNS lookups.
    pub dns: u32,
    /// Weight of bulk transfers.
    pub transfer: u32,
}

impl Default for SessionMix {
    fn default() -> Self {
        SessionMix {
            rtt: 2,
            dns: 1,
            transfer: 1,
        }
    }
}

impl SessionMix {
    /// A mix with the given weights.
    ///
    /// # Panics
    /// When every weight is zero — a session must do *something*.
    #[must_use]
    pub fn new(rtt: u32, dns: u32, transfer: u32) -> Self {
        assert!(rtt + dns + transfer > 0, "all-zero session mix");
        SessionMix { rtt, dns, transfer }
    }

    /// Total weight.
    #[must_use]
    pub fn total(&self) -> u32 {
        self.rtt + self.dns + self.transfer
    }

    /// Parse `rtt:dns:transfer`; `None` for malformed or all-zero input.
    #[must_use]
    pub fn parse(s: &str) -> Option<SessionMix> {
        let mut parts = s.trim().split(':');
        let rtt = parts.next()?.trim().parse().ok()?;
        let dns = parts.next()?.trim().parse().ok()?;
        let transfer = parts.next()?.trim().parse().ok()?;
        if parts.next().is_some() || rtt + dns + transfer == 0 {
            return None;
        }
        Some(SessionMix { rtt, dns, transfer })
    }
}

/// Everything that sizes a fleet run. Every field has an environment
/// counterpart (`ROAM_FLEET_*`), which the binaries parse in
/// `roam_service::config`; none of them can change the per-user byte
/// stream, only how many users run, how they are partitioned, and what
/// the report samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Synthetic subscribers to simulate (`ROAM_FLEET_USERS`).
    pub users: u64,
    /// Shards the population is split into (`ROAM_FLEET_SHARDS`). The
    /// report is byte-identical for every value ≥ 1.
    pub shards: usize,
    /// Calendar window the itineraries play out over, days
    /// (`ROAM_FLEET_DAYS`). Purchase prices drift across this window.
    pub days: u32,
    /// Capacity of the deterministic journey sample in the report
    /// (`ROAM_FLEET_SAMPLE`).
    pub sample: usize,
    /// Measurement mix per session (`ROAM_FLEET_MIX`, `rtt:dns:transfer`).
    pub mix: SessionMix,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            users: 10_000,
            shards: 4,
            days: 60,
            sample: 16,
            mix: SessionMix::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_parses_and_rejects() {
        assert_eq!(SessionMix::parse("2:1:1"), Some(SessionMix::default()));
        assert_eq!(SessionMix::parse(" 0:3:5 "), Some(SessionMix::new(0, 3, 5)));
        assert_eq!(SessionMix::parse("0:0:0"), None, "all-zero is no mix");
        assert_eq!(SessionMix::parse("1:2"), None);
        assert_eq!(SessionMix::parse("1:2:3:4"), None);
        assert_eq!(SessionMix::parse("a:b:c"), None);
    }

    #[test]
    #[should_panic(expected = "all-zero")]
    fn zero_mix_panics() {
        let _ = SessionMix::new(0, 0, 0);
    }

    #[test]
    fn defaults_are_sane() {
        let c = FleetConfig::default();
        assert_eq!(c.users, 10_000);
        assert!(c.shards >= 1 && c.days >= 1);
        assert_eq!(c.mix.total(), 4);
    }
}
