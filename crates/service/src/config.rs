//! Service sizing knobs: how many users the agent tends, how they are
//! grouped into cohorts, and the cadences its recurring jobs run at.
//!
//! Every field has a `ROAM_SERVICE_*` environment counterpart read by
//! [`ServiceConfig::from_env`]. Like the fleet knobs, none of them can
//! change a *user's* byte stream — they size the population, the tick
//! calendar and the export queue. The measurement mix and journey-sample
//! capacity are shared with the fleet plane (`ROAM_FLEET_MIX`,
//! `ROAM_FLEET_SAMPLE`) because cohort ticks run through the same
//! plan/exec/merge pipeline.

use roam_fleet::config::env_parse;
use roam_fleet::{FleetConfig, SessionMix};

/// Everything that sizes the long-running agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Users across all cohorts at start (`ROAM_SERVICE_USERS`).
    pub users: u64,
    /// Cohorts the population is split into (`ROAM_SERVICE_COHORTS`).
    /// Each owns a disjoint uid namespace, so the split never changes
    /// any user's streams — only which tick they ride on.
    pub cohorts: usize,
    /// Sim-days between cohort ticks, which is also the calendar window
    /// each tick plays out (`ROAM_SERVICE_TICK_DAYS`).
    pub tick_days: u32,
    /// Vantage probe sessions per country per probe fire
    /// (`ROAM_SERVICE_PROBES`). Probes alternate RTT and DNS.
    pub probes: u32,
    /// Cohort time-to-live in ticks (`ROAM_SERVICE_TTL`); `0` means
    /// cohorts never expire (incompatible with `--until-idle`).
    pub ttl_ticks: u64,
    /// Per-tick churn bound, percent of the cohort's live users
    /// (`ROAM_SERVICE_CHURN`). Departures and arrivals are drawn
    /// independently from `0..=live*pct/100` on the tick's own stream.
    pub churn_pct: u32,
    /// Export queue capacity in records (`ROAM_SERVICE_QUEUE`). When the
    /// queue fills, the virtual clock blocks while it drains into the
    /// sink — records are never dropped.
    pub queue_cap: usize,
    /// Sim-days between agent checkpoints (`ROAM_SERVICE_CKPT`), when a
    /// checkpoint directory is configured.
    pub ckpt_days: u64,
    /// Journey-sample capacity, shared knob (`ROAM_FLEET_SAMPLE`).
    pub sample: usize,
    /// Measurement mix per session, shared knob (`ROAM_FLEET_MIX`).
    pub mix: SessionMix,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let fleet = FleetConfig::default();
        ServiceConfig {
            users: 2_000,
            cohorts: 3,
            tick_days: 7,
            probes: 4,
            ttl_ticks: 0,
            churn_pct: 10,
            queue_cap: 8_192,
            ckpt_days: 7,
            sample: fleet.sample,
            mix: fleet.mix,
        }
    }
}

/// Why a [`ServiceConfig`] cannot drive an agent. Every variant is a
/// startup refusal with the offending value in the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceConfigError {
    /// `cohorts == 0`: there is nobody to tick.
    NoCohorts,
    /// `users == 0`: an empty population never produces a record.
    NoUsers,
    /// `churn_pct > 100`: a tick cannot retire more users than live.
    ChurnOverFull {
        /// The out-of-range percentage.
        pct: u32,
    },
    /// `--until-idle` with `ttl_ticks == 0`: immortal cohorts never
    /// drain, so the run would have no end.
    UntilIdleNeedsTtl,
}

impl std::fmt::Display for ServiceConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceConfigError::NoCohorts => write!(f, "ROAM_SERVICE_COHORTS must be >= 1"),
            ServiceConfigError::NoUsers => write!(f, "ROAM_SERVICE_USERS must be >= 1"),
            ServiceConfigError::ChurnOverFull { pct } => {
                write!(f, "ROAM_SERVICE_CHURN must be <= 100 percent; got {pct}")
            }
            ServiceConfigError::UntilIdleNeedsTtl => write!(
                f,
                "--until-idle requires a finite cohort TTL (ROAM_SERVICE_TTL >= 1): \
                 immortal cohorts never drain"
            ),
        }
    }
}

impl std::error::Error for ServiceConfigError {}

impl ServiceConfig {
    /// Defaults overridden by whichever `ROAM_SERVICE_*` variables are
    /// set; the shared `ROAM_FLEET_MIX` / `ROAM_FLEET_SAMPLE` go through
    /// [`FleetConfig::from_env`]. Malformed values fall back to the
    /// default.
    #[must_use]
    pub fn from_env() -> Self {
        let d = ServiceConfig::default();
        let fleet = FleetConfig::from_env();
        ServiceConfig {
            users: env_parse("ROAM_SERVICE_USERS").unwrap_or(d.users),
            cohorts: env_parse("ROAM_SERVICE_COHORTS").unwrap_or(d.cohorts),
            tick_days: env_parse("ROAM_SERVICE_TICK_DAYS")
                .unwrap_or(d.tick_days)
                .max(1),
            probes: env_parse("ROAM_SERVICE_PROBES").unwrap_or(d.probes).max(1),
            ttl_ticks: env_parse("ROAM_SERVICE_TTL").unwrap_or(d.ttl_ticks),
            churn_pct: env_parse("ROAM_SERVICE_CHURN").unwrap_or(d.churn_pct),
            queue_cap: env_parse("ROAM_SERVICE_QUEUE")
                .unwrap_or(d.queue_cap)
                .max(1),
            ckpt_days: env_parse("ROAM_SERVICE_CKPT").unwrap_or(d.ckpt_days).max(1),
            sample: fleet.sample,
            mix: fleet.mix,
        }
    }

    /// Structural validation shared by the agent constructor and the
    /// checkpoint decoder.
    pub fn validate(&self) -> Result<(), ServiceConfigError> {
        if self.cohorts == 0 {
            return Err(ServiceConfigError::NoCohorts);
        }
        if self.users == 0 {
            return Err(ServiceConfigError::NoUsers);
        }
        if self.churn_pct > 100 {
            return Err(ServiceConfigError::ChurnOverFull {
                pct: self.churn_pct,
            });
        }
        Ok(())
    }

    /// The fleet sizing a cohort tick runs under: the tick window is the
    /// calendar window, the mix and sample are the shared knobs, and the
    /// fleet's own `users`/`shards` are ignored by [`UserBatch`]
    /// (the batch's uid range and sub-shard split replace them).
    ///
    /// [`UserBatch`]: roam_fleet::UserBatch
    #[must_use]
    pub fn fleet(&self) -> FleetConfig {
        FleetConfig {
            users: self.users,
            shards: 1,
            days: self.tick_days,
            sample: self.sample,
            mix: self.mix,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        let c = ServiceConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.fleet().days, c.tick_days);
        assert_eq!(c.fleet().mix, c.mix);
    }

    #[test]
    fn out_of_range_knobs_are_refused() {
        let c = ServiceConfig {
            cohorts: 0,
            ..ServiceConfig::default()
        };
        assert_eq!(c.validate(), Err(ServiceConfigError::NoCohorts));
        let c = ServiceConfig {
            users: 0,
            ..ServiceConfig::default()
        };
        assert_eq!(c.validate(), Err(ServiceConfigError::NoUsers));
        let c = ServiceConfig {
            churn_pct: 101,
            ..ServiceConfig::default()
        };
        assert_eq!(
            c.validate(),
            Err(ServiceConfigError::ChurnOverFull { pct: 101 })
        );
        let msg = ServiceConfigError::ChurnOverFull { pct: 101 }.to_string();
        assert!(msg.contains("101"), "{msg}");
    }
}
