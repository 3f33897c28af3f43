//! Roaming architectures and per-b-MNO breakout configuration.
//!
//! Figure 1 of the paper defines the three data-path shapes for a roaming
//! subscriber; the key structural difference is *who owns the PGW that
//! assigns the public IP*:
//!
//! | architecture | PGW owner            | GTP tunnel runs to            |
//! |--------------|----------------------|-------------------------------|
//! | HR           | the b-MNO, at home   | the home country              |
//! | LBO          | the v-MNO, locally   | stays inside the v-MNO        |
//! | IHBO         | a third party (IPX)  | wherever the hub sits         |
//!
//! The paper finds Airalo uses HR (via Singtel) and IHBO (via four third-
//! party providers) but never LBO, "likely due to a lack of trust among
//! MNOs regarding roamer records and charges" (§4.2). LBO is implemented
//! here anyway: the conclusion names it as the evolution path, and the
//! ablation benchmarks quantify what Airalo would gain from it.

use crate::provider::PgwProviderId;

/// The three roaming data-path architectures (plus the degenerate native
/// case, which is not roaming at all but appears throughout the analysis as
/// the baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RoamingArch {
    /// Not roaming: the SIM is used on its issuing operator's network.
    Native,
    /// Home-Routed roaming: tunnel back to the b-MNO's home PGW.
    HomeRouted,
    /// Local Breakout at the v-MNO.
    LocalBreakout,
    /// IPX Hub Breakout at a third-party PGW.
    IpxHubBreakout,
}

impl RoamingArch {
    /// Short label used in report tables (matches the paper's "Type"
    /// column in Table 2).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            RoamingArch::Native => "Native",
            RoamingArch::HomeRouted => "HR",
            RoamingArch::LocalBreakout => "LBO",
            RoamingArch::IpxHubBreakout => "IHBO",
        }
    }

    /// Does this architecture involve a roaming attachment at all?
    #[must_use]
    pub fn is_roaming(&self) -> bool {
        !matches!(self, RoamingArch::Native)
    }
}

impl std::fmt::Display for RoamingArch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Where a subscriber's DNS queries land (§5.1 "DNS Lookup Time").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsMode {
    /// Resolved by the operator that owns the PGW (physical SIMs, native
    /// eSIMs and HR eSIMs — "DNS resolution occurs locally within the
    /// b-MNO").
    OperatorResolver,
    /// Google Public DNS via anycast, reached from the PGW — what the IHBO
    /// eSIMs use, with resolvers selected near the PGW. The `doh` flag adds
    /// the DNS-over-HTTPS handshake overhead the authors (by their own
    /// admission) forgot to disable.
    GooglePublic {
        /// DNS-over-HTTPS enabled (adds TLS setup to every cold lookup).
        doh: bool,
    },
}

/// The breakout arrangement a b-MNO has pre-configured for its roaming
/// subscribers: which architecture, and — for IHBO — which third-party
/// provider(s) carry the breakout. "Most Airalo eSIMs rely on a single,
/// fixed PGW provider, indicating a static pre-arrangement of PGW
/// selection" (§1).
#[derive(Debug, Clone)]
pub struct BreakoutConfig {
    /// The architecture this b-MNO uses for roaming data.
    pub arch: RoamingArch,
    /// Candidate PGW providers. HR configs name the b-MNO's own provider
    /// entry; IHBO configs list one or more third parties (Play and Telna
    /// alternated between Packet Host and OVH, §4.1).
    pub providers: Vec<PgwProviderId>,
    /// DNS behaviour for subscribers under this config.
    pub dns: DnsMode,
}

impl BreakoutConfig {
    /// A Home-Routed config through the b-MNO's own gateway provider.
    #[must_use]
    pub fn home_routed(own_provider: PgwProviderId) -> Self {
        BreakoutConfig {
            arch: RoamingArch::HomeRouted,
            providers: vec![own_provider],
            dns: DnsMode::OperatorResolver,
        }
    }

    /// An IHBO config over the given third-party providers.
    #[must_use]
    pub fn ihbo(providers: Vec<PgwProviderId>) -> Self {
        assert!(!providers.is_empty(), "IHBO needs at least one provider");
        BreakoutConfig {
            arch: RoamingArch::IpxHubBreakout,
            providers,
            dns: DnsMode::GooglePublic { doh: true },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_table() {
        assert_eq!(RoamingArch::HomeRouted.label(), "HR");
        assert_eq!(RoamingArch::IpxHubBreakout.label(), "IHBO");
        assert_eq!(RoamingArch::LocalBreakout.label(), "LBO");
        assert_eq!(RoamingArch::Native.to_string(), "Native");
    }

    #[test]
    fn native_is_not_roaming() {
        assert!(!RoamingArch::Native.is_roaming());
        assert!(RoamingArch::HomeRouted.is_roaming());
        assert!(RoamingArch::LocalBreakout.is_roaming());
        assert!(RoamingArch::IpxHubBreakout.is_roaming());
    }

    #[test]
    fn hr_config_uses_operator_dns() {
        let c = BreakoutConfig::home_routed(PgwProviderId(0));
        assert_eq!(c.arch, RoamingArch::HomeRouted);
        assert_eq!(c.dns, DnsMode::OperatorResolver);
    }

    #[test]
    fn ihbo_config_uses_google_doh() {
        let c = BreakoutConfig::ihbo(vec![PgwProviderId(1), PgwProviderId(2)]);
        assert_eq!(c.arch, RoamingArch::IpxHubBreakout);
        assert_eq!(c.dns, DnsMode::GooglePublic { doh: true });
    }

    #[test]
    #[should_panic(expected = "at least one provider")]
    fn empty_ihbo_rejected() {
        let _ = BreakoutConfig::ihbo(vec![]);
    }
}
