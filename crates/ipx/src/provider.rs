//! PGW providers: breakout-gateway operators and their site-selection
//! policies.

use rand::rngs::SmallRng;
use rand::Rng;
use roam_cellular::MnoId;
use roam_geo::City;
use roam_netsim::{Asn, Ipv4Net};

/// Index of a provider in a [`ProviderDirectory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PgwProviderId(pub u32);

/// One breakout location of a provider: a city and the public prefix its
/// CG-NAT assigns addresses from. Table 2's "PGW Country" column is the
/// country of this city.
#[derive(Debug, Clone)]
pub struct PgwSite {
    /// Where the PGW (and its CG-NAT, ~co-located per §4.3.2: "an average
    /// of 8.06 ms" apart) physically sits.
    pub city: City,
    /// The public prefix breakout addresses are drawn from.
    pub prefix: Ipv4Net,
    /// Number of distinct breakout addresses in use at the site — the
    /// paper counts 4 for Singtel, 6 for OVH, 4 for Packet Host, 15 for
    /// dtac, 16/35 for the Korean operators (§4.3.2).
    pub pool: u64,
}

impl PgwSite {
    /// A site with a sanity-checked pool size.
    #[must_use]
    pub fn new(city: City, prefix: Ipv4Net, pool: u64) -> Self {
        assert!(
            pool >= 1 && pool <= prefix.size().saturating_sub(2),
            "pool {pool} does not fit prefix {prefix}"
        );
        PgwSite { city, prefix, pool }
    }
}

/// How a provider assigns sessions to its sites.
#[derive(Debug, Clone)]
pub enum PgwSelection {
    /// Every session lands on one fixed site (index into `sites`). The
    /// paper's Polkomtel eSIMs always broke out in Ashburn.
    Fixed(usize),
    /// The site is chosen per b-MNO: OVH "appears to assign PGWs for
    /// roaming traffic based on the b-MNO" (§4.3.2). Pairs of
    /// (b-MNO, site index); b-MNOs not listed fall back to site 0.
    ByBmno(Vec<(MnoId, usize)>),
    /// Sessions are spread evenly across sites regardless of b-MNO —
    /// Packet Host's observed load balancing (§4.3.2).
    LoadBalanced,
}

/// How breakout addresses are assigned out of a site's pool.
///
/// §4.3.2 observes both styles: "OVH SAS appears to assign PGWs for
/// roaming traffic based on the b-MNO" while "PGW IP addresses involving
/// Packet Host were evenly distributed across different eSIMs, regardless
/// of the b-MNO".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpAssignment {
    /// Each b-MNO is pinned to its own slot of the pool (OVH style).
    ByBmno,
    /// Sessions draw uniformly from the pool (Packet Host style).
    Pooled,
}

/// A PGW provider.
#[derive(Debug, Clone)]
pub struct PgwProvider {
    /// Organisation name, as WHOIS reports it.
    pub name: String,
    /// The AS its breakout prefixes are announced from.
    pub asn: Asn,
    /// Breakout sites.
    pub sites: Vec<PgwSite>,
    /// Session-to-site policy.
    pub selection: PgwSelection,
    /// Address-pool policy within a site.
    pub ip_assignment: IpAssignment,
    /// How many private (RFC1918) hops a traceroute sees inside this
    /// provider's core before the CG-NAT, as `(min, max)` — OVH exposes 3,
    /// Packet Host 6–7 ("suggests potential load balancing within Packet
    /// Host's network core", §4.3.2).
    pub private_hops: (u8, u8),
    /// Whether the CG-NAT answers ICMP. Some do not, producing the
    /// silent-hop traceroutes of §4.3.3.
    pub cgnat_icmp_responds: bool,
}

impl PgwProvider {
    /// Pick the site for a new session of `bmno`.
    pub fn select_site(&self, bmno: MnoId, rng: &mut SmallRng) -> usize {
        assert!(
            !self.sites.is_empty(),
            "provider {} has no sites",
            self.name
        );
        match &self.selection {
            PgwSelection::Fixed(i) => {
                assert!(*i < self.sites.len());
                *i
            }
            PgwSelection::ByBmno(map) => {
                let i = map
                    .iter()
                    .find(|(m, _)| *m == bmno)
                    .map(|(_, i)| *i)
                    .unwrap_or(0);
                assert!(
                    i < self.sites.len(),
                    "ByBmno maps {bmno:?} to site {i} but {} has {} sites",
                    self.name,
                    self.sites.len()
                );
                i
            }
            PgwSelection::LoadBalanced => rng.gen_range(0..self.sites.len()),
        }
    }

    /// Draw the private-path depth for a new session.
    pub(crate) fn sample_private_hops(&self, rng: &mut SmallRng) -> u8 {
        let (lo, hi) = self.private_hops;
        assert!(lo >= 1 && hi >= lo, "bad private hop bounds ({lo},{hi})");
        if lo == hi {
            lo
        } else {
            rng.gen_range(lo..=hi)
        }
    }
}

/// Directory of PGW providers in a scenario.
#[derive(Debug, Default)]
pub struct ProviderDirectory {
    providers: Vec<PgwProvider>,
}

impl ProviderDirectory {
    /// An empty directory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a provider.
    pub fn add(&mut self, provider: PgwProvider) -> PgwProviderId {
        assert!(
            !provider.sites.is_empty(),
            "provider needs at least one site"
        );
        let id = PgwProviderId(self.providers.len() as u32);
        self.providers.push(provider);
        id
    }

    /// Provider by id.
    #[must_use]
    pub fn get(&self, id: PgwProviderId) -> &PgwProvider {
        &self.providers[id.0 as usize]
    }

    /// Iterate `(id, provider)`.
    pub fn iter(&self) -> impl Iterator<Item = (PgwProviderId, &PgwProvider)> {
        self.providers
            .iter()
            .enumerate()
            .map(|(i, p)| (PgwProviderId(i as u32), p))
    }

    /// Number of providers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.providers.len()
    }

    /// Is the directory empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.providers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use roam_netsim::registry::well_known;

    fn packet_host() -> PgwProvider {
        PgwProvider {
            name: "Packet Host".into(),
            asn: well_known::PACKET_HOST,
            sites: vec![
                PgwSite::new(
                    City::Amsterdam,
                    Ipv4Net::parse("147.75.80.0/22").unwrap(),
                    4,
                ),
                PgwSite::new(City::Ashburn, Ipv4Net::parse("147.28.128.0/22").unwrap(), 4),
            ],
            selection: PgwSelection::LoadBalanced,
            ip_assignment: IpAssignment::Pooled,
            private_hops: (6, 7),
            cgnat_icmp_responds: true,
        }
    }

    #[test]
    fn fixed_selection_always_returns_the_site() {
        let mut p = packet_host();
        p.selection = PgwSelection::Fixed(1);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(p.select_site(MnoId(3), &mut rng), 1);
        }
    }

    #[test]
    fn by_bmno_selection_maps_and_falls_back() {
        let mut p = packet_host();
        p.selection = PgwSelection::ByBmno(vec![(MnoId(7), 1)]);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(p.select_site(MnoId(7), &mut rng), 1);
        assert_eq!(
            p.select_site(MnoId(9), &mut rng),
            0,
            "unlisted b-MNO falls back"
        );
    }

    #[test]
    fn load_balancing_uses_all_sites() {
        let p = packet_host();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut seen = [0u32; 2];
        for _ in 0..200 {
            seen[p.select_site(MnoId(0), &mut rng)] += 1;
        }
        assert!(seen[0] > 50 && seen[1] > 50, "both sites used: {seen:?}");
    }

    #[test]
    fn private_hop_sampling_stays_in_bounds() {
        let p = packet_host();
        let mut rng = SmallRng::seed_from_u64(9);
        let mut seen6 = false;
        let mut seen7 = false;
        for _ in 0..100 {
            match p.sample_private_hops(&mut rng) {
                6 => seen6 = true,
                7 => seen7 = true,
                other => panic!("out of bounds: {other}"),
            }
        }
        assert!(seen6 && seen7, "both depths occur (load-balanced core)");
    }

    #[test]
    fn directory_get_by_id() {
        let mut dir = ProviderDirectory::new();
        let id = dir.add(packet_host());
        assert_eq!(dir.get(id).name, "Packet Host");
        assert_eq!(dir.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn provider_without_sites_rejected() {
        let mut p = packet_host();
        p.sites.clear();
        ProviderDirectory::new().add(p);
    }
}
