//! The synthetic offer universe.
//!
//! Deterministic generation (a seed fully determines every offer) of a
//! market shaped like the eSIMDB snapshot the paper crawled: 54 providers
//! with named providers calibrated to the medians of Fig. 17 and Airalo's
//! geography calibrated to Figs. 16/18. The offer count is lower than the
//! paper's 75,875: seed 1 generates 43,710 offers (see EXPERIMENTS.md,
//! "Known deltas").

use crate::offer::EsimOffer;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use roam_geo::{Continent, Country};

/// Index of a provider in the market.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProviderId(pub u32);

/// A provider's generation parameters.
#[derive(Debug, Clone)]
pub struct ProviderSpec {
    /// Brand name.
    pub name: String,
    /// Number of destination countries covered.
    pub footprint: usize,
    /// Target median price per GB (USD) across countries.
    pub median_per_gb: f64,
    /// Plans listed per country.
    pub plans_per_country: usize,
}

/// Plan sizes aggregators actually sell (GB).
const PLAN_SIZES: [f64; 6] = [1.0, 2.0, 3.0, 5.0, 10.0, 20.0];

/// Global level calibration: `median_per_gb` is the *brand anchor*, but the
/// per-plan $/GB of a catalogue averages below it (size discounts, cheap
/// continents). This factor re-centres the generated per-country medians on
/// the anchors (Airalo worldwide ≈ $7.9/GB, Fig. 17's provider ordering).
const LEVEL: f64 = 1.47;

/// The generated market.
#[derive(Debug)]
pub struct Market {
    providers: Vec<ProviderSpec>,
    offers: Vec<EsimOffer>,
    airalo: ProviderId,
}

impl Market {
    /// Generate the calibrated universe from a seed.
    #[must_use]
    pub fn generate(seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut providers = Vec::new();
        let mut offers = Vec::new();

        // --- named providers with paper-reported anchors -----------------
        // (name, footprint countries, median $/GB, plans per country)
        let named: [(&str, usize, f64, usize); 6] = [
            ("Airalo", 120, 7.9, 11),
            ("MobiMatter", 118, 3.2, 20), // ~60% cheaper than Airalo, most offers
            ("Airhub", 110, 2.3, 8),
            ("Keepgo", 108, 16.2, 6),
            ("Nomad", 100, 6.0, 9),
            ("Holafly", 90, 10.5, 7),
        ];
        for (name, fp, med, plans) in named {
            providers.push(ProviderSpec {
                name: name.to_string(),
                footprint: fp,
                median_per_gb: med,
                plans_per_country: plans,
            });
        }
        // --- the long tail up to 54 providers -----------------------------
        for i in providers.len()..54 {
            providers.push(ProviderSpec {
                name: format!("esim-provider-{i:02}"),
                footprint: rng.gen_range(30..115),
                median_per_gb: rng.gen_range(3.0..14.0),
                plans_per_country: rng.gen_range(6..16),
            });
        }

        // Sub-linear size→price: bigger plans are cheaper per GB, with
        // per-country exponent wobble that produces Fig. 19's
        // "unjustified" spread. A country's exponent is one of seven
        // values, so `gb^exponent` is tabulated once per market: row
        // `k` holds every plan size raised to `0.78 + 0.02·k`.
        let size_pow: [[f64; PLAN_SIZES.len()]; 7] = std::array::from_fn(|k| {
            let exponent = 0.78 + k as f64 * 0.02;
            PLAN_SIZES.map(|gb| gb.powf(exponent))
        });
        let airalo = ProviderId(0);
        for (pid, spec) in providers.iter().enumerate() {
            let pid = ProviderId(pid as u32);
            let countries = pick_countries(spec.footprint, &mut rng);
            for country in countries {
                let factor = country_factor(pid == airalo, country, &mut rng);
                let pows = &size_pow[usize::from(country.alpha2().as_bytes()[0] % 7)];
                for p in 0..spec.plans_per_country {
                    let gb = PLAN_SIZES[p % PLAN_SIZES.len()];
                    // Offset validity by the catalogue cycle so size and
                    // validity are not collinear across the market.
                    let validity = [7u16, 15, 30][(p + p / PLAN_SIZES.len()) % 3];
                    let price = LEVEL
                        * spec.median_per_gb
                        * factor
                        * pows[p % PLAN_SIZES.len()]
                        * rng.gen_range(0.85..1.15);
                    offers.push(EsimOffer {
                        provider: pid,
                        country,
                        data_gb: gb,
                        validity_days: validity,
                        base_price_usd: (price * 100.0).round() / 100.0,
                        bmno: (pid == airalo).then(|| airalo_bmno_index(country)),
                    });
                }
            }
        }
        Market {
            providers,
            offers,
            airalo,
        }
    }

    /// All offers.
    #[must_use]
    pub fn offers(&self) -> &[EsimOffer] {
        &self.offers
    }

    /// Provider spec by id.
    #[must_use]
    pub fn provider(&self, id: ProviderId) -> &ProviderSpec {
        &self.providers[id.0 as usize]
    }

    /// Number of providers.
    #[must_use]
    pub fn provider_count(&self) -> usize {
        self.providers.len()
    }

    /// Find a provider by name.
    #[must_use]
    pub fn find_provider(&self, name: &str) -> Option<ProviderId> {
        self.providers
            .iter()
            .position(|p| p.name == name)
            .map(|i| ProviderId(i as u32))
    }

    /// The Airalo provider id.
    #[must_use]
    pub fn airalo(&self) -> ProviderId {
        self.airalo
    }

    /// Price of an offer on a given crawl day (0 = Feb 14, 2024). This is
    /// where Fig. 16's temporal movements live:
    ///
    /// * Asian plans drift +18% between day 40 and day 55 (the Apr-1 step
    ///   from ~$5.5 to ~$6.5 per GB);
    /// * cheap African plans (bottom quartile) rise steadily after day 30;
    /// * everything else only wiggles within ±2%.
    #[must_use]
    pub fn price_on_day(&self, offer: &EsimOffer, day: u32) -> f64 {
        let mut price = offer.base_price_usd;
        match offer.country.continent() {
            Continent::Asia => {
                // The paper observes the higher median *at* 04-01 (day 47):
                // ramp through the second half of March.
                let ramp = ((day.saturating_sub(30)) as f64 / 17.0).clamp(0.0, 1.0);
                price *= 1.0 + 0.18 * ramp;
            }
            // The cheap-African-plans floor rise (Fig. 16): applies to the
            // bottom of the distribution (below ~LEVEL × $5/GB).
            Continent::Africa if offer.per_gb() < 5.0 * LEVEL => {
                let ramp = ((day.saturating_sub(30)) as f64 / 45.0).clamp(0.0, 1.0);
                price *= 1.0 + 0.40 * ramp;
            }
            _ => {}
        }
        // Deterministic per-(offer, day) wiggle, ±2%.
        let h = wiggle_hash(offer, day);
        price * (1.0 + ((h % 400) as f64 / 10_000.0 - 0.02))
    }
}

/// Stable per-offer/day hash for the price wiggle (no RNG: the crawler must
/// see identical prices from every vantage point).
fn wiggle_hash(offer: &EsimOffer, day: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in [
        offer.provider.0 as u64,
        offer.country.alpha3().as_bytes()[0] as u64,
        offer.country.alpha3().as_bytes()[2] as u64,
        offer.data_gb as u64,
        offer.validity_days as u64,
        day as u64,
    ] {
        h ^= b;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Choose `n` destination countries (Airalo-like providers cover nearly the
/// whole gazetteer; smaller ones a random subset).
fn pick_countries(n: usize, rng: &mut SmallRng) -> Vec<Country> {
    let mut all: Vec<Country> = Country::ALL.to_vec();
    // Fisher–Yates prefix shuffle.
    let take = n.min(all.len());
    for i in 0..take {
        let j = rng.gen_range(i..all.len());
        all.swap(i, j);
    }
    all.truncate(take);
    all
}

/// The continent/country pricing factor. For Airalo, calibrated to the
/// paper's geography: Europe cheap, North America about double Europe
/// (dragged up by Central America), Asia in between.
fn country_factor(is_airalo: bool, country: Country, rng: &mut SmallRng) -> f64 {
    let continent = match country.continent() {
        Continent::Europe => 0.57,
        Continent::Asia => 0.73,
        Continent::Africa => 0.80,
        Continent::NorthAmerica => {
            if country.is_central_america() {
                1.75
            } else {
                0.95
            }
        }
        Continent::Oceania => 1.00,
        Continent::SouthAmerica => 0.92,
    };
    let spread = if is_airalo {
        rng.gen_range(0.72..1.55)
    } else {
        rng.gen_range(0.7..1.4)
    };
    continent * spread
}

/// Which of Airalo's six b-MNOs backs a country's plans (Table 2 for the
/// measured countries; everything else assigned round-robin by region).
fn airalo_bmno_index(country: Country) -> u8 {
    use Country::*;
    match country {
        ARE | JPN | PAK | MYS | CHN => 0, // Singtel
        GBR | DEU | GEO | ESP => 1,       // Play
        QAT | SAU | TUR | EGY => 2,       // Telna
        MDA | KEN | FIN | AZE => 3,       // Telecom Italia
        ITA | USA => 4,                   // Orange
        FRA | UZB => 5,                   // Polkomtel
        other => other.alpha3().as_bytes()[1] % 6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_has_paper_scale() {
        let m = Market::generate(1);
        assert_eq!(m.provider_count(), 54);
        let n = m.offers().len();
        assert!((40_000..110_000).contains(&n), "offer count {n}");
        // Airalo's catalogue is thousands of plans.
        let airalo_offers = m
            .offers()
            .iter()
            .filter(|o| o.provider == m.airalo())
            .count();
        assert!(
            (800..3000).contains(&airalo_offers),
            "airalo offers {airalo_offers}"
        );
    }

    /// The generator's size is part of its output: the fleet shelves and
    /// the checkpoint fingerprint fold over every offer.
    #[test]
    fn seed_one_offer_count_is_pinned() {
        assert_eq!(Market::generate(1).offers().len(), 43_710);
    }

    /// FNV-1a over every offer's fields, floats as their bit patterns:
    /// a rewrite of the generator's arithmetic must keep every offer.
    fn offer_digest(m: &Market) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for o in m.offers() {
            for v in [
                u64::from(o.provider.0),
                u64::from(o.country.alpha2().as_bytes()[0]),
                u64::from(o.country.alpha2().as_bytes()[1]),
                o.data_gb.to_bits(),
                u64::from(o.validity_days),
                o.base_price_usd.to_bits(),
                o.bmno.map_or(u64::MAX, u64::from),
            ] {
                for b in v.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    #[test]
    fn offer_digests_are_pinned() {
        let digests = [1, 7, 2024].map(|seed| offer_digest(&Market::generate(seed)));
        assert_eq!(
            digests,
            [
                0x5652_59c1_d605_7fec,
                0x7c16_abd2_4823_7b84,
                0xed17_a968_cb96_c842
            ],
            "offer digests moved: {digests:#018x?}"
        );
    }

    #[test]
    fn named_providers_exist_with_anchored_medians() {
        let m = Market::generate(1);
        for (name, med) in [("Airhub", 2.3), ("Keepgo", 16.2), ("MobiMatter", 3.2)] {
            let id = m
                .find_provider(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.provider(id).median_per_gb, med);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Market::generate(7);
        let b = Market::generate(7);
        assert_eq!(a.offers().len(), b.offers().len());
        for (x, y) in a.offers().iter().zip(b.offers()) {
            assert_eq!(x, y);
        }
        let c = Market::generate(8);
        assert_ne!(a.offers()[0].base_price_usd, c.offers()[0].base_price_usd);
    }

    #[test]
    fn airalo_offers_carry_bmno_others_do_not() {
        let m = Market::generate(1);
        for o in m.offers() {
            if o.provider == m.airalo() {
                assert!(o.bmno.is_some());
                assert!(o.bmno.unwrap() < 6);
            } else {
                assert!(o.bmno.is_none());
            }
        }
    }

    #[test]
    fn table2_bmno_mapping_is_respected() {
        assert_eq!(airalo_bmno_index(Country::PAK), 0);
        assert_eq!(airalo_bmno_index(Country::DEU), 1);
        assert_eq!(airalo_bmno_index(Country::EGY), 2);
        assert_eq!(airalo_bmno_index(Country::KEN), 3);
        assert_eq!(airalo_bmno_index(Country::USA), 4);
        assert_eq!(airalo_bmno_index(Country::FRA), 5);
    }

    #[test]
    fn asia_prices_step_up_after_april() {
        let m = Market::generate(1);
        let offer = m
            .offers()
            .iter()
            .find(|o| o.country.continent() == Continent::Asia)
            .expect("asian offers exist");
        let feb = m.price_on_day(offer, 0);
        let may = m.price_on_day(offer, 80);
        assert!(may > feb * 1.10, "feb {feb} may {may}");
    }

    #[test]
    fn non_asian_prices_are_stable() {
        let m = Market::generate(1);
        let offer = m
            .offers()
            .iter()
            .find(|o| o.country.continent() == Continent::Europe)
            .expect("european offers exist");
        let feb = m.price_on_day(offer, 0);
        let may = m.price_on_day(offer, 80);
        assert!((may / feb - 1.0).abs() < 0.05, "feb {feb} may {may}");
    }

    #[test]
    fn prices_are_positive_and_plausible() {
        let m = Market::generate(3);
        for o in m.offers().iter().take(5000) {
            assert!(o.base_price_usd > 0.0);
            let per_gb = o.per_gb();
            assert!(
                (0.1..200.0).contains(&per_gb),
                "absurd $/GB {per_gb} for {o:?}"
            );
        }
    }
}
