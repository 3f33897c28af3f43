//! Country and continent gazetteer.
//!
//! The variant names are ISO 3166-1 alpha-3 codes, which is what the paper
//! uses throughout (Table 2 lists visited countries as `ARE, JPN, PAK, …`).
//! The table covers every country that appears in any experiment plus a broad
//! worldwide set so that the economics analysis (Figs. 16–18: per-continent
//! price distributions over ~200 Airalo destinations) has a realistic
//! geographic universe to draw offers for.

use crate::GeoPoint;

/// Continent partition used by the price-evolution analysis (Fig. 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Continent {
    Africa,
    Asia,
    Europe,
    NorthAmerica,
    Oceania,
    SouthAmerica,
}

impl Continent {
    /// All continents, in the fixed order used for report rows.
    pub const ALL: [Continent; 6] = [
        Continent::Africa,
        Continent::Asia,
        Continent::Europe,
        Continent::NorthAmerica,
        Continent::Oceania,
        Continent::SouthAmerica,
    ];

    /// Human-readable name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Continent::Africa => "Africa",
            Continent::Asia => "Asia",
            Continent::Europe => "Europe",
            Continent::NorthAmerica => "North America",
            Continent::Oceania => "Oceania",
            Continent::SouthAmerica => "South America",
        }
    }
}

impl std::fmt::Display for Continent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

macro_rules! countries {
    ($( $a3:ident, $a2:literal, $name:literal, $cont:ident, $lat:literal, $lon:literal; )+) => {
        /// A country, identified by its ISO 3166-1 alpha-3 code.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[allow(clippy::upper_case_acronyms)]
        pub enum Country {
            $(#[doc = $name] $a3,)+
        }

        impl Country {
            /// Every country in the gazetteer.
            pub const ALL: &'static [Country] = &[$(Country::$a3,)+];

            /// ISO 3166-1 alpha-3 code (same as the variant name).
            #[must_use]
            pub fn alpha3(&self) -> &'static str {
                match self { $(Country::$a3 => stringify!($a3),)+ }
            }

            /// ISO 3166-1 alpha-2 code.
            #[must_use]
            pub fn alpha2(&self) -> &'static str {
                match self { $(Country::$a3 => $a2,)+ }
            }

            /// English short name.
            #[must_use]
            pub fn name(&self) -> &'static str {
                match self { $(Country::$a3 => $name,)+ }
            }

            /// Continent the country belongs to.
            #[must_use]
            pub fn continent(&self) -> Continent {
                match self { $(Country::$a3 => Continent::$cont,)+ }
            }

            /// Representative centroid (population-weighted-ish) used for
            /// country-level distance estimates, e.g. "is the PGW farther
            /// than the b-MNO country?" (§4.2).
            #[must_use]
            pub fn centroid(&self) -> GeoPoint {
                match self { $(Country::$a3 => GeoPoint::new($lat, $lon),)+ }
            }
        }
    };
}

countries! {
    // ---- countries visited or hosting infrastructure in the paper ----
    ARE, "AE", "United Arab Emirates",  Asia,          24.4, 54.4;
    JPN, "JP", "Japan",                 Asia,          36.2, 138.3;
    PAK, "PK", "Pakistan",              Asia,          30.4, 69.3;
    MYS, "MY", "Malaysia",              Asia,          3.1,  101.7;
    CHN, "CN", "China",                 Asia,          35.9, 104.2;
    GBR, "GB", "United Kingdom",        Europe,        52.4, -1.5;
    DEU, "DE", "Germany",               Europe,        51.2, 10.5;
    GEO, "GE", "Georgia",               Asia,          41.7, 44.8;
    ESP, "ES", "Spain",                 Europe,        40.4, -3.7;
    QAT, "QA", "Qatar",                 Asia,          25.3, 51.2;
    SAU, "SA", "Saudi Arabia",          Asia,          24.7, 46.7;
    TUR, "TR", "Turkey",                Asia,          39.0, 35.2;
    EGY, "EG", "Egypt",                 Africa,        26.8, 30.8;
    MDA, "MD", "Moldova",               Europe,        47.0, 28.9;
    KEN, "KE", "Kenya",                 Africa,        -1.3, 36.8;
    FIN, "FI", "Finland",               Europe,        61.9, 25.7;
    AZE, "AZ", "Azerbaijan",            Asia,          40.4, 49.9;
    ITA, "IT", "Italy",                 Europe,        41.9, 12.6;
    USA, "US", "United States",         NorthAmerica,  39.8, -98.6;
    FRA, "FR", "France",                Europe,        46.2, 2.2;
    UZB, "UZ", "Uzbekistan",            Asia,          41.3, 64.6;
    KOR, "KR", "South Korea",           Asia,          36.5, 127.8;
    MDV, "MV", "Maldives",              Asia,          4.2,  73.5;
    THA, "TH", "Thailand",              Asia,          13.7, 100.5;
    SGP, "SG", "Singapore",             Asia,          1.35, 103.82;
    POL, "PL", "Poland",                Europe,        52.2, 19.1;
    NLD, "NL", "Netherlands",           Europe,        52.1, 5.3;
    IRL, "IE", "Ireland",               Europe,        53.3, -8.0;
    // ---- broader universe for the economics campaign ----
    AFG, "AF", "Afghanistan",           Asia,          33.9, 67.7;
    ALB, "AL", "Albania",               Europe,        41.2, 20.2;
    DZA, "DZ", "Algeria",               Africa,        28.0, 1.7;
    AGO, "AO", "Angola",                Africa,        -11.2, 17.9;
    ARG, "AR", "Argentina",             SouthAmerica,  -38.4, -63.6;
    ARM, "AM", "Armenia",               Asia,          40.1, 45.0;
    AUS, "AU", "Australia",             Oceania,       -25.3, 133.8;
    AUT, "AT", "Austria",               Europe,        47.5, 14.6;
    BHR, "BH", "Bahrain",               Asia,          26.0, 50.5;
    BGD, "BD", "Bangladesh",            Asia,          23.7, 90.4;
    BLR, "BY", "Belarus",               Europe,        53.7, 27.9;
    BEL, "BE", "Belgium",               Europe,        50.5, 4.5;
    BLZ, "BZ", "Belize",                NorthAmerica,  17.2, -88.5;
    BEN, "BJ", "Benin",                 Africa,        9.3,  2.3;
    BOL, "BO", "Bolivia",               SouthAmerica,  -16.3, -63.6;
    BIH, "BA", "Bosnia and Herzegovina",Europe,        43.9, 17.7;
    BWA, "BW", "Botswana",              Africa,        -22.3, 24.7;
    BRA, "BR", "Brazil",                SouthAmerica,  -14.2, -51.9;
    BGR, "BG", "Bulgaria",              Europe,        42.7, 25.5;
    KHM, "KH", "Cambodia",              Asia,          12.6, 105.0;
    CMR, "CM", "Cameroon",              Africa,        7.4,  12.4;
    CAN, "CA", "Canada",                NorthAmerica,  56.1, -106.3;
    CHL, "CL", "Chile",                 SouthAmerica,  -35.7, -71.5;
    COL, "CO", "Colombia",              SouthAmerica,  4.6,  -74.3;
    CRI, "CR", "Costa Rica",            NorthAmerica,  9.7,  -83.8;
    HRV, "HR", "Croatia",               Europe,        45.1, 15.2;
    CUB, "CU", "Cuba",                  NorthAmerica,  21.5, -77.8;
    CYP, "CY", "Cyprus",                Europe,        35.1, 33.4;
    CZE, "CZ", "Czechia",               Europe,        49.8, 15.5;
    DNK, "DK", "Denmark",               Europe,        56.3, 9.5;
    DOM, "DO", "Dominican Republic",    NorthAmerica,  18.7, -70.2;
    ECU, "EC", "Ecuador",               SouthAmerica,  -1.8, -78.2;
    SLV, "SV", "El Salvador",           NorthAmerica,  13.8, -88.9;
    EST, "EE", "Estonia",               Europe,        58.6, 25.0;
    ETH, "ET", "Ethiopia",              Africa,        9.1,  40.5;
    FJI, "FJ", "Fiji",                  Oceania,       -17.7, 178.1;
    GAB, "GA", "Gabon",                 Africa,        -0.8, 11.6;
    GHA, "GH", "Ghana",                 Africa,        7.9,  -1.0;
    GRC, "GR", "Greece",                Europe,        39.1, 21.8;
    GTM, "GT", "Guatemala",             NorthAmerica,  15.8, -90.2;
    HND, "HN", "Honduras",              NorthAmerica,  15.2, -86.2;
    HKG, "HK", "Hong Kong",             Asia,          22.4, 114.1;
    HUN, "HU", "Hungary",               Europe,        47.2, 19.5;
    ISL, "IS", "Iceland",               Europe,        64.9, -19.0;
    IND, "IN", "India",                 Asia,          20.6, 79.0;
    IDN, "ID", "Indonesia",             Asia,          -0.8, 113.9;
    IRQ, "IQ", "Iraq",                  Asia,          33.2, 43.7;
    ISR, "IL", "Israel",                Asia,          31.0, 34.9;
    JAM, "JM", "Jamaica",               NorthAmerica,  18.1, -77.3;
    JOR, "JO", "Jordan",                Asia,          30.6, 36.2;
    KAZ, "KZ", "Kazakhstan",            Asia,          48.0, 66.9;
    KWT, "KW", "Kuwait",                Asia,          29.3, 47.5;
    KGZ, "KG", "Kyrgyzstan",            Asia,          41.2, 74.8;
    LAO, "LA", "Laos",                  Asia,          19.9, 102.5;
    LVA, "LV", "Latvia",                Europe,        56.9, 24.6;
    LBN, "LB", "Lebanon",               Asia,          33.9, 35.9;
    LTU, "LT", "Lithuania",             Europe,        55.2, 23.9;
    LUX, "LU", "Luxembourg",            Europe,        49.8, 6.1;
    MKD, "MK", "North Macedonia",       Europe,        41.6, 21.7;
    MDG, "MG", "Madagascar",            Africa,        -18.8, 47.0;
    MWI, "MW", "Malawi",                Africa,        -13.3, 34.3;
    MLT, "MT", "Malta",                 Europe,        35.9, 14.4;
    MEX, "MX", "Mexico",                NorthAmerica,  23.6, -102.6;
    MNG, "MN", "Mongolia",              Asia,          46.9, 103.8;
    MNE, "ME", "Montenegro",            Europe,        42.7, 19.4;
    MAR, "MA", "Morocco",               Africa,        31.8, -7.1;
    MOZ, "MZ", "Mozambique",            Africa,        -18.7, 35.5;
    MMR, "MM", "Myanmar",               Asia,          21.9, 95.9;
    NAM, "NA", "Namibia",               Africa,        -22.9, 18.5;
    NPL, "NP", "Nepal",                 Asia,          28.4, 84.1;
    NZL, "NZ", "New Zealand",           Oceania,       -40.9, 174.9;
    NIC, "NI", "Nicaragua",             NorthAmerica,  12.9, -85.2;
    NGA, "NG", "Nigeria",               Africa,        9.1,  8.7;
    NOR, "NO", "Norway",                Europe,        60.5, 8.5;
    OMN, "OM", "Oman",                  Asia,          21.5, 55.9;
    PAN, "PA", "Panama",                NorthAmerica,  8.5,  -80.8;
    PRY, "PY", "Paraguay",              SouthAmerica,  -23.4, -58.4;
    PER, "PE", "Peru",                  SouthAmerica,  -9.2, -75.0;
    PHL, "PH", "Philippines",           Asia,          12.9, 121.8;
    PRT, "PT", "Portugal",              Europe,        39.4, -8.2;
    ROU, "RO", "Romania",               Europe,        45.9, 25.0;
    RUS, "RU", "Russia",                Europe,        61.5, 105.3;
    RWA, "RW", "Rwanda",                Africa,        -1.9, 29.9;
    SEN, "SN", "Senegal",               Africa,        14.5, -14.5;
    SRB, "RS", "Serbia",                Europe,        44.0, 21.0;
    SVK, "SK", "Slovakia",              Europe,        48.7, 19.7;
    SVN, "SI", "Slovenia",              Europe,        46.2, 14.8;
    ZAF, "ZA", "South Africa",          Africa,        -30.6, 22.9;
    LKA, "LK", "Sri Lanka",             Asia,          7.9,  80.8;
    SWE, "SE", "Sweden",                Europe,        60.1, 18.6;
    CHE, "CH", "Switzerland",           Europe,        46.8, 8.2;
    TWN, "TW", "Taiwan",                Asia,          23.7, 121.0;
    TJK, "TJ", "Tajikistan",            Asia,          38.9, 71.3;
    TZA, "TZ", "Tanzania",              Africa,        -6.4, 34.9;
    TUN, "TN", "Tunisia",               Africa,        33.9, 9.6;
    TKM, "TM", "Turkmenistan",          Asia,          38.97, 59.6;
    UGA, "UG", "Uganda",                Africa,        1.4,  32.3;
    UKR, "UA", "Ukraine",               Europe,        48.4, 31.2;
    URY, "UY", "Uruguay",               SouthAmerica,  -32.5, -55.8;
    VNM, "VN", "Vietnam",               Asia,          14.1, 108.3;
    ZMB, "ZM", "Zambia",                Africa,        -13.1, 27.8;
    ZWE, "ZW", "Zimbabwe",              Africa,        -19.0, 29.2;
}

impl Country {
    /// The 24 countries where the paper measured an Airalo eSIM (both
    /// campaigns combined; §1 "24 of its 219 served countries").
    pub const MEASURED: [Country; 24] = [
        Country::ARE,
        Country::JPN,
        Country::PAK,
        Country::MYS,
        Country::CHN,
        Country::GBR,
        Country::DEU,
        Country::GEO,
        Country::ESP,
        Country::QAT,
        Country::SAU,
        Country::TUR,
        Country::EGY,
        Country::MDA,
        Country::KEN,
        Country::FIN,
        Country::AZE,
        Country::ITA,
        Country::USA,
        Country::FRA,
        Country::UZB,
        Country::KOR,
        Country::MDV,
        Country::THA,
    ];

    /// True when this country is in the Central-America price cluster the
    /// paper singles out (Fig. 18: "Central America exhibits a consistent
    /// high cost per GB").
    #[must_use]
    pub fn is_central_america(&self) -> bool {
        matches!(
            self,
            Country::BLZ
                | Country::CRI
                | Country::SLV
                | Country::GTM
                | Country::HND
                | Country::NIC
                | Country::PAN
        )
    }
}

impl std::fmt::Display for Country {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.alpha3())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha3_matches_variant_name() {
        assert_eq!(Country::PAK.alpha3(), "PAK");
        assert_eq!(Country::ARE.alpha3(), "ARE");
    }

    #[test]
    fn alpha2_codes_are_two_chars_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in Country::ALL {
            assert_eq!(c.alpha2().len(), 2, "{c:?}");
            assert!(seen.insert(c.alpha2()), "duplicate alpha2 {}", c.alpha2());
        }
    }

    #[test]
    fn gazetteer_is_reasonably_broad() {
        assert!(Country::ALL.len() >= 120, "got {}", Country::ALL.len());
        for cont in Continent::ALL {
            let n = Country::ALL
                .iter()
                .filter(|c| c.continent() == cont)
                .count();
            assert!(n >= 2, "{cont} has only {n} countries");
        }
    }

    #[test]
    fn measured_set_matches_paper() {
        assert_eq!(Country::MEASURED.len(), 24);
        // Native-eSIM countries from §4.1.
        for c in [Country::KOR, Country::MDV, Country::THA] {
            assert!(Country::MEASURED.contains(&c));
        }
    }

    #[test]
    fn continent_assignment_spot_checks() {
        assert_eq!(Country::EGY.continent(), Continent::Africa);
        assert_eq!(Country::GEO.continent(), Continent::Asia);
        assert_eq!(Country::USA.continent(), Continent::NorthAmerica);
        assert_eq!(Country::AUS.continent(), Continent::Oceania);
        assert_eq!(Country::BRA.continent(), Continent::SouthAmerica);
        assert_eq!(Country::MDA.continent(), Continent::Europe);
    }

    #[test]
    fn central_america_cluster() {
        assert!(Country::CRI.is_central_america());
        assert!(Country::PAN.is_central_america());
        assert!(!Country::MEX.is_central_america());
        assert!(!Country::USA.is_central_america());
    }

    #[test]
    fn centroids_are_canonical_points() {
        for c in Country::ALL {
            let p = c.centroid();
            assert!(p.lat().abs() <= 90.0);
            assert!(p.lon() > -180.0 && p.lon() <= 180.0);
        }
    }

    #[test]
    fn poland_is_closer_to_germany_than_to_singapore() {
        let pol = Country::POL.centroid();
        let deu = Country::DEU.centroid();
        let sgp = Country::SGP.centroid();
        assert!(pol.distance_km(deu) < pol.distance_km(sgp));
    }
}
