//! The v-MNO visibility experiment of §4.2 (Fig. 5).
//!
//! A v-MNO sees an aggregator's customer only as an inbound roamer of the
//! b-MNO whose IMSI the profile carries. The paper, collaborating with a UK
//! operator, (1) planted devices with known IMEIs carrying Airalo-on-Play
//! eSIMs, (2) looked those IMEIs up in the v-MNO core to learn their IMSIs,
//! (3) pattern-matched MCC/MNC + MSIN sub-ranges to recover the block Play
//! leases to Airalo, and (4) compared the traffic of everyone in that block
//! against ordinary Play roamers and native subscribers. The punchline:
//! aggregator users consume like natives (with slightly *more* signalling),
//! not like roamers — so the v-MNO's inbound-roamer statistics are polluted.
//!
//! This module generates synthetic core records with those distributional
//! properties and implements the recovery + comparison pipeline.

use rand::rngs::SmallRng;
use rand::Rng;
use roam_cellular::{Imei, Imsi, ImsiRange, Plmn};
use roam_stats::{median, Summary};

/// Ground-truth class of a subscriber in the synthetic core data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UserClass {
    /// A native subscriber of the v-MNO.
    Native,
    /// An ordinary inbound roamer from the b-MNO (a Pole visiting the UK).
    BmnoRoamer,
    /// An aggregator customer riding a leased b-MNO IMSI.
    AggregatorUser,
}

/// One subscriber-day as the v-MNO core records it.
#[derive(Debug, Clone, Copy)]
pub struct CoreRecord {
    /// Subscriber identity.
    pub imsi: Imsi,
    /// Device identity.
    pub imei: Imei,
    /// User-plane volume, MB/day.
    pub data_mb: f64,
    /// Control-plane volume, MB/day.
    pub signalling_mb: f64,
    /// Ground truth (not available to the analysis; used for validation).
    pub truth: UserClass,
}

/// Distributional summary per class — the Fig. 5 panels.
#[derive(Debug, Clone, Copy)]
pub struct TrafficStats {
    /// Median data volume, MB/day.
    pub median_data_mb: f64,
    /// Median signalling volume, MB/day.
    pub median_signalling_mb: f64,
    /// Mean data volume, MB/day.
    pub mean_data_mb: f64,
    /// Mean signalling volume, MB/day.
    pub mean_signalling_mb: f64,
    /// Number of subscriber-days.
    pub n: usize,
}

impl TrafficStats {
    /// Summarise a set of records.
    #[must_use]
    pub fn from_records(records: &[&CoreRecord]) -> Option<TrafficStats> {
        if records.is_empty() {
            return None;
        }
        let data: Vec<f64> = records.iter().map(|r| r.data_mb).collect();
        let sig: Vec<f64> = records.iter().map(|r| r.signalling_mb).collect();
        Some(TrafficStats {
            median_data_mb: median(&data).expect("non-empty"),
            median_signalling_mb: median(&sig).expect("non-empty"),
            mean_data_mb: Summary::from(&data).expect("non-empty").mean,
            mean_signalling_mb: Summary::from(&sig).expect("non-empty").mean,
            n: records.len(),
        })
    }
}

/// Parameters of the synthetic month of core data.
#[derive(Debug, Clone)]
pub struct VisibilityExperiment {
    /// Native v-MNO subscribers.
    pub n_native: usize,
    /// Ordinary b-MNO inbound roamers.
    pub n_roamers: usize,
    /// Aggregator users (on leased b-MNO IMSIs).
    pub n_aggregator: usize,
    /// Days of records per subscriber.
    pub days: usize,
    /// The v-MNO's own PLMN.
    pub native_plmn: Plmn,
    /// The b-MNO's PLMN (Play).
    pub bmno_plmn: Plmn,
    /// The MSIN block the b-MNO leased to the aggregator.
    pub leased_range: ImsiRange,
    /// IMEIs of the researchers' planted devices (must be aggregator
    /// users; their IMSIs seed the recovery).
    pub planted_devices: usize,
}

impl VisibilityExperiment {
    /// A configuration matching the paper's setup: 10 planted devices on
    /// Play-Poland IMSIs, April-2024-sized populations.
    #[must_use]
    pub fn paper_setup() -> Self {
        let bmno_plmn = Plmn::new(260, 6, 2); // Play Poland
        VisibilityExperiment {
            n_native: 4000,
            n_roamers: 900,
            n_aggregator: 600,
            days: 30,
            native_plmn: Plmn::new(234, 30, 2), // a UK PLMN
            bmno_plmn,
            leased_range: ImsiRange {
                plmn: bmno_plmn,
                start: 7_700_000_000,
                len: 1_000_000,
            },
            planted_devices: 10,
        }
    }
}

/// Event-based signalling model: a subscriber-day's control-plane volume,
/// composed from the events that actually generate it. The GTP-C component
/// is priced at [`roam_ipx::SIGNALLING_BYTES_PER_ATTACH`], the Create
/// Session exchange's header and IE lengths; the dominant RRC/NAS chatter
/// rides on top. Per-class event rates encode §4.2's observations:
///
/// * natives camp on one network: few attaches, steady RRC churn;
/// * ordinary roamers bounce between v-MNOs: many reattaches and periodic
///   TAU storms;
/// * aggregator users sit in between — they camp like natives but carry the
///   roaming registration machinery, which is why the v-MNO sees "slightly
///   higher" signalling from them.
#[derive(Debug, Clone, Copy)]
pub struct SignallingProfile {
    /// Mean session attaches per day (each costs a GTP-C exchange plus the
    /// associated NAS registration burst).
    pub attaches_per_day: f64,
    /// Mean RRC connection events per day (idle↔connected transitions).
    pub rrc_events_per_day: f64,
    /// KB of NAS/RRC chatter per RRC event.
    pub kb_per_rrc_event: f64,
    /// KB of registration burst accompanying each attach (authentication,
    /// security mode, bearer setup — dwarfs the GTP-C bytes themselves).
    pub kb_per_attach: f64,
}

impl SignallingProfile {
    /// The per-class event rates.
    #[must_use]
    pub fn for_class(class: UserClass) -> SignallingProfile {
        match class {
            UserClass::Native => SignallingProfile {
                attaches_per_day: 2.0,
                rrc_events_per_day: 55.0,
                kb_per_rrc_event: 28.0,
                kb_per_attach: 180.0,
            },
            UserClass::AggregatorUser => SignallingProfile {
                attaches_per_day: 3.0,
                rrc_events_per_day: 60.0,
                kb_per_rrc_event: 28.0,
                kb_per_attach: 260.0, // roaming registration is heavier
            },
            UserClass::BmnoRoamer => SignallingProfile {
                attaches_per_day: 7.0,
                rrc_events_per_day: 62.0,
                kb_per_rrc_event: 30.0,
                kb_per_attach: 280.0,
            },
        }
    }

    /// Draw one day of signalling volume, MB.
    #[must_use]
    pub fn daily_volume_mb(&self, rng: &mut SmallRng) -> f64 {
        // Event counts wobble ±40% day to day.
        let wobble = |rng: &mut SmallRng, mean: f64| mean * (0.6 + 0.8 * rng.gen::<f64>());
        let attaches = wobble(rng, self.attaches_per_day);
        let rrc = wobble(rng, self.rrc_events_per_day);
        let gtpc_bytes = roam_ipx::SIGNALLING_BYTES_PER_ATTACH as f64;
        let kb =
            attaches * (self.kb_per_attach + gtpc_bytes / 1024.0) + rrc * self.kb_per_rrc_event;
        kb / 1024.0
    }
}

/// Generate the synthetic core records.
///
/// Distribution targets (shape of Fig. 5): aggregator users ≈ natives on
/// data; ordinary roamers lighter and burstier on data (they also split
/// across other v-MNOs); aggregator signalling slightly above native,
/// roamer signalling higher still (registration churn).
#[must_use]
pub fn simulate_core_records(
    exp: &VisibilityExperiment,
    rng: &mut SmallRng,
) -> (Vec<CoreRecord>, Vec<Imei>) {
    let mut records = Vec::new();
    let mut planted_imeis = Vec::new();
    let mut next_imei: u64 = 350_000_000_000_001;

    // Log-normal-ish draw: exp(N(mu, sigma)) scaled.
    let lognorm = |rng: &mut SmallRng, median: f64, sigma: f64| -> f64 {
        let u: f64 = rng.gen::<f64>().max(1e-9);
        let v: f64 = rng.gen::<f64>().max(1e-9);
        // Box-Muller standard normal.
        let z = (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos();
        median * (sigma * z).exp()
    };

    let push_user = |rng: &mut SmallRng,
                     records: &mut Vec<CoreRecord>,
                     imsi: Imsi,
                     imei: Imei,
                     truth: UserClass,
                     days: usize| {
        let profile = SignallingProfile::for_class(truth);
        for _ in 0..days {
            let data = match truth {
                // Natives: healthy daily usage.
                UserClass::Native => lognorm(rng, 350.0, 0.8),
                // Aggregator users behave like natives on data (§4.2).
                UserClass::AggregatorUser => lognorm(rng, 330.0, 0.8),
                // Ordinary roamers: lighter data (split across v-MNOs).
                UserClass::BmnoRoamer => lognorm(rng, 120.0, 1.1),
            };
            let sig = profile.daily_volume_mb(rng);
            records.push(CoreRecord {
                imsi,
                imei,
                data_mb: data,
                signalling_mb: sig,
                truth,
            });
        }
    };

    for i in 0..exp.n_native {
        let imsi = Imsi::new(exp.native_plmn, 100_000_000 + i as u64);
        let imei = Imei(next_imei);
        next_imei += 1;
        push_user(rng, &mut records, imsi, imei, UserClass::Native, exp.days);
    }
    for i in 0..exp.n_roamers {
        // Roamers draw from the b-MNO's general numbering space, outside
        // the leased block.
        let imsi = Imsi::new(exp.bmno_plmn, 1_000_000_000 + i as u64 * 37);
        debug_assert!(!exp.leased_range.contains(imsi));
        let imei = Imei(next_imei);
        next_imei += 1;
        push_user(
            rng,
            &mut records,
            imsi,
            imei,
            UserClass::BmnoRoamer,
            exp.days,
        );
    }
    for i in 0..exp.n_aggregator {
        let imsi = exp
            .leased_range
            .nth(rng.gen_range(0..exp.leased_range.len / 2) * 2 + (i as u64 % 2))
            .expect("within lease");
        let imei = Imei(next_imei);
        next_imei += 1;
        if planted_imeis.len() < exp.planted_devices {
            planted_imeis.push(imei);
        }
        push_user(
            rng,
            &mut records,
            imsi,
            imei,
            UserClass::AggregatorUser,
            exp.days,
        );
    }
    (records, planted_imeis)
}

/// Recover candidate leased IMSI ranges from the core records, given the
/// IMEIs of the planted devices — the paper's pattern-matching step.
///
/// Strategy: collect the MSINs the planted IMEIs map to, take the longest
/// common decimal prefix, and return the whole block under that prefix
/// (under the b-MNO's PLMN).
#[must_use]
pub fn recover_imsi_ranges(records: &[CoreRecord], planted: &[Imei]) -> Vec<ImsiRange> {
    let seeds: Vec<Imsi> = records
        .iter()
        .filter(|r| planted.contains(&r.imei))
        .map(|r| r.imsi)
        .collect();
    if seeds.is_empty() {
        return vec![];
    }
    let plmn = seeds[0].plmn();
    if seeds.iter().any(|s| s.plmn() != plmn) {
        // Multiple PLMNs among the seeds would mean multiple leases;
        // the paper's case has one.
        return vec![];
    }
    // MSIN width for this PLMN: derive from a formatted IMSI.
    let msin_width = seeds[0].to_string().len() - 3 - 2; // mcc + 2-digit mnc
    let strings: Vec<String> = seeds
        .iter()
        .map(|s| format!("{:0width$}", s.msin(), width = msin_width))
        .collect();
    let mut prefix_len = strings[0].len();
    for s in &strings[1..] {
        let common = strings[0]
            .bytes()
            .zip(s.bytes())
            .take_while(|(a, b)| a == b)
            .count();
        prefix_len = prefix_len.min(common);
    }
    if prefix_len == 0 {
        return vec![];
    }
    let prefix: u64 = strings[0][..prefix_len].parse().expect("digits");
    let block = 10u64.pow((msin_width - prefix_len) as u32);
    vec![ImsiRange {
        plmn,
        start: prefix * block,
        len: block,
    }]
}

/// Classify every record using recovered ranges, as the v-MNO analysis
/// would: inside a recovered range → aggregator; same PLMN as the b-MNO →
/// ordinary roamer; otherwise native.
#[must_use]
pub fn infer_class(record: &CoreRecord, bmno_plmn: Plmn, ranges: &[ImsiRange]) -> UserClass {
    if ranges.iter().any(|r| r.contains(record.imsi)) {
        UserClass::AggregatorUser
    } else if record.imsi.plmn() == bmno_plmn {
        UserClass::BmnoRoamer
    } else {
        UserClass::Native
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small_exp() -> VisibilityExperiment {
        VisibilityExperiment {
            n_native: 300,
            n_roamers: 150,
            n_aggregator: 120,
            days: 5,
            ..VisibilityExperiment::paper_setup()
        }
    }

    #[test]
    fn generation_produces_expected_volume() {
        let exp = small_exp();
        let mut rng = SmallRng::seed_from_u64(42);
        let (records, planted) = simulate_core_records(&exp, &mut rng);
        assert_eq!(records.len(), (300 + 150 + 120) * 5);
        assert_eq!(planted.len(), 10);
    }

    #[test]
    fn planted_devices_are_aggregator_users() {
        let exp = small_exp();
        let mut rng = SmallRng::seed_from_u64(42);
        let (records, planted) = simulate_core_records(&exp, &mut rng);
        for r in records.iter().filter(|r| planted.contains(&r.imei)) {
            assert_eq!(r.truth, UserClass::AggregatorUser);
            assert!(exp.leased_range.contains(r.imsi));
        }
    }

    #[test]
    fn recovery_finds_a_range_covering_the_lease_seeds() {
        let exp = small_exp();
        let mut rng = SmallRng::seed_from_u64(42);
        let (records, planted) = simulate_core_records(&exp, &mut rng);
        let ranges = recover_imsi_ranges(&records, &planted);
        assert_eq!(ranges.len(), 1);
        let range = ranges[0];
        assert_eq!(range.plmn, exp.bmno_plmn);
        // Every aggregator record must fall inside the recovered range.
        for r in records
            .iter()
            .filter(|r| r.truth == UserClass::AggregatorUser)
        {
            assert!(range.contains(r.imsi), "missed aggregator IMSI {}", r.imsi);
        }
    }

    #[test]
    fn recovered_classification_is_accurate() {
        let exp = small_exp();
        let mut rng = SmallRng::seed_from_u64(42);
        let (records, planted) = simulate_core_records(&exp, &mut rng);
        let ranges = recover_imsi_ranges(&records, &planted);
        let correct = records
            .iter()
            .filter(|r| infer_class(r, exp.bmno_plmn, &ranges) == r.truth)
            .count();
        let acc = correct as f64 / records.len() as f64;
        // Ordinary roamers outside the recovered block and all natives are
        // always right; aggregator accuracy depends on prefix tightness.
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn traffic_stats_reproduce_fig5_shape() {
        let exp = small_exp();
        let mut rng = SmallRng::seed_from_u64(7);
        let (records, _) = simulate_core_records(&exp, &mut rng);
        let class_stats = |c: UserClass| {
            let rs: Vec<&CoreRecord> = records.iter().filter(|r| r.truth == c).collect();
            TrafficStats::from_records(&rs).unwrap()
        };
        let native = class_stats(UserClass::Native);
        let agg = class_stats(UserClass::AggregatorUser);
        let roam = class_stats(UserClass::BmnoRoamer);
        // Aggregator ≈ native on data; roamers clearly lighter.
        let ratio = agg.median_data_mb / native.median_data_mb;
        assert!((0.8..1.2).contains(&ratio), "agg/native data ratio {ratio}");
        assert!(roam.median_data_mb < native.median_data_mb * 0.6);
        // Aggregator signalling slightly above native; roamers above both.
        assert!(agg.median_signalling_mb > native.median_signalling_mb);
        assert!(roam.median_signalling_mb > agg.median_signalling_mb);
    }

    #[test]
    fn signalling_profile_orders_classes_like_fig5() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mean_of = |class: UserClass, rng: &mut SmallRng| {
            let p = SignallingProfile::for_class(class);
            let v: Vec<f64> = (0..2000).map(|_| p.daily_volume_mb(rng)).collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let native = mean_of(UserClass::Native, &mut rng);
        let agg = mean_of(UserClass::AggregatorUser, &mut rng);
        let roam = mean_of(UserClass::BmnoRoamer, &mut rng);
        assert!(
            native < agg,
            "aggregator users sign slightly more: {native} vs {agg}"
        );
        assert!(
            agg < roam,
            "ordinary roamers churn hardest: {agg} vs {roam}"
        );
        // All in the single-digit-MB/day regime the v-MNO core reports.
        for v in [native, agg, roam] {
            assert!((0.5..10.0).contains(&v), "implausible volume {v}");
        }
    }

    #[test]
    fn signalling_includes_the_gtpc_component() {
        // The per-attach GTP-C bytes are tiny and fixed by the IE lengths.
        // 85 is what a Create Session encoder produced for 2- and 3-digit
        // MNC IMSIs alike.
        assert_eq!(roam_ipx::SIGNALLING_BYTES_PER_ATTACH, 85);
    }

    #[test]
    fn recovery_without_seeds_returns_nothing() {
        let exp = small_exp();
        let mut rng = SmallRng::seed_from_u64(42);
        let (records, _) = simulate_core_records(&exp, &mut rng);
        assert!(recover_imsi_ranges(&records, &[Imei(1)]).is_empty());
        assert!(recover_imsi_ranges(&[], &[Imei(1)]).is_empty());
    }

    #[test]
    fn stats_of_empty_set_is_none() {
        assert!(TrafficStats::from_records(&[]).is_none());
    }
}
