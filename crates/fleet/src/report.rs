//! The fleet run's aggregate output: counters, sketches, and a
//! deterministic journey sample.
//!
//! Everything in here merges exactly — integer counters, fixed-point
//! spend, [`QuantileSketch`]es with integral state, and a bottom-k
//! [`KeyedReservoir`] — so a report assembled from any number of shards,
//! in any merge order, renders the same bytes. That property is the
//! second half of the fleet determinism contract (the first is per-user
//! RNG streams) and is pinned by `tests/fleet_determinism.rs`.

use crate::population::TravelerClass;
use roam_codec::{CodecError, Decoder, Encoder};
use roam_geo::Country;
use roam_measure::DegradationSummary;
use roam_stats::{KeyedReservoir, QuantileSketch};
use std::fmt::Write as _;

/// One sampled subscriber journey, kept by the report's deterministic
/// reservoir for spot-checking a run without buffering the population.
#[derive(Debug, Clone, PartialEq)]
pub struct JourneySample {
    /// The subscriber.
    pub uid: u64,
    /// Archetype label (`"tourist"`…).
    pub class: &'static str,
    /// Itinerary length.
    pub legs: u32,
    /// First destination (alpha-3).
    pub first: &'static str,
    /// Total marketplace spend, micro-USD.
    pub spend_micro_usd: u128,
}

/// Format micro-USD exactly, without going through floats.
fn usd(micro: u128) -> String {
    format!("{}.{:06}", micro / 1_000_000, micro % 1_000_000)
}

/// Field tags for [`JourneySample`] sections (inside the journey
/// reservoir's item payload).
mod journey_tag {
    pub const UID: u32 = 1;
    pub const CLASS: u32 = 2;
    pub const LEGS: u32 = 3;
    pub const FIRST: u32 = 4;
    pub const SPEND: u32 = 5;
}

/// Field tags for the [`FleetReport`] wire form (checkpoint shard files
/// and worker result frames). Tags are append-only: decoders skip unknown
/// tags, so new fields extend the format without breaking old readers.
mod report_tag {
    pub const USERS: u32 = 1;
    pub const CLASS_COUNT: u32 = 2;
    pub const PURCHASES: u32 = 3;
    pub const SPEND: u32 = 4;
    pub const SESSIONS: u32 = 5;
    pub const RTT_PROBES: u32 = 6;
    pub const DNS_LOOKUPS: u32 = 7;
    pub const TRANSFERS: u32 = 8;
    pub const LOST: u32 = 9;
    pub const DEGRADED: u32 = 10;
    pub const RTT_MS: u32 = 11;
    pub const DNS_MS: u32 = 12;
    pub const PRICE_PER_GB: u32 = 13;
    pub const SESSION_MB: u32 = 14;
    pub const JOURNEYS: u32 = 15;
}

/// Encode a `u128` as a 16-byte little-endian bytes field — varints top
/// out at `u64`, and spend sums are exact fixed-point values that must
/// not be truncated.
fn encode_u128(e: &mut Encoder, tag: u32, v: u128) {
    e.bytes(tag, &v.to_le_bytes());
}

fn decode_u128(raw: &[u8]) -> Result<u128, CodecError> {
    let bytes: [u8; 16] = raw
        .try_into()
        .map_err(|_| CodecError::BadValue("u128 width"))?;
    Ok(u128::from_le_bytes(bytes))
}

/// Intern a traveler-class label back to its `&'static str`.
fn intern_class(s: &str) -> Result<&'static str, CodecError> {
    for class in [
        TravelerClass::Tourist,
        TravelerClass::Business,
        TravelerClass::IotDevice,
    ] {
        if class.label() == s {
            return Ok(class.label());
        }
    }
    Err(CodecError::BadValue("traveler class"))
}

/// Intern an alpha-3 country code back to the measured set's
/// `&'static str`.
fn intern_country(s: &str) -> Result<&'static str, CodecError> {
    Country::MEASURED
        .iter()
        .map(|c| c.alpha3())
        .find(|a3| *a3 == s)
        .ok_or(CodecError::BadValue("country code"))
}

impl JourneySample {
    /// Encode this sample's fields into `e` (one reservoir item payload).
    pub fn encode_fields(&self, e: &mut Encoder) {
        e.u64(journey_tag::UID, self.uid);
        e.str(journey_tag::CLASS, self.class);
        e.u64(journey_tag::LEGS, u64::from(self.legs));
        e.str(journey_tag::FIRST, self.first);
        encode_u128(e, journey_tag::SPEND, self.spend_micro_usd);
    }

    /// Decode one sample from `d`, validating that the class and country
    /// labels belong to the known static sets (the in-memory type holds
    /// `&'static str`, so foreign labels cannot be represented).
    pub fn decode_fields(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let (mut uid, mut class, mut legs, mut first, mut spend) = (None, None, None, None, None);
        while let Some((tag, v)) = d.next_field()? {
            match tag {
                journey_tag::UID => uid = Some(v.as_u64(tag)?),
                journey_tag::CLASS => class = Some(intern_class(v.as_str(tag)?)?),
                journey_tag::LEGS => legs = Some(v.as_u32(tag, "legs")?),
                journey_tag::FIRST => first = Some(intern_country(v.as_str(tag)?)?),
                journey_tag::SPEND => spend = Some(decode_u128(v.as_bytes(tag)?)?),
                _ => {}
            }
        }
        Ok(JourneySample {
            uid: uid.ok_or(CodecError::MissingField("journey uid"))?,
            class: class.ok_or(CodecError::MissingField("journey class"))?,
            legs: legs.ok_or(CodecError::MissingField("journey legs"))?,
            first: first.ok_or(CodecError::MissingField("journey first"))?,
            spend_micro_usd: spend.ok_or(CodecError::MissingField("journey spend"))?,
        })
    }
}

/// Aggregates for one fleet run (or one shard of it — the type is its own
/// merge unit). Memory is O(sketch + sample), independent of population.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Users simulated.
    pub users: u64,
    /// Users per archetype, in [`TravelerClass`] order (tourist,
    /// business, iot).
    pub class_counts: [u64; 3],
    /// Marketplace purchases.
    pub purchases: u64,
    /// Total spend across all purchases, micro-USD (exact).
    pub spend_micro_usd: u128,
    /// Data sessions churned through.
    pub sessions: u64,
    /// RTT probe sessions that delivered a sample.
    pub rtt_probes: u64,
    /// DNS lookup sessions that resolved.
    pub dns_lookups: u64,
    /// Bulk-transfer sessions completed.
    pub transfers: u64,
    /// Sessions whose probe died on a lossy path.
    pub lost_sessions: u64,
    /// Fault-plane outcome tally, populated only when a fault schedule is
    /// active. All-zero (and absent from the render) in undisturbed runs,
    /// so the off-mode report bytes are unchanged.
    pub degraded: DegradationSummary,
    /// Probe round-trip times, ms.
    pub rtt_ms: QuantileSketch,
    /// DNS lookup times, ms.
    pub dns_ms: QuantileSketch,
    /// Purchased plan prices per GB, USD.
    pub price_per_gb: QuantileSketch,
    /// Per-session transfer sizes, MB (the drawn workload; transfer
    /// durations are not computed and never enter the report).
    pub session_mb: QuantileSketch,
    /// Deterministic journey sample, keyed by user id.
    pub journeys: KeyedReservoir<JourneySample>,
}

impl FleetReport {
    /// An empty report whose journey reservoir holds `sample` entries.
    #[must_use]
    pub fn new(sample: usize) -> Self {
        FleetReport {
            users: 0,
            class_counts: [0; 3],
            purchases: 0,
            spend_micro_usd: 0,
            sessions: 0,
            rtt_probes: 0,
            dns_lookups: 0,
            transfers: 0,
            lost_sessions: 0,
            degraded: DegradationSummary::default(),
            rtt_ms: QuantileSketch::log_spaced(0.5, 2_000.0, 10),
            dns_ms: QuantileSketch::log_spaced(0.5, 2_000.0, 10),
            price_per_gb: QuantileSketch::log_spaced(0.05, 500.0, 10),
            session_mb: QuantileSketch::log_spaced(0.01, 10_000.0, 10),
            journeys: KeyedReservoir::new(sample),
        }
    }

    /// Count one user of `class`.
    pub(crate) fn count_user(&mut self, class: TravelerClass) {
        self.users += 1;
        self.class_counts[match class {
            TravelerClass::Tourist => 0,
            TravelerClass::Business => 1,
            TravelerClass::IotDevice => 2,
        }] += 1;
    }

    /// Fold another report in. Exact and order-free: every piece of state
    /// merges associatively.
    pub fn merge(&mut self, other: &FleetReport) {
        self.users += other.users;
        for (a, b) in self.class_counts.iter_mut().zip(&other.class_counts) {
            *a += b;
        }
        self.purchases += other.purchases;
        self.spend_micro_usd += other.spend_micro_usd;
        self.sessions += other.sessions;
        self.rtt_probes += other.rtt_probes;
        self.dns_lookups += other.dns_lookups;
        self.transfers += other.transfers;
        self.lost_sessions += other.lost_sessions;
        self.degraded.merge(other.degraded);
        self.rtt_ms.merge(&other.rtt_ms);
        self.dns_ms.merge(&other.dns_ms);
        self.price_per_gb.merge(&other.price_per_gb);
        self.session_mb.merge(&other.session_mb);
        self.journeys.merge(&other.journeys);
    }

    /// Encode the full report state into `e`. Together with
    /// [`FleetReport::decode_fields`] this is lossless: every counter,
    /// the exact spend sum, all four sketches and the journey reservoir
    /// survive the round trip field-for-field, so a decoded shard report
    /// merges exactly like the in-memory original.
    pub fn encode_fields(&self, e: &mut Encoder) {
        e.u64(report_tag::USERS, self.users);
        for &n in &self.class_counts {
            e.u64(report_tag::CLASS_COUNT, n);
        }
        e.u64(report_tag::PURCHASES, self.purchases);
        encode_u128(e, report_tag::SPEND, self.spend_micro_usd);
        e.u64(report_tag::SESSIONS, self.sessions);
        e.u64(report_tag::RTT_PROBES, self.rtt_probes);
        e.u64(report_tag::DNS_LOOKUPS, self.dns_lookups);
        e.u64(report_tag::TRANSFERS, self.transfers);
        e.u64(report_tag::LOST, self.lost_sessions);
        e.section(report_tag::DEGRADED, |se| self.degraded.encode_fields(se));
        e.section(report_tag::RTT_MS, |se| self.rtt_ms.encode_fields(se));
        e.section(report_tag::DNS_MS, |se| self.dns_ms.encode_fields(se));
        e.section(report_tag::PRICE_PER_GB, |se| {
            self.price_per_gb.encode_fields(se)
        });
        e.section(report_tag::SESSION_MB, |se| {
            self.session_mb.encode_fields(se)
        });
        e.section(report_tag::JOURNEYS, |se| {
            self.journeys
                .encode_fields_with(se, |ie, j| j.encode_fields(ie));
        });
    }

    /// Decode a report from `d`. The sketches and the reservoir are
    /// required (their bucket layout is part of the state); counters
    /// default to zero when absent so an all-zero report stays compact.
    pub fn decode_fields(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let mut users = 0;
        let mut class_counts = [0u64; 3];
        let mut classes_seen = 0usize;
        let mut purchases = 0;
        let mut spend = 0u128;
        let mut sessions = 0;
        let mut rtt_probes = 0;
        let mut dns_lookups = 0;
        let mut transfers = 0;
        let mut lost = 0;
        let mut degraded = DegradationSummary::default();
        let (mut rtt_ms, mut dns_ms, mut price_per_gb, mut session_mb) = (None, None, None, None);
        let mut journeys = None;
        while let Some((tag, v)) = d.next_field()? {
            match tag {
                report_tag::USERS => users = v.as_u64(tag)?,
                report_tag::CLASS_COUNT => {
                    if classes_seen >= class_counts.len() {
                        return Err(CodecError::BadValue("class cardinality"));
                    }
                    class_counts[classes_seen] = v.as_u64(tag)?;
                    classes_seen += 1;
                }
                report_tag::PURCHASES => purchases = v.as_u64(tag)?,
                report_tag::SPEND => spend = decode_u128(v.as_bytes(tag)?)?,
                report_tag::SESSIONS => sessions = v.as_u64(tag)?,
                report_tag::RTT_PROBES => rtt_probes = v.as_u64(tag)?,
                report_tag::DNS_LOOKUPS => dns_lookups = v.as_u64(tag)?,
                report_tag::TRANSFERS => transfers = v.as_u64(tag)?,
                report_tag::LOST => lost = v.as_u64(tag)?,
                report_tag::DEGRADED => {
                    degraded = DegradationSummary::decode_fields(&mut v.as_section(tag)?)?;
                }
                report_tag::RTT_MS => {
                    rtt_ms = Some(QuantileSketch::decode_fields(&mut v.as_section(tag)?)?);
                }
                report_tag::DNS_MS => {
                    dns_ms = Some(QuantileSketch::decode_fields(&mut v.as_section(tag)?)?);
                }
                report_tag::PRICE_PER_GB => {
                    price_per_gb = Some(QuantileSketch::decode_fields(&mut v.as_section(tag)?)?);
                }
                report_tag::SESSION_MB => {
                    session_mb = Some(QuantileSketch::decode_fields(&mut v.as_section(tag)?)?);
                }
                report_tag::JOURNEYS => {
                    journeys = Some(KeyedReservoir::decode_fields_with(
                        &mut v.as_section(tag)?,
                        JourneySample::decode_fields,
                    )?);
                }
                _ => {}
            }
        }
        Ok(FleetReport {
            users,
            class_counts,
            purchases,
            spend_micro_usd: spend,
            sessions,
            rtt_probes,
            dns_lookups,
            transfers,
            lost_sessions: lost,
            degraded,
            rtt_ms: rtt_ms.ok_or(CodecError::MissingField("rtt_ms"))?,
            dns_ms: dns_ms.ok_or(CodecError::MissingField("dns_ms"))?,
            price_per_gb: price_per_gb.ok_or(CodecError::MissingField("price_per_gb"))?,
            session_mb: session_mb.ok_or(CodecError::MissingField("session_mb"))?,
            journeys: journeys.ok_or(CodecError::MissingField("journeys"))?,
        })
    }

    /// The fixed-layout textual report. Shard count, worker count and
    /// wall time are deliberately absent — this render is the
    /// byte-identity boundary the determinism tests compare.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== roam-fleet report ==");
        let _ = writeln!(out, "users                {}", self.users);
        for (i, label) in ["tourist", "business", "iot"].iter().enumerate() {
            let _ = writeln!(out, "  {:<18} {}", label, self.class_counts[i]);
        }
        let _ = writeln!(out, "purchases            {}", self.purchases);
        let _ = writeln!(out, "spend_usd            {}", usd(self.spend_micro_usd));
        let _ = writeln!(out, "sessions             {}", self.sessions);
        let _ = writeln!(out, "  rtt_probes         {}", self.rtt_probes);
        let _ = writeln!(out, "  dns_lookups        {}", self.dns_lookups);
        let _ = writeln!(out, "  transfers          {}", self.transfers);
        let _ = writeln!(out, "  lost               {}", self.lost_sessions);
        if self.degraded != DegradationSummary::default() {
            let d = &self.degraded;
            let _ = writeln!(out, "degradation:");
            let _ = writeln!(out, "  ok                 {}", d.ok);
            let _ = writeln!(out, "  failover           {}", d.failover);
            let _ = writeln!(out, "  timeout            {}", d.timeout);
            let _ = writeln!(out, "  unreachable        {}", d.unreachable);
        }
        let _ = writeln!(out, "metrics:");
        for (name, s) in [
            ("rtt_ms", &self.rtt_ms),
            ("dns_ms", &self.dns_ms),
            ("price_per_gb", &self.price_per_gb),
            ("session_mb", &self.session_mb),
        ] {
            let q = |p: f64| s.quantile(p).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "  {:<18} count={} mean={:.3} p50={:.3} p90={:.3} p99={:.3} \
                 min={:.3} max={:.3} dropped={}",
                name,
                s.count(),
                s.mean(),
                q(0.5),
                q(0.9),
                q(0.99),
                if s.count() > 0 { s.min() } else { 0.0 },
                if s.count() > 0 { s.max() } else { 0.0 },
                s.dropped()
            );
        }
        let _ = writeln!(
            out,
            "journeys (sample of {} by stable priority):",
            self.journeys.cap()
        );
        for j in self.journeys.items() {
            let _ = writeln!(
                out,
                "  u{:<10} {:<8} legs={} first={} spend_usd={}",
                j.uid,
                j.class,
                j.legs,
                j.first,
                usd(j.spend_micro_usd)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(range: std::ops::Range<u64>) -> FleetReport {
        let mut r = FleetReport::new(4);
        for uid in range {
            r.count_user(TravelerClass::Tourist);
            r.sessions += 2;
            r.rtt_probes += 1;
            r.purchases += 1;
            r.spend_micro_usd += u128::from(uid) * 1_250_000;
            r.rtt_ms.observe(20.0 + uid as f64);
            r.price_per_gb.observe(2.0 + (uid % 7) as f64);
            r.journeys.offer(
                uid.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                uid,
                JourneySample {
                    uid,
                    class: "tourist",
                    legs: 1,
                    first: "PAK",
                    spend_micro_usd: 1_250_000,
                },
            );
        }
        r
    }

    #[test]
    fn merge_is_partition_invariant_and_render_is_stable() {
        let whole = filled(0..100);
        let mut split = filled(0..37);
        split.merge(&filled(37..100));
        assert_eq!(whole, split);
        assert_eq!(whole.render(), split.render());
        // Merging the shards the other way round renders the same bytes.
        let mut reversed = filled(37..100);
        reversed.merge(&filled(0..37));
        assert_eq!(whole.render(), reversed.render());
    }

    #[test]
    fn spend_formats_exactly() {
        assert_eq!(usd(0), "0.000000");
        assert_eq!(usd(1_250_000), "1.250000");
        assert_eq!(usd(12_345_678_901), "12345.678901");
    }

    fn round_trip(r: &FleetReport) -> FleetReport {
        let mut e = Encoder::new();
        r.encode_fields(&mut e);
        let bytes = e.into_bytes();
        FleetReport::decode_fields(&mut Decoder::new(&bytes)).expect("clean round trip")
    }

    #[test]
    fn report_codec_round_trip_is_identity() {
        let filled = filled(0..100);
        assert_eq!(round_trip(&filled), filled);
        let empty = FleetReport::new(8);
        assert_eq!(round_trip(&empty), empty);
    }

    #[test]
    fn decoded_reports_merge_like_in_memory_ones() {
        let mut mem = filled(0..37);
        mem.merge(&filled(37..100));
        let mut wire = round_trip(&filled(0..37));
        wire.merge(&round_trip(&filled(37..100)));
        assert_eq!(wire, mem);
        assert_eq!(wire.render(), mem.render());
    }

    #[test]
    fn foreign_labels_are_rejected() {
        let mut e = Encoder::new();
        JourneySample {
            uid: 1,
            class: "tourist",
            legs: 1,
            first: "PAK",
            spend_micro_usd: 0,
        }
        .encode_fields(&mut e);
        let good = e.into_bytes();
        assert!(JourneySample::decode_fields(&mut Decoder::new(&good)).is_ok());
        let mut e = Encoder::new();
        e.u64(1, 1);
        e.str(2, "astronaut");
        e.u64(3, 1);
        e.str(4, "PAK");
        e.bytes(5, &0u128.to_le_bytes());
        let bad = e.into_bytes();
        assert!(matches!(
            JourneySample::decode_fields(&mut Decoder::new(&bad)),
            Err(CodecError::BadValue("traveler class"))
        ));
    }

    #[test]
    fn render_layout_survives_an_empty_run() {
        let r = FleetReport::new(8);
        let s = r.render();
        assert!(s.contains("users                0"));
        assert!(s.contains("rtt_ms"));
        assert!(s.contains("mean=0.000"));
        assert!(s.ends_with("priority):\n"));
    }
}
