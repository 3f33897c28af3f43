//! Fleet session records and their dataset export.
//!
//! The fleet plane aggregates by default — sketches, counters, a
//! journey reservoir — so a million-user run stays O(shards × sketch).
//! A caller holding a [`SharedSink`](roam_measure::SharedSink) can
//! additionally ask the runner ([`FleetRunner::sink`]) to stream one
//! [`Dataset::Sessions`] row per measurement session: the same
//! sink-based export surface the campaign plane uses, fed from the
//! shard loop instead of record containers.
//!
//! [`SessionRecord`] is the flattened observable — the endpoint's
//! context tag, what the session did, the metric it produced (at most
//! one of `rtt_ms` / `lookup_ms` / `mb` is set) and how it ended.
//! [`SessionRows`] (a borrowed batch) implements `Exporter`, mapping onto the
//! [`Dataset::Sessions`] schema, so every [`DataSink`] (CSV string,
//! [`MemorySink`](roam_measure::MemorySink),
//! [`ColumnarSink`](roam_measure::ColumnarSink)) renders fleet
//! sessions with the exact semantics the campaign datasets get:
//! quote-on-demand country tags, fixed-precision floats, empty/null
//! metric fields on failed sessions.
//!
//! [`FleetRunner::sink`]: crate::FleetRunner::sink

use roam_measure::campaign::RecordTag;
use roam_measure::{
    status_code, tag_cells, CellValue, DataSink, Dataset, Endpoint, Exporter, MeasureError,
    MeasureStatus,
};

/// What a fleet session did, in the `kind` column's enum-code order
/// (`["rtt", "dns", "transfer"]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionKind {
    /// One RTT probe to the country's nearest Google target.
    Rtt,
    /// One resolver lookup through the endpoint's resolver plan.
    Dns,
    /// One sized data transfer (the drawn megabytes are the observable).
    Transfer,
}

impl SessionKind {
    /// Enum code under the schema's `kind` column.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            SessionKind::Rtt => 0,
            SessionKind::Dns => 1,
            SessionKind::Transfer => 2,
        }
    }
}

/// One fleet measurement session, flattened for export. Failed
/// sessions keep their tag and kind but carry no metric — the sink
/// renders those fields empty (CSV) or null (columnar), exactly like
/// a failed campaign record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionRecord {
    /// Context of the endpoint the session ran on.
    pub tag: RecordTag,
    /// What the session did.
    pub kind: SessionKind,
    /// RTT sample, ms (`Rtt` sessions that delivered).
    pub rtt_ms: Option<f64>,
    /// Lookup time, ms (`Dns` sessions that delivered).
    pub lookup_ms: Option<f64>,
    /// Transfer size, MB (`Transfer` sessions that delivered).
    pub mb: Option<f64>,
    /// How the session ended.
    pub status: MeasureStatus,
}

impl SessionRecord {
    /// The record of one `kind` session on `ep`. A delivered session's
    /// metric lands in the field its kind owns (`rtt_ms`, `lookup_ms` or
    /// `mb`); a failed one keeps only the error's status.
    #[must_use]
    pub fn new(
        ep: &Endpoint,
        kind: SessionKind,
        result: &Result<(f64, MeasureStatus), MeasureError>,
    ) -> Self {
        let (metric, status) = match result {
            Ok((v, status)) => (Some(*v), *status),
            Err(e) => (None, e.status()),
        };
        let owned = |k: SessionKind| if k == kind { metric } else { None };
        SessionRecord {
            tag: RecordTag::of(ep),
            kind,
            rtt_ms: owned(SessionKind::Rtt),
            lookup_ms: owned(SessionKind::Dns),
            mb: owned(SessionKind::Transfer),
            status,
        }
    }
}

/// A borrowed batch of session records, viewed through the [`Exporter`]
/// surface (the orphan rule keeps the impl off `[SessionRecord]`
/// itself — `Exporter` lives in `roam-measure`).
#[derive(Debug, Clone, Copy)]
pub struct SessionRows<'a>(pub &'a [SessionRecord]);

impl Exporter for SessionRows<'_> {
    fn datasets(&self) -> &'static [Dataset] {
        &[Dataset::Sessions]
    }

    fn export_rows(&self, ds: Dataset, sink: &mut dyn DataSink) {
        if ds != Dataset::Sessions {
            return;
        }
        for r in self.0 {
            let [c, s, a, t] = tag_cells(&r.tag);
            sink.row(
                Dataset::Sessions,
                &[
                    c,
                    s,
                    a,
                    t,
                    CellValue::Code(r.kind.code()),
                    CellValue::F64(r.rtt_ms),
                    CellValue::F64(r.lookup_ms),
                    CellValue::F64(r.mb),
                    CellValue::Code(status_code(r.status)),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roam_cellular::{Rat, SimType};
    use roam_geo::Country;
    use roam_ipx::RoamingArch;

    fn record(kind: SessionKind) -> SessionRecord {
        SessionRecord {
            tag: RecordTag {
                country: Country::FRA,
                sim_type: SimType::Esim,
                arch: RoamingArch::HomeRouted,
                rat: Rat::Lte,
            },
            kind,
            rtt_ms: matches!(kind, SessionKind::Rtt).then_some(42.5),
            lookup_ms: matches!(kind, SessionKind::Dns).then_some(12.25),
            mb: matches!(kind, SessionKind::Transfer).then_some(100.0),
            status: MeasureStatus::Ok,
        }
    }

    #[test]
    fn session_rows_render_under_the_sessions_schema() {
        let records = vec![
            record(SessionKind::Rtt),
            record(SessionKind::Dns),
            record(SessionKind::Transfer),
            SessionRecord {
                status: MeasureStatus::Timeout,
                rtt_ms: None,
                ..record(SessionKind::Rtt)
            },
        ];
        let csv = SessionRows(&records).export(Dataset::Sessions);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], Dataset::Sessions.header());
        assert_eq!(lines[1], "FRA,esim,HR,4G,rtt,42.500,,,ok");
        assert_eq!(lines[2], "FRA,esim,HR,4G,dns,,12.250,,ok");
        assert_eq!(lines[3], "FRA,esim,HR,4G,transfer,,,100.000,ok");
        assert_eq!(lines[4], "FRA,esim,HR,4G,rtt,,,,timeout");
    }

    #[test]
    fn kinds_match_the_schema_enum_order() {
        let schema = Dataset::Sessions.schema();
        let col = schema.col("kind").expect("kind column");
        let roam_columnar::ColKind::Enum(labels) = &schema.fields()[col].kind else {
            panic!("kind must be an enum column");
        };
        for (kind, label) in [
            (SessionKind::Rtt, "rtt"),
            (SessionKind::Dns, "dns"),
            (SessionKind::Transfer, "transfer"),
        ] {
            assert_eq!(labels[kind.code() as usize], label);
        }
    }

    #[test]
    fn other_datasets_emit_nothing() {
        let records = vec![record(SessionKind::Rtt)];
        assert_eq!(
            SessionRows(&records).export(Dataset::Voip),
            format!("{}\n", Dataset::Voip.header())
        );
    }
}
