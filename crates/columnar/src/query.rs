//! The streaming query engine: filter → scan → collect/aggregate.
//!
//! Queries run chunk-by-chunk: filters resolve their column indices
//! once at construction, bind that chunk's pages, and rows stream
//! through the predicate stack without materializing anything but the
//! requested output. Filters are value predicates — a null cell never
//! matches (`eq`, `none_of`, `u32_ge` all fail on null), mirroring how
//! the CSV bins skipped empty fields.
//!
//! Group output ordering is stable and partition-independent:
//! ascending numeric code for u32/enum keys, ascending label for
//! dictionary keys. Never insertion order, so the same rows in any
//! arrival order group identically.

use roam_stats::QuantileSketch;

use crate::{ColKind, ColumnarSource, PageRef};

/// A compiled row predicate over one column.
#[derive(Clone, Debug)]
enum Filter {
    /// Enum code ∈ mask (labels are ≤ 64 per column by construction).
    CodeIn { col: usize, mask: u64 },
    /// Dict id ∈ ids.
    DictIn { col: usize, ids: Vec<u32> },
    /// Dict id present and ∉ ids.
    DictNotIn { col: usize, ids: Vec<u32> },
    /// u32 present and == v.
    U32Eq { col: usize, v: u32 },
    /// u32 present and >= min.
    U32Ge { col: usize, min: u32 },
}

impl Filter {
    fn col(&self) -> usize {
        match self {
            Filter::CodeIn { col, .. }
            | Filter::DictIn { col, .. }
            | Filter::DictNotIn { col, .. }
            | Filter::U32Eq { col, .. }
            | Filter::U32Ge { col, .. } => *col,
        }
    }

    fn passes(&self, page: &PageRef<'_>, row: usize) -> bool {
        match self {
            Filter::CodeIn { mask, .. } => mask >> page.code_at(row) & 1 == 1,
            Filter::DictIn { ids, .. } => page.u32_at(row).is_some_and(|id| ids.contains(&id)),
            Filter::DictNotIn { ids, .. } => page.u32_at(row).is_some_and(|id| !ids.contains(&id)),
            Filter::U32Eq { v, .. } => page.u32_at(row) == Some(*v),
            Filter::U32Ge { min, .. } => page.u32_at(row).is_some_and(|x| x >= *min),
        }
    }
}

/// One group's identity in a group-by result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupKey<'s> {
    /// Plain numeric key (u32 key column).
    U32(u32),
    /// Coded key (enum or dict column): code plus its label.
    Label(u32, &'s str),
}

impl GroupKey<'_> {
    /// The numeric code of the key.
    #[must_use]
    pub fn code(&self) -> u32 {
        match self {
            GroupKey::U32(v) | GroupKey::Label(v, _) => *v,
        }
    }

    /// The label of a coded key.
    ///
    /// # Panics
    /// On a plain `U32` key.
    #[must_use]
    pub fn label(&self) -> &str {
        match self {
            GroupKey::Label(_, l) => l,
            GroupKey::U32(_) => panic!("u32 group key has no label"),
        }
    }
}

/// One group of a group-by: its key and the aggregate built over it.
#[derive(Clone, Debug)]
pub struct Group<'s, A> {
    pub key: GroupKey<'s>,
    pub value: A,
}

/// A streaming query: zero or more filters over a [`ColumnarSource`],
/// finished by a collecting or aggregating terminal.
#[derive(Clone, Debug)]
pub struct Query<'s, S: ColumnarSource> {
    src: &'s S,
    filters: Vec<Filter>,
}

impl<'s, S: ColumnarSource> Query<'s, S> {
    #[must_use]
    pub fn new(src: &'s S) -> Self {
        Query {
            src,
            filters: Vec::new(),
        }
    }

    fn col(&self, name: &str) -> usize {
        self.src
            .schema()
            .col(name)
            .unwrap_or_else(|| panic!("no column named {name:?}"))
    }

    /// Keep rows whose coded column equals `label` (enum or dict).
    /// A label absent from the dictionary matches no rows.
    #[must_use]
    pub fn eq(self, name: &str, label: &str) -> Self {
        self.any_of(name, &[label])
    }

    /// Keep rows whose coded column is any of `labels`.
    #[must_use]
    pub fn any_of(mut self, name: &str, labels: &[&str]) -> Self {
        let col = self.col(name);
        self.filters.push(self.coded_filter(col, labels, false));
        self
    }

    /// Keep rows whose coded column is present and none of `labels`.
    #[must_use]
    pub fn none_of(mut self, name: &str, labels: &[&str]) -> Self {
        let col = self.col(name);
        self.filters.push(self.coded_filter(col, labels, true));
        self
    }

    fn coded_filter(&self, col: usize, labels: &[&str], negate: bool) -> Filter {
        match &self.src.schema().fields()[col].kind {
            ColKind::Enum(all) => {
                assert!(all.len() <= 64, "enum label sets are small by construction");
                let mut mask = 0u64;
                for label in labels {
                    if let Some(i) = all.iter().position(|l| l == label) {
                        mask |= 1 << i;
                    }
                }
                if negate {
                    mask = !mask & ((1u64 << all.len()) - 1);
                }
                Filter::CodeIn { col, mask }
            }
            ColKind::Dict => {
                let ids: Vec<u32> = labels
                    .iter()
                    .filter_map(|l| self.src.dict_lookup(col, l))
                    .collect();
                if negate {
                    Filter::DictNotIn { col, ids }
                } else {
                    Filter::DictIn { col, ids }
                }
            }
            kind => panic!("column {col} kind {kind:?} has no labels to filter on"),
        }
    }

    /// Keep rows whose u32 column is present and equals `v`.
    #[must_use]
    pub fn u32_eq(mut self, name: &str, v: u32) -> Self {
        let col = self.col(name);
        self.filters.push(Filter::U32Eq { col, v });
        self
    }

    /// Keep rows whose u32 column is present and at least `min`.
    #[must_use]
    pub fn u32_ge(mut self, name: &str, min: u32) -> Self {
        let col = self.col(name);
        self.filters.push(Filter::U32Ge { col, min });
        self
    }

    /// Stream matching rows: `f(chunk, row)` in storage order.
    fn scan(&self, mut f: impl FnMut(usize, usize)) {
        for chunk in 0..self.src.chunk_count() {
            let pages: Vec<PageRef<'_>> = self
                .filters
                .iter()
                .map(|flt| self.src.page(chunk, flt.col()))
                .collect();
            for row in 0..self.src.chunk_rows(chunk) {
                if self
                    .filters
                    .iter()
                    .zip(&pages)
                    .all(|(flt, page)| flt.passes(page, row))
                {
                    f(chunk, row);
                }
            }
        }
    }

    /// Count matching rows.
    #[must_use]
    pub fn count(&self) -> u64 {
        let mut n = 0;
        self.scan(|_, _| n += 1);
        n
    }

    /// Collect an f64 column over matching rows, storage order, nulls
    /// skipped — the exact value stream the CSV bins used to collect.
    #[must_use]
    pub fn values(&self, name: &str) -> Vec<f64> {
        let col = self.col(name);
        let mut out = Vec::new();
        let mut cur = usize::MAX;
        let mut page = None;
        self.scan(|chunk, row| {
            if chunk != cur {
                cur = chunk;
                page = Some(self.src.page(chunk, col));
            }
            if let Some(v) = page.as_ref().expect("bound page").f64_at(row) {
                out.push(v);
            }
        });
        out
    }

    /// Collect a coded column's labels over matching rows (`None` for
    /// null dict cells), storage order.
    #[must_use]
    pub fn labels(&self, name: &str) -> Vec<Option<&'s str>> {
        let col = self.col(name);
        let coded = matches!(self.src.schema().fields()[col].kind, ColKind::Enum(_));
        let mut out: Vec<Option<&'s str>> = Vec::new();
        let mut cur = usize::MAX;
        let mut page = None;
        self.scan(|chunk, row| {
            if chunk != cur {
                cur = chunk;
                page = Some(self.src.page(chunk, col));
            }
            let page = page.as_ref().expect("bound page");
            let code = if coded {
                Some(u32::from(page.code_at(row)))
            } else {
                page.u32_at(row)
            };
            out.push(code.map(|c| self.src.label_of(col, c)));
        });
        out
    }

    /// Aggregate an f64 column over matching rows into one sketch.
    #[must_use]
    pub fn sketch(&self, name: &str, lo: f64, hi: f64, per_decade: u32) -> QuantileSketch {
        let col = self.col(name);
        let mut sk = QuantileSketch::log_spaced(lo, hi, per_decade);
        let mut cur = usize::MAX;
        let mut page = None;
        self.scan(|chunk, row| {
            if chunk != cur {
                cur = chunk;
                page = Some(self.src.page(chunk, col));
            }
            if let Some(v) = page.as_ref().expect("bound page").f64_at(row) {
                sk.observe(v);
            }
        });
        sk
    }

    /// Group matching rows by a key column and collect an f64 metric
    /// per group. Rows with a null key are skipped. Output order is
    /// stable: ascending code for u32/enum keys, ascending label for
    /// dict keys.
    #[must_use]
    pub fn group_values(&self, key: &str, metric: &str) -> Vec<Group<'s, Vec<f64>>> {
        self.group_fold(key, metric, Vec::new, |acc, v| acc.push(v))
    }

    /// Group matching rows by a key column, aggregating an f64 metric
    /// into a `log_spaced(lo, hi, per_decade)` sketch per group.
    #[must_use]
    pub fn group_sketch(
        &self,
        key: &str,
        metric: &str,
        lo: f64,
        hi: f64,
        per_decade: u32,
    ) -> Vec<Group<'s, QuantileSketch>> {
        self.group_fold(
            key,
            metric,
            || QuantileSketch::log_spaced(lo, hi, per_decade),
            |acc, v| acc.observe(v),
        )
    }

    /// Group matching rows by a key column and count rows per group.
    #[must_use]
    pub fn group_count(&self, key: &str) -> Vec<Group<'s, u64>> {
        let key_col = self.col(key);
        let mut acc: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        self.scan_keys(key_col, |code, _chunk, _row| {
            *acc.entry(code).or_insert(0) += 1;
        });
        self.order_groups(key_col, acc)
    }

    fn group_fold<A>(
        &self,
        key: &str,
        metric: &str,
        init: impl Fn() -> A,
        fold: impl Fn(&mut A, f64),
    ) -> Vec<Group<'s, A>> {
        let key_col = self.col(key);
        let metric_col = self.col(metric);
        let mut acc: std::collections::BTreeMap<u32, A> = std::collections::BTreeMap::new();
        let mut cur = usize::MAX;
        let mut page = None;
        self.scan_keys(key_col, |code, chunk, row| {
            if chunk != cur {
                cur = chunk;
                page = Some(self.src.page(chunk, metric_col));
            }
            if let Some(v) = page.as_ref().expect("bound page").f64_at(row) {
                fold(acc.entry(code).or_insert_with(&init), v);
            }
        });
        self.order_groups(key_col, acc)
    }

    /// Scan matching rows that carry a non-null key, yielding the key
    /// code (enum code, dict id, or raw u32).
    fn scan_keys(&self, key_col: usize, mut f: impl FnMut(u32, usize, usize)) {
        let coded = matches!(self.src.schema().fields()[key_col].kind, ColKind::Enum(_));
        let mut cur = usize::MAX;
        let mut page = None;
        self.scan(|chunk, row| {
            if chunk != cur {
                cur = chunk;
                page = Some(self.src.page(chunk, key_col));
            }
            let page = page.as_ref().expect("bound page");
            let code = if coded {
                Some(u32::from(page.code_at(row)))
            } else {
                page.u32_at(row)
            };
            if let Some(code) = code {
                f(code, chunk, row);
            }
        });
    }

    /// Order grouped accumulators into the stable output order.
    fn order_groups<A>(
        &self,
        key_col: usize,
        acc: std::collections::BTreeMap<u32, A>,
    ) -> Vec<Group<'s, A>> {
        let kind = &self.src.schema().fields()[key_col].kind;
        let mut out: Vec<Group<'s, A>> = acc
            .into_iter()
            .map(|(code, value)| {
                let key = match kind {
                    ColKind::U32 | ColKind::Ipv4 => GroupKey::U32(code),
                    _ => GroupKey::Label(code, self.src.label_of(key_col, code)),
                };
                Group { key, value }
            })
            .collect();
        if matches!(kind, ColKind::Dict) {
            out.sort_by(|a, b| a.key.label().cmp(b.key.label()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{field, CellValue, Schema, Table, TableBuilder, TableView};

    fn sessions() -> Table {
        let mut b = TableBuilder::new(Schema::new(vec![
            field("country", ColKind::Dict),
            field("code", ColKind::U32),
            field("ms", ColKind::F64 { prec: 3 }),
            field(
                "status",
                ColKind::enumeration(&["ok", "failover", "timeout"]),
            ),
        ]));
        let rows = [
            (Some("PAK"), Some(5u32), Some(10.0), 0u8),
            (Some("ARE"), Some(1), Some(20.0), 0),
            (Some("PAK"), Some(5), None, 2),
            (Some("ARE"), Some(1), Some(40.0), 1),
            (None, None, Some(99.0), 0),
            (Some("DEU"), Some(3), Some(30.0), 0),
        ];
        for (c, code, ms, st) in rows {
            b.push_row(&[
                CellValue::Str(c),
                CellValue::U32(code),
                CellValue::F64(ms),
                CellValue::Code(st),
            ]);
        }
        b.finish()
    }

    #[test]
    fn filters_compose_and_nulls_never_match() {
        let t = sessions();
        assert_eq!(Query::new(&t).count(), 6);
        assert_eq!(Query::new(&t).eq("country", "PAK").count(), 2);
        assert_eq!(Query::new(&t).eq("country", "XXX").count(), 0);
        assert_eq!(
            Query::new(&t).any_of("status", &["ok", "failover"]).count(),
            5
        );
        assert_eq!(Query::new(&t).none_of("country", &["PAK"]).count(), 3);
        assert_eq!(Query::new(&t).u32_ge("code", 3).count(), 3);
        assert_eq!(
            Query::new(&t)
                .eq("country", "ARE")
                .any_of("status", &["ok"])
                .count(),
            1
        );
    }

    #[test]
    fn values_keep_storage_order_and_skip_nulls() {
        let t = sessions();
        assert_eq!(Query::new(&t).eq("country", "PAK").values("ms"), vec![10.0]);
        assert_eq!(
            Query::new(&t).values("ms"),
            vec![10.0, 20.0, 40.0, 99.0, 30.0]
        );
        assert_eq!(
            Query::new(&t).eq("status", "ok").labels("country"),
            vec![Some("PAK"), Some("ARE"), None, Some("DEU")]
        );
    }

    #[test]
    fn groups_come_out_in_stable_order() {
        let t = sessions();
        // Dict key: ascending label, not insertion (PAK was first).
        let by_country = Query::new(&t).group_values("country", "ms");
        let keys: Vec<&str> = by_country.iter().map(|g| g.key.label()).collect();
        assert_eq!(keys, ["ARE", "DEU", "PAK"]);
        assert_eq!(by_country[0].value, vec![20.0, 40.0]);
        assert_eq!(by_country[2].value, vec![10.0], "null metric skipped");
        // U32 key: ascending code; null-key row dropped.
        let by_code = Query::new(&t).group_count("code");
        let codes: Vec<u32> = by_code.iter().map(|g| g.key.code()).collect();
        assert_eq!(codes, [1, 3, 5]);
        assert_eq!(by_code.iter().map(|g| g.value).sum::<u64>(), 5);
        // Enum key: ascending code with labels.
        let by_status = Query::new(&t).group_count("status");
        let labels: Vec<&str> = by_status.iter().map(|g| g.key.label()).collect();
        assert_eq!(labels, ["ok", "failover", "timeout"]);
    }

    #[test]
    fn sketch_aggregation_matches_direct_observation() {
        let t = sessions();
        let sk = Query::new(&t)
            .eq("status", "ok")
            .sketch("ms", 1.0, 1000.0, 10);
        let mut direct = QuantileSketch::log_spaced(1.0, 1000.0, 10);
        for v in Query::new(&t).eq("status", "ok").values("ms") {
            direct.observe(v);
        }
        assert_eq!(sk.count(), direct.count());
        assert_eq!(sk.quantile(0.5), direct.quantile(0.5));
        let groups = Query::new(&t).group_sketch("country", "ms", 1.0, 1000.0, 10);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].key.label(), "ARE");
        assert_eq!(groups[0].value.count(), 2);
    }

    #[test]
    fn queries_run_identically_on_views() {
        let t = sessions();
        let bytes = t.to_frame();
        let v = TableView::parse_frame(&bytes).expect("parse");
        assert_eq!(
            Query::new(&t).eq("country", "ARE").values("ms"),
            Query::new(&v).eq("country", "ARE").values("ms")
        );
        assert_eq!(
            Query::new(&t).group_count("status").len(),
            Query::new(&v).group_count("status").len()
        );
    }
}
