//! Zero-copy columnar dataset format and streaming query engine.
//!
//! This crate is the storage half of the export redesign: instead of
//! rendering every measurement record into a per-row CSV `String` and
//! re-walking typed record vectors in every analysis bin, datasets are
//! stored as **typed column pages** — u32s, raw f64 bits, dictionary
//! codes — with one null bit per row for failed or non-finite fields.
//! Pages are fixed-width little-endian byte buffers, so the owned
//! [`Table`] built row-by-row and the borrowed [`TableView`] parsed out
//! of a `roam-codec` sealed frame share the same representation and the
//! same query engine ([`Query`]); parsing a frame copies nothing but
//! the schema.
//!
//! Layout, bottom-up:
//!
//! * a **page** is one column's slice of one chunk: `rows × width`
//!   bytes of little-endian values plus a packed null bitmap (bit set =
//!   null; enum columns are never null and carry an empty bitmap);
//! * a **chunk** holds up to [`CHUNK_ROWS`] rows of every column, so
//!   scans touch one column's bytes and skip the rest;
//! * a **table** is a schema, per-column string dictionaries, and a
//!   chunk list; [`Table::to_frame`] seals it into one integrity-hashed
//!   frame (kind `FRAME_KIND_TABLE`) that [`TableView::parse_frame`]
//!   reopens without copying page bytes.
//!
//! The query engine streams chunk-by-chunk: filters bind column
//! indices once, rows are tested against the bound pages, and
//! terminals either collect exact values (for byte-identical CSV
//! parity) or fold groups into `roam-stats` [`QuantileSketch`]es.
//! Group output ordering is stable by construction: ascending numeric
//! key for u32 and enum columns, ascending label for dictionary
//! columns — never insertion order.
//!
//! [`QuantileSketch`]: roam_stats::QuantileSketch

pub mod csv;
pub mod query;
pub mod table;
pub mod view;

pub use csv::{csv_header, push_csv_field, push_value, render_csv};
pub use query::{Group, GroupKey, Query};
pub use table::{Table, TableBuilder};
pub use view::TableView;

/// Frame kind claimed by sealed columnar tables (campaign/fleet frames
/// from `roam-fleet` use kinds below 0x10).
pub(crate) const FRAME_KIND_TABLE: u16 = 0x0010;

/// Wire version of the table payload layout.
pub(crate) const TABLE_VERSION: u16 = 1;

/// Rows per chunk: large enough that per-chunk bookkeeping vanishes,
/// small enough that a chunk's working set stays cache-resident.
pub const CHUNK_ROWS: usize = 4096;

/// Typed storage class of one column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ColKind {
    /// Nullable unsigned 32-bit integer, 4 bytes/row.
    U32,
    /// Nullable IPv4 address stored as a big-endian-ordered u32 in
    /// 4 bytes/row, rendered dotted-quad.
    Ipv4,
    /// Nullable f64 stored as raw bits, 8 bytes/row; non-finite values
    /// are normalized to null on insert. `prec` is the CSV rendering
    /// precision (`{:.prec$}`).
    F64 { prec: u8 },
    /// Nullable interned string: 4-byte dictionary id per row, labels
    /// stored once per column.
    Dict,
    /// Closed label set known at schema time: 1-byte code per row,
    /// never null. Used for status, booleans, and config enums.
    Enum(Vec<String>),
}

impl ColKind {
    /// An `Enum` kind from static labels.
    #[must_use]
    pub fn enumeration(labels: &[&str]) -> Self {
        ColKind::Enum(labels.iter().map(|s| (*s).to_string()).collect())
    }

    /// Bytes per row in a data page.
    #[must_use]
    pub fn width(&self) -> usize {
        match self {
            ColKind::U32 | ColKind::Ipv4 | ColKind::Dict => 4,
            ColKind::F64 { .. } => 8,
            ColKind::Enum(_) => 1,
        }
    }

    /// Whether rows of this column may be null (carry a bitmap).
    #[must_use]
    pub(crate) fn nullable(&self) -> bool {
        !matches!(self, ColKind::Enum(_))
    }
}

/// One named, typed column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Field {
    pub name: String,
    pub kind: ColKind,
}

/// A column spec, for building [`Schema`]s tersely.
#[must_use]
pub fn field(name: &str, kind: ColKind) -> Field {
    Field {
        name: name.to_string(),
        kind,
    }
}

/// Ordered column layout of one table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    #[must_use]
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    #[must_use]
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Column index by name.
    #[must_use]
    pub fn col(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }
}

/// One cell on its way into a sink or table: the untyped bridge
/// between record walks and column pages. The paired [`ColKind`] in
/// the schema decides interpretation (`U32` vs `Ipv4`, float
/// precision, dict vs enum labels).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CellValue<'a> {
    /// Integer-shaped cell (`ColKind::U32` / `ColKind::Ipv4`).
    U32(Option<u32>),
    /// Float cell; `None` and non-finite both land as null.
    F64(Option<f64>),
    /// Free-text cell, interned per column (`ColKind::Dict`).
    Str(Option<&'a str>),
    /// Enum code (`ColKind::Enum`), index into the label set.
    Code(u8),
}

/// Borrowed view of one column's slice of one chunk.
#[derive(Clone, Copy, Debug)]
pub struct PageRef<'a> {
    pub rows: usize,
    pub width: usize,
    pub data: &'a [u8],
    /// Packed null bitmap, bit set = null; empty for non-null columns.
    pub nulls: &'a [u8],
}

impl<'a> PageRef<'a> {
    #[inline]
    #[must_use]
    pub(crate) fn is_null(&self, row: usize) -> bool {
        !self.nulls.is_empty() && self.nulls[row / 8] & (1 << (row % 8)) != 0
    }

    #[inline]
    #[must_use]
    pub(crate) fn u32_at(&self, row: usize) -> Option<u32> {
        if self.is_null(row) {
            return None;
        }
        let off = row * 4;
        Some(u32::from_le_bytes(
            self.data[off..off + 4].try_into().expect("page bounds"),
        ))
    }

    #[inline]
    #[must_use]
    pub fn f64_at(&self, row: usize) -> Option<f64> {
        if self.is_null(row) {
            return None;
        }
        let off = row * 8;
        Some(f64::from_le_bytes(
            self.data[off..off + 8].try_into().expect("page bounds"),
        ))
    }

    #[inline]
    #[must_use]
    pub(crate) fn code_at(&self, row: usize) -> u8 {
        self.data[row]
    }
}

/// Anything the query engine and CSV renderer can scan: the owned
/// [`Table`] and the zero-copy [`TableView`] both implement this, so
/// a query written against fresh in-memory data runs unchanged against
/// a parsed frame.
pub trait ColumnarSource {
    fn schema(&self) -> &Schema;
    fn rows(&self) -> u64;
    fn chunk_count(&self) -> usize;
    /// Row count of one chunk.
    fn chunk_rows(&self, chunk: usize) -> usize;
    /// Page of `col` within `chunk`.
    fn page(&self, chunk: usize, col: usize) -> PageRef<'_>;
    /// Dictionary label for a `Dict` column id.
    fn dict_label(&self, col: usize, id: u32) -> &str;
    /// Reverse dictionary lookup for a `Dict` column.
    fn dict_lookup(&self, col: usize, label: &str) -> Option<u32>;
    /// Number of interned labels in a `Dict` column.
    fn dict_len(&self, col: usize) -> usize;

    /// Label for any coded column: enum labels come from the schema,
    /// dict labels from the per-column dictionary.
    fn label_of(&self, col: usize, code: u32) -> &str {
        match &self.schema().fields()[col].kind {
            ColKind::Enum(labels) => &labels[code as usize],
            ColKind::Dict => self.dict_label(col, code),
            _ => panic!("column {col} has no labels"),
        }
    }

    /// Code for a label in any coded column.
    fn code_of(&self, col: usize, label: &str) -> Option<u32> {
        match &self.schema().fields()[col].kind {
            ColKind::Enum(labels) => labels
                .iter()
                .position(|l| l == label)
                .map(|i| u32::try_from(i).expect("enum labels fit u32")),
            ColKind::Dict => self.dict_lookup(col, label),
            _ => panic!("column {col} has no labels"),
        }
    }
}

/// Bytes needed for a null bitmap over `rows` rows.
#[must_use]
pub(crate) fn bitmap_len(rows: usize) -> usize {
    rows.div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_widths_and_nullability() {
        assert_eq!(ColKind::U32.width(), 4);
        assert_eq!(ColKind::Ipv4.width(), 4);
        assert_eq!(ColKind::F64 { prec: 3 }.width(), 8);
        assert_eq!(ColKind::Dict.width(), 4);
        assert_eq!(ColKind::enumeration(&["a", "b"]).width(), 1);
        assert!(ColKind::U32.nullable());
        assert!(!ColKind::enumeration(&["a"]).nullable());
    }

    #[test]
    fn schema_resolves_columns_by_name() {
        let s = Schema::new(vec![
            field("country", ColKind::Dict),
            field("down_mbps", ColKind::F64 { prec: 3 }),
        ]);
        assert_eq!(s.col("down_mbps"), Some(1));
        assert_eq!(s.col("nope"), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn null_bitmap_marks_rows() {
        let nulls = [0b0000_0101u8];
        let page = PageRef {
            rows: 3,
            width: 4,
            data: &[0; 12],
            nulls: &nulls,
        };
        assert!(page.is_null(0));
        assert!(!page.is_null(1));
        assert!(page.is_null(2));
        let empty = PageRef {
            rows: 3,
            width: 1,
            data: &[0; 3],
            nulls: &[],
        };
        assert!(!empty.is_null(2));
    }
}
