//! Owned tables: row-at-a-time building, chunk sealing, frame encoding.

use std::collections::HashMap;

use roam_codec::Encoder;

use crate::{bitmap_len, CellValue, ColKind, ColumnarSource, PageRef, Schema, CHUNK_ROWS};

/// One sealed chunk: every column's page over the same row range.
#[derive(Clone, Debug)]
pub(crate) struct Chunk {
    pub(crate) rows: usize,
    pub(crate) data: Vec<Vec<u8>>,
    pub(crate) nulls: Vec<Vec<u8>>,
}

/// Per-column string dictionary: insertion-ordered labels plus a
/// reverse index. Ids are assigned in first-appearance order, so a
/// deterministic row stream yields deterministic pages.
#[derive(Clone, Debug, Default)]
struct DictTable {
    labels: Vec<String>,
    index: HashMap<String, u32>,
    /// Id of the label interned last: runs of one label (a user's
    /// sessions share a country) skip the hash lookup.
    last: u32,
}

impl DictTable {
    fn intern(&mut self, label: &str) -> u32 {
        if self
            .labels
            .get(self.last as usize)
            .is_some_and(|l| l == label)
        {
            return self.last;
        }
        let id = match self.index.get(label) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(self.labels.len()).expect("dict fits u32");
                self.labels.push(label.to_string());
                self.index.insert(label.to_string(), id);
                id
            }
        };
        self.last = id;
        id
    }
}

/// Accumulates rows into column pages; [`TableBuilder::finish`] seals
/// the tail chunk and yields an immutable, queryable [`Table`].
#[derive(Clone, Debug)]
pub struct TableBuilder {
    schema: Schema,
    dicts: Vec<DictTable>,
    chunks: Vec<Chunk>,
    cur_data: Vec<Vec<u8>>,
    cur_nulls: Vec<Vec<u8>>,
    cur_rows: usize,
    rows: u64,
}

impl TableBuilder {
    #[must_use]
    pub fn new(schema: Schema) -> Self {
        let cols = schema.len();
        let dicts = vec![DictTable::default(); cols];
        TableBuilder {
            schema,
            dicts,
            chunks: Vec::new(),
            cur_data: vec![Vec::new(); cols],
            cur_nulls: vec![Vec::new(); cols],
            cur_rows: 0,
            rows: 0,
        }
    }

    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    #[must_use]
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Append one row. `cells` must match the schema in arity and
    /// shape; non-finite floats and `None`s land as null bits.
    ///
    /// Each column's kind is borrowed from the schema, and a chunk's
    /// first row sizes its pages for a full chunk, so the rest of the
    /// chunk allocates nothing per cell: only a label new to its
    /// dictionary and the row that seals a chunk touch the heap.
    ///
    /// # Panics
    /// On arity or cell/kind mismatch — schemas are static per
    /// dataset, so a mismatch is a programming error, not data.
    pub fn push_row(&mut self, cells: &[CellValue<'_>]) {
        assert_eq!(
            cells.len(),
            self.schema.len(),
            "row arity does not match schema"
        );
        let row = self.cur_rows;
        if row == 0 {
            self.reserve_pages();
        }
        for (col, (cell, f)) in cells.iter().zip(self.schema.fields()).enumerate() {
            let kind = &f.kind;
            let (word, null): (u64, bool) = match (kind, cell) {
                (ColKind::U32 | ColKind::Ipv4, CellValue::U32(v)) => {
                    (u64::from(v.unwrap_or(0)), v.is_none())
                }
                (ColKind::F64 { .. }, CellValue::F64(v)) => {
                    let fin = v.filter(|x| x.is_finite());
                    (fin.unwrap_or(0.0).to_bits(), fin.is_none())
                }
                (ColKind::Dict, CellValue::Str(v)) => match v {
                    Some(s) => (u64::from(self.dicts[col].intern(s)), false),
                    None => (0, true),
                },
                (ColKind::Enum(labels), CellValue::Code(c)) => {
                    assert!(
                        (*c as usize) < labels.len(),
                        "enum code {c} out of range for column {col}"
                    );
                    (u64::from(*c), false)
                }
                (kind, cell) => panic!("cell {cell:?} does not fit column {col} kind {kind:?}"),
            };
            let data = &mut self.cur_data[col];
            match kind.width() {
                1 => data.push(word as u8),
                4 => data.extend_from_slice(&(word as u32).to_le_bytes()),
                _ => data.extend_from_slice(&word.to_le_bytes()),
            }
            if kind.nullable() {
                let nulls = &mut self.cur_nulls[col];
                if nulls.len() < bitmap_len(row + 1) {
                    nulls.push(0);
                }
                if null {
                    nulls[row / 8] |= 1 << (row % 8);
                }
            }
        }
        self.cur_rows += 1;
        self.rows += 1;
        if self.cur_rows == CHUNK_ROWS {
            self.seal_chunk();
        }
    }

    /// Size the open chunk's pages and null bitmaps for a full chunk.
    fn reserve_pages(&mut self) {
        let pages = self.cur_data.iter_mut().zip(&mut self.cur_nulls);
        for (f, (data, nulls)) in self.schema.fields().iter().zip(pages) {
            data.reserve_exact(CHUNK_ROWS * f.kind.width());
            if f.kind.nullable() {
                nulls.reserve_exact(bitmap_len(CHUNK_ROWS));
            }
        }
    }

    fn seal_chunk(&mut self) {
        if self.cur_rows == 0 {
            return;
        }
        let cols = self.schema.len();
        let data = std::mem::replace(&mut self.cur_data, vec![Vec::new(); cols]);
        let nulls = std::mem::replace(&mut self.cur_nulls, vec![Vec::new(); cols]);
        self.chunks.push(Chunk {
            rows: self.cur_rows,
            data,
            nulls,
        });
        self.cur_rows = 0;
    }

    /// Seal the tail chunk and freeze into a queryable [`Table`].
    #[must_use]
    pub fn finish(mut self) -> Table {
        self.seal_chunk();
        Table {
            schema: self.schema,
            dicts: self.dicts,
            chunks: self.chunks,
            rows: self.rows,
        }
    }
}

/// An immutable columnar dataset: schema, dictionaries, chunked pages.
#[derive(Clone, Debug)]
pub struct Table {
    schema: Schema,
    dicts: Vec<DictTable>,
    chunks: Vec<Chunk>,
    rows: u64,
}

impl Table {
    /// Encode into one sealed, integrity-hashed frame
    /// (kind `FRAME_KIND_TABLE`, version `TABLE_VERSION`).
    ///
    /// Payload fields: tag 1 row count; tag 2 one section per schema
    /// field (1 name, 2 kind code, 3 f64 precision, 4 repeated enum
    /// label); tag 3 one section per dict column (1 column index,
    /// 2 repeated label); tag 4 one section per chunk (1 row count,
    /// then per column in schema order: 2 page bytes, 3 null bitmap).
    #[must_use]
    pub fn to_frame(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.u64(1, self.rows);
        for f in self.schema.fields() {
            enc.section(2, |s| {
                s.str(1, &f.name);
                let code = match &f.kind {
                    ColKind::U32 => 0,
                    ColKind::Ipv4 => 1,
                    ColKind::F64 { .. } => 2,
                    ColKind::Dict => 3,
                    ColKind::Enum(_) => 4,
                };
                s.u64(2, code);
                if let ColKind::F64 { prec } = f.kind {
                    s.u64(3, u64::from(prec));
                }
                if let ColKind::Enum(labels) = &f.kind {
                    for label in labels {
                        s.str(4, label);
                    }
                }
            });
        }
        for (col, dict) in self.dicts.iter().enumerate() {
            if !matches!(self.schema.fields()[col].kind, ColKind::Dict) {
                continue;
            }
            enc.section(3, |s| {
                s.u64(1, col as u64);
                for label in &dict.labels {
                    s.str(2, label);
                }
            });
        }
        for chunk in &self.chunks {
            enc.section(4, |s| {
                s.u64(1, chunk.rows as u64);
                for col in 0..self.schema.len() {
                    s.bytes(2, &chunk.data[col]);
                    s.bytes(3, &chunk.nulls[col]);
                }
            });
        }
        enc.into_frame(crate::FRAME_KIND_TABLE, crate::TABLE_VERSION)
    }
}

impl ColumnarSource for Table {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn rows(&self) -> u64 {
        self.rows
    }

    fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    fn chunk_rows(&self, chunk: usize) -> usize {
        self.chunks[chunk].rows
    }

    fn page(&self, chunk: usize, col: usize) -> PageRef<'_> {
        let c = &self.chunks[chunk];
        PageRef {
            rows: c.rows,
            width: self.schema.fields()[col].kind.width(),
            data: &c.data[col],
            nulls: &c.nulls[col],
        }
    }

    fn dict_label(&self, col: usize, id: u32) -> &str {
        &self.dicts[col].labels[id as usize]
    }

    fn dict_lookup(&self, col: usize, label: &str) -> Option<u32> {
        self.dicts[col].index.get(label).copied()
    }

    fn dict_len(&self, col: usize) -> usize {
        self.dicts[col].labels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field;

    fn demo_schema() -> Schema {
        Schema::new(vec![
            field("country", ColKind::Dict),
            field("rtt_ms", ColKind::F64 { prec: 3 }),
            field("attempts", ColKind::U32),
            field("status", ColKind::enumeration(&["ok", "timeout"])),
        ])
    }

    #[test]
    fn rows_round_trip_through_pages() {
        let mut b = TableBuilder::new(demo_schema());
        b.push_row(&[
            CellValue::Str(Some("PAK")),
            CellValue::F64(Some(12.5)),
            CellValue::U32(Some(1)),
            CellValue::Code(0),
        ]);
        b.push_row(&[
            CellValue::Str(Some("ARE")),
            CellValue::F64(Some(f64::NAN)),
            CellValue::U32(None),
            CellValue::Code(1),
        ]);
        b.push_row(&[
            CellValue::Str(Some("PAK")),
            CellValue::F64(None),
            CellValue::U32(Some(3)),
            CellValue::Code(0),
        ]);
        let t = b.finish();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.chunk_count(), 1);
        assert_eq!(t.dict_len(0), 2);
        assert_eq!(t.dict_lookup(0, "PAK"), Some(0));
        assert_eq!(t.label_of(0, 1), "ARE");
        let country = t.page(0, 0);
        assert_eq!(country.u32_at(2), Some(0));
        let rtt = t.page(0, 1);
        assert_eq!(rtt.f64_at(0), Some(12.5));
        assert_eq!(rtt.f64_at(1), None, "NaN lands as null");
        assert_eq!(rtt.f64_at(2), None);
        let attempts = t.page(0, 2);
        assert_eq!(attempts.u32_at(1), None);
        assert_eq!(attempts.u32_at(2), Some(3));
        let status = t.page(0, 3);
        assert_eq!(status.code_at(1), 1);
        assert!(!status.is_null(1));
    }

    #[test]
    fn chunks_seal_at_the_row_cap() {
        let mut b = TableBuilder::new(Schema::new(vec![field("v", ColKind::U32)]));
        for i in 0..(CHUNK_ROWS as u32 + 10) {
            b.push_row(&[CellValue::U32(Some(i))]);
        }
        let t = b.finish();
        assert_eq!(t.chunk_count(), 2);
        assert_eq!(t.chunk_rows(0), CHUNK_ROWS);
        assert_eq!(t.chunk_rows(1), 10);
        assert_eq!(t.page(1, 0).u32_at(9), Some(CHUNK_ROWS as u32 + 9));
    }

    #[test]
    fn dict_ids_follow_first_appearance_across_runs_of_one_label() {
        let mut d = DictTable::default();
        let ids: Vec<u32> = ["a", "a", "b", "a", "c", "c", "b", "a"]
            .iter()
            .map(|l| d.intern(l))
            .collect();
        assert_eq!(ids, [0, 0, 1, 0, 2, 2, 1, 0]);
        assert_eq!(d.labels, ["a", "b", "c"]);
        assert_eq!(d.index.len(), 3);
    }

    #[test]
    #[should_panic(expected = "does not fit column")]
    fn kind_mismatch_panics() {
        let mut b = TableBuilder::new(Schema::new(vec![field("v", ColKind::U32)]));
        b.push_row(&[CellValue::F64(Some(1.0))]);
    }
}
