//! Zero-copy table views over sealed frame bytes.
//!
//! [`TableView::parse_frame`] verifies the frame (magic, wire version,
//! integrity hash) and then binds column pages as slices **into the
//! frame payload** — the only allocations are the parsed schema and
//! the per-column dictionary index, both tiny next to the pages.

use std::collections::HashMap;

use roam_codec::{CodecError, Decoder, Frame};

use crate::{bitmap_len, ColKind, ColumnarSource, Field, PageRef, Schema};

/// Borrowed chunk: one page slice pair per column, schema order.
#[derive(Debug)]
struct ChunkView<'a> {
    rows: usize,
    data: Vec<&'a [u8]>,
    nulls: Vec<&'a [u8]>,
}

/// A parsed, read-only columnar table borrowing its pages from the
/// underlying frame bytes. Implements [`ColumnarSource`], so every
/// query that runs on an owned [`Table`](crate::Table) runs here too.
#[derive(Debug)]
pub struct TableView<'a> {
    schema: Schema,
    dicts: Vec<Vec<&'a str>>,
    dict_index: Vec<HashMap<&'a str, u32>>,
    chunks: Vec<ChunkView<'a>>,
    rows: u64,
}

impl<'a> TableView<'a> {
    /// Parse a sealed frame produced by
    /// [`Table::to_frame`](crate::Table::to_frame), verifying kind,
    /// version and integrity before touching the payload.
    pub fn parse_frame(bytes: &'a [u8]) -> Result<Self, CodecError> {
        let (frame, _) = Frame::parse(bytes)?;
        if frame.kind != crate::FRAME_KIND_TABLE {
            return Err(CodecError::BadValue("frame kind"));
        }
        if frame.version != crate::TABLE_VERSION {
            return Err(CodecError::UnsupportedVersion {
                found: frame.version,
                supported: crate::TABLE_VERSION,
            });
        }
        Self::parse(frame.payload)
    }

    /// Parse a bare table payload (already unframed).
    pub fn parse(payload: &'a [u8]) -> Result<Self, CodecError> {
        let mut fields: Vec<Field> = Vec::new();
        let mut dict_sections: Vec<(usize, Vec<&'a str>)> = Vec::new();
        let mut chunks: Vec<ChunkView<'a>> = Vec::new();
        let mut rows: u64 = 0;
        let mut dec = Decoder::new(payload);
        while let Some((tag, value)) = dec.next_field()? {
            match tag {
                1 => rows = value.as_u64(1)?,
                2 => fields.push(parse_field(value.as_section(2)?)?),
                3 => {
                    let mut s = value.as_section(3)?;
                    let mut col: Option<usize> = None;
                    let mut labels: Vec<&'a str> = Vec::new();
                    while let Some((t, v)) = s.next_field()? {
                        match t {
                            1 => {
                                col = Some(v.as_usize(1, "dict column")?);
                            }
                            2 => labels.push(v.as_str(2)?),
                            _ => {}
                        }
                    }
                    let col = col.ok_or(CodecError::MissingField("dict column"))?;
                    dict_sections.push((col, labels));
                }
                4 => chunks.push(parse_chunk(value.as_section(4)?)?),
                _ => {}
            }
        }
        let schema = Schema::new(fields);
        let cols = schema.len();
        // One section per Dict column, each label once: a repeated
        // label or section would leave rows stored under an id that
        // `dict_lookup` never returns, so queries would skip them.
        let mut dicts: Vec<Vec<&'a str>> = vec![Vec::new(); cols];
        let mut dict_index: Vec<HashMap<&'a str, u32>> = vec![HashMap::new(); cols];
        let mut seen = vec![false; cols];
        for (col, labels) in dict_sections {
            match schema.fields().get(col) {
                None => return Err(CodecError::BadValue("dict column")),
                Some(f) if f.kind != ColKind::Dict => {
                    return Err(CodecError::BadValue("dict section on a non-dict column"));
                }
                Some(_) => {}
            }
            if std::mem::replace(&mut seen[col], true) {
                return Err(CodecError::BadValue("repeated dict section"));
            }
            for (id, &label) in labels.iter().enumerate() {
                let id = u32::try_from(id).map_err(|_| CodecError::BadValue("dict size"))?;
                if dict_index[col].insert(label, id).is_some() {
                    return Err(CodecError::BadValue("repeated dict label"));
                }
            }
            dicts[col] = labels;
        }
        // Validate page shapes against the schema before handing out
        // unchecked offsets.
        let mut counted: u64 = 0;
        for chunk in &mut chunks {
            if chunk.data.len() != cols || chunk.nulls.len() != cols {
                return Err(CodecError::BadValue("chunk column count"));
            }
            counted += chunk.rows as u64;
            for (col, f) in schema.fields().iter().enumerate() {
                if chunk.data[col].len() != chunk.rows * f.kind.width() {
                    return Err(CodecError::BadValue("page length"));
                }
                let want = if f.kind.nullable() {
                    bitmap_len(chunk.rows)
                } else {
                    0
                };
                if chunk.nulls[col].len() != want {
                    return Err(CodecError::BadValue("null bitmap length"));
                }
            }
        }
        if counted != rows {
            return Err(CodecError::BadValue("row count"));
        }
        Ok(TableView {
            schema,
            dicts,
            dict_index,
            chunks,
            rows,
        })
    }
}

fn parse_field(mut s: Decoder<'_>) -> Result<Field, CodecError> {
    let mut name: Option<String> = None;
    let mut code: Option<u64> = None;
    let mut prec: u8 = 0;
    let mut labels: Vec<String> = Vec::new();
    while let Some((t, v)) = s.next_field()? {
        match t {
            1 => name = Some(v.as_str(1)?.to_string()),
            2 => code = Some(v.as_u64(2)?),
            3 => {
                prec = u8::try_from(v.as_u64(3)?)
                    .map_err(|_| CodecError::BadValue("f64 precision"))?;
            }
            4 => labels.push(v.as_str(4)?.to_string()),
            _ => {}
        }
    }
    let name = name.ok_or(CodecError::MissingField("field name"))?;
    let kind = match code.ok_or(CodecError::MissingField("field kind"))? {
        0 => ColKind::U32,
        1 => ColKind::Ipv4,
        2 => ColKind::F64 { prec },
        3 => ColKind::Dict,
        4 => ColKind::Enum(labels),
        _ => return Err(CodecError::BadValue("field kind")),
    };
    Ok(Field { name, kind })
}

fn parse_chunk(mut s: Decoder<'_>) -> Result<ChunkView<'_>, CodecError> {
    let mut rows: usize = 0;
    let mut data: Vec<&[u8]> = Vec::new();
    let mut nulls: Vec<&[u8]> = Vec::new();
    while let Some((t, v)) = s.next_field()? {
        match t {
            1 => {
                rows = v.as_usize(1, "chunk rows")?;
            }
            2 => data.push(v.as_bytes(2)?),
            3 => nulls.push(v.as_bytes(3)?),
            _ => {}
        }
    }
    Ok(ChunkView { rows, data, nulls })
}

impl ColumnarSource for TableView<'_> {
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
            data: c.data[col],
            nulls: c.nulls[col],
        }
    }

    fn dict_label(&self, col: usize, id: u32) -> &str {
        self.dicts[col][id as usize]
    }

    fn dict_lookup(&self, col: usize, label: &str) -> Option<u32> {
        self.dict_index[col].get(label).copied()
    }

    fn dict_len(&self, col: usize) -> usize {
        self.dicts[col].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{field, CellValue, TableBuilder};

    fn build_demo() -> crate::Table {
        let mut b = TableBuilder::new(Schema::new(vec![
            field("city", ColKind::Dict),
            field("ms", ColKind::F64 { prec: 3 }),
            field("n", ColKind::U32),
            field("status", ColKind::enumeration(&["ok", "timeout"])),
        ]));
        b.push_row(&[
            CellValue::Str(Some("Malé")),
            CellValue::F64(Some(1.25)),
            CellValue::U32(Some(2)),
            CellValue::Code(0),
        ]);
        b.push_row(&[
            CellValue::Str(None),
            CellValue::F64(Some(f64::INFINITY)),
            CellValue::U32(None),
            CellValue::Code(1),
        ]);
        b.finish()
    }

    #[test]
    fn frame_round_trip_preserves_schema_dicts_and_pages() {
        let t = build_demo();
        let bytes = t.to_frame();
        let v = TableView::parse_frame(&bytes).expect("parse");
        assert_eq!(v.schema(), t.schema());
        assert_eq!(v.rows(), 2);
        assert_eq!(v.dict_len(0), 1);
        assert_eq!(v.dict_lookup(0, "Malé"), Some(0));
        assert_eq!(v.label_of(3, 1), "timeout");
        let ms = v.page(0, 1);
        assert_eq!(ms.f64_at(0), Some(1.25));
        assert_eq!(ms.f64_at(1), None, "infinity nulled on insert");
        assert!(v.page(0, 0).is_null(1));
        assert_eq!(v.page(0, 2).u32_at(0), Some(2));
    }

    #[test]
    fn pages_borrow_from_the_frame_bytes() {
        let t = build_demo();
        let bytes = t.to_frame();
        let v = TableView::parse_frame(&bytes).expect("parse");
        let page = v.page(0, 1);
        let base = bytes.as_ptr() as usize;
        let page_ptr = page.data.as_ptr() as usize;
        assert!(
            page_ptr >= base && page_ptr < base + bytes.len(),
            "page data must point into the frame buffer"
        );
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let t = build_demo();
        let mut bytes = t.to_frame();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert!(matches!(
            TableView::parse_frame(&bytes),
            Err(CodecError::BadHash { .. })
        ));
    }

    /// A sealed table frame with a Dict column 0 and an Enum column 1,
    /// no rows, and the given dict sections as (column, labels).
    fn crafted(sections: &[(u64, &[&str])]) -> Vec<u8> {
        let mut enc = roam_codec::Encoder::new();
        enc.u64(1, 0);
        enc.section(2, |s| {
            s.str(1, "country");
            s.u64(2, 3);
        });
        enc.section(2, |s| {
            s.str(1, "status");
            s.u64(2, 4);
            s.str(4, "ok");
        });
        for (col, labels) in sections {
            enc.section(3, |s| {
                s.u64(1, *col);
                for label in *labels {
                    s.str(2, label);
                }
            });
        }
        enc.into_frame(crate::FRAME_KIND_TABLE, crate::TABLE_VERSION)
    }

    #[test]
    fn crafted_frame_with_one_dict_section_parses() {
        let bytes = crafted(&[(0, &["PAK", "ARE"])]);
        let v = TableView::parse_frame(&bytes).expect("parse");
        assert_eq!(v.code_of(0, "ARE"), Some(1));
        assert_eq!(v.dict_len(0), 2);
    }

    #[test]
    fn repeated_dict_label_is_rejected() {
        let bytes = crafted(&[(0, &["PAK", "ARE", "PAK"])]);
        assert!(matches!(
            TableView::parse_frame(&bytes),
            Err(CodecError::BadValue("repeated dict label"))
        ));
    }

    #[test]
    fn second_dict_section_for_a_column_is_rejected() {
        let bytes = crafted(&[(0, &["PAK"]), (0, &["ARE"])]);
        assert!(matches!(
            TableView::parse_frame(&bytes),
            Err(CodecError::BadValue("repeated dict section"))
        ));
        let empty_first = crafted(&[(0, &[]), (0, &["ARE"])]);
        assert!(matches!(
            TableView::parse_frame(&empty_first),
            Err(CodecError::BadValue("repeated dict section"))
        ));
    }

    #[test]
    fn dict_section_on_a_non_dict_column_is_rejected() {
        let bytes = crafted(&[(1, &["ok"])]);
        assert!(matches!(
            TableView::parse_frame(&bytes),
            Err(CodecError::BadValue("dict section on a non-dict column"))
        ));
        let out_of_range = crafted(&[(2, &["ok"])]);
        assert!(matches!(
            TableView::parse_frame(&out_of_range),
            Err(CodecError::BadValue("dict column"))
        ));
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let bytes = roam_codec::Frame::seal(0x0001, crate::TABLE_VERSION, &[]);
        assert!(matches!(
            TableView::parse_frame(&bytes),
            Err(CodecError::BadValue("frame kind"))
        ));
    }
}
