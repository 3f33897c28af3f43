//! CSV rendering: one shared cell renderer so the row-streaming CSV
//! sink and column-page rendering produce byte-identical output.
//!
//! The dialect matches the historical exporter exactly: fields are
//! quoted only when they contain a comma or a quote (quotes doubled),
//! null cells render as empty fields, floats render at the column's
//! declared precision, and rows end in `\n`.

use std::fmt::Write as _;
use std::net::Ipv4Addr;

use crate::{CellValue, ColKind, ColumnarSource};

/// Append one free-text CSV field, quoting only when needed.
pub fn push_csv_field(out: &mut String, s: &str) {
    if s.contains(',') || s.contains('"') {
        out.push('"');
        for ch in s.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
    } else {
        out.push_str(s);
    }
}

/// Append one cell rendered under its column kind. Null cells append
/// nothing (an empty CSV field).
///
/// # Panics
/// On a cell/kind mismatch; schemas are static per dataset.
pub fn push_value(out: &mut String, kind: &ColKind, cell: &CellValue<'_>) {
    match (kind, cell) {
        (ColKind::U32, CellValue::U32(Some(v))) => {
            let _ = write!(out, "{v}");
        }
        (ColKind::Ipv4, CellValue::U32(Some(v))) => {
            let _ = write!(out, "{}", Ipv4Addr::from(*v));
        }
        (ColKind::F64 { prec }, CellValue::F64(Some(v))) if v.is_finite() => {
            push_fixed(out, *v, usize::from(*prec));
        }
        (ColKind::Dict, CellValue::Str(Some(s))) => push_csv_field(out, s),
        (ColKind::Enum(labels), CellValue::Code(c)) => push_csv_field(out, &labels[*c as usize]),
        (ColKind::U32 | ColKind::Ipv4, CellValue::U32(None))
        | (ColKind::F64 { .. }, CellValue::F64(_))
        | (ColKind::Dict, CellValue::Str(None)) => {}
        (kind, cell) => panic!("cell {cell:?} does not render under kind {kind:?}"),
    }
}

/// Append `v` with `prec` fraction digits: the same bytes as
/// `write!(out, "{:.*}", prec, v)`, without std's exact formatter on
/// the common path.
///
/// A value in `[0, 1e12)` at precision ≤ 4 is scaled once by `10^prec`.
/// That product is off from the exact `v · 10^prec` by at most half an
/// ulp, so rounding it to the nearest integer agrees with rounding the
/// exact value unless its fraction lies within that distance of one
/// half. Those near ties (exact ties included, which std rounds to
/// even), negative values, `-0.0` and everything out of range take
/// std's exact path.
pub fn push_fixed(out: &mut String, v: f64, prec: usize) {
    const SCALE: [f64; 5] = [1.0, 10.0, 100.0, 1e3, 1e4];
    if prec < SCALE.len() && v.is_sign_positive() && v < 1e12 {
        let s = v * SCALE[prec];
        let t = s.trunc();
        let frac = s - t;
        // The gap to the next float up bounds the product's error from above.
        let ulp = f64::from_bits(s.to_bits() + 1) - s;
        if (frac - 0.5).abs() > 4.0 * ulp {
            // `0 <= t < 1e16`, so the cast is exact.
            push_scaled(out, t as u64 + u64::from(frac > 0.5), prec);
            return;
        }
    }
    let _ = write!(out, "{v:.prec$}");
}

/// Append `n / 10^prec` with exactly `prec` fraction digits.
fn push_scaled(out: &mut String, mut n: u64, prec: usize) {
    // The fast path's `n` is at most 1e16: 17 digits, plus the point.
    let mut buf = [0u8; 18];
    let mut i = buf.len();
    for _ in 0..prec {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
    }
    if prec > 0 {
        i -= 1;
        buf[i] = b'.';
    }
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

/// The header line for a schema: column names joined by commas, `\n`.
#[must_use]
pub fn csv_header(src: &impl ColumnarSource) -> String {
    let mut out = String::new();
    for (i, f) in src.schema().fields().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&f.name);
    }
    out.push('\n');
    out
}

/// Render every row (no header) by streaming column pages — the
/// columnar twin of the row-walk CSV sink, byte-identical to it.
pub fn render_csv(src: &impl ColumnarSource, out: &mut String) {
    let schema = src.schema().clone();
    let cols = schema.len();
    for chunk in 0..src.chunk_count() {
        let pages: Vec<_> = (0..cols).map(|c| src.page(chunk, c)).collect();
        for row in 0..src.chunk_rows(chunk) {
            for (col, f) in schema.fields().iter().enumerate() {
                if col > 0 {
                    out.push(',');
                }
                let page = &pages[col];
                match &f.kind {
                    ColKind::U32 => {
                        if let Some(v) = page.u32_at(row) {
                            let _ = write!(out, "{v}");
                        }
                    }
                    ColKind::Ipv4 => {
                        if let Some(v) = page.u32_at(row) {
                            let _ = write!(out, "{}", Ipv4Addr::from(v));
                        }
                    }
                    ColKind::F64 { prec } => {
                        if let Some(v) = page.f64_at(row) {
                            let _ = write!(out, "{:.*}", usize::from(*prec), v);
                        }
                    }
                    ColKind::Dict => {
                        if let Some(id) = page.u32_at(row) {
                            push_csv_field(out, src.dict_label(col, id));
                        }
                    }
                    ColKind::Enum(labels) => {
                        push_csv_field(out, &labels[page.code_at(row) as usize]);
                    }
                }
            }
            out.push('\n');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{field, Schema, TableBuilder};

    #[test]
    fn quoting_matches_the_csv_dialect() {
        let mut out = String::new();
        push_csv_field(&mut out, "plain");
        out.push('|');
        push_csv_field(&mut out, "a,b");
        out.push('|');
        push_csv_field(&mut out, "say \"hi\"");
        assert_eq!(out, "plain|\"a,b\"|\"say \"\"hi\"\"\"");
    }

    #[test]
    fn render_matches_streamed_cells() {
        let schema = Schema::new(vec![
            field("city", ColKind::Dict),
            field("ip", ColKind::Ipv4),
            field("ms", ColKind::F64 { prec: 3 }),
            field("n", ColKind::U32),
            field("ok", ColKind::enumeration(&["false", "true"])),
        ]);
        let rows: Vec<Vec<CellValue<'_>>> = vec![
            vec![
                CellValue::Str(Some("Washington, D.C.")),
                CellValue::U32(Some(u32::from(Ipv4Addr::new(10, 1, 2, 3)))),
                CellValue::F64(Some(12.345_67)),
                CellValue::U32(Some(7)),
                CellValue::Code(1),
            ],
            vec![
                CellValue::Str(None),
                CellValue::U32(None),
                CellValue::F64(Some(f64::NAN)),
                CellValue::U32(None),
                CellValue::Code(0),
            ],
        ];
        // Streamed: render cells directly.
        let mut streamed = String::new();
        for r in &rows {
            for (i, (f, c)) in schema.fields().iter().zip(r).enumerate() {
                if i > 0 {
                    streamed.push(',');
                }
                push_value(&mut streamed, &f.kind, c);
            }
            streamed.push('\n');
        }
        // Columnar: build a table, render pages.
        let mut b = TableBuilder::new(schema);
        for r in &rows {
            b.push_row(r);
        }
        let t = b.finish();
        let mut columnar = String::new();
        render_csv(&t, &mut columnar);
        assert_eq!(streamed, columnar);
        assert_eq!(
            streamed,
            "\"Washington, D.C.\",10.1.2.3,12.346,7,true\n,,,,false\n"
        );
    }
}
