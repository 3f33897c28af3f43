//! Every sink sees the same fields: hashing a [`FieldWriter`]'s output
//! through [`Fnv64`] gives `hash64` of the bytes [`Encoder`] writes, and
//! counting it through [`ByteCount`] gives their length, for every field
//! kind (formatted text streamed with [`FieldWriter::str_fmt`] among
//! them) and for sections written with [`FieldWriter::section_of`] or
//! built with [`FieldWriter::section`].

use proptest::prelude::*;
use roam_codec::{hash64, ByteCount, Encoder, FieldWriter, Fields, Fnv64, Sink};

/// One field of every kind the writer has.
#[derive(Debug, Clone)]
enum Field {
    U64(u64),
    I128(i128),
    F64(f64),
    Bytes(Vec<u8>),
    Str(String),
    /// A string's `Debug` text, streamed with `str_fmt`.
    Debug(String),
    /// A section streamed with `section_of`.
    Section(Run),
    /// A section built in a scratch encoder with `section`.
    Built(Run),
}

/// A run of fields, tagged 1, 2, … in order.
#[derive(Debug, Clone)]
struct Run(Vec<Field>);

impl Fields for Run {
    fn write_fields<S: Sink>(&self, w: &mut FieldWriter<S>) {
        for (tag, field) in (1..).zip(&self.0) {
            match field {
                Field::U64(v) => w.u64(tag, *v),
                Field::I128(v) => w.i128(tag, *v),
                Field::F64(v) => w.f64(tag, *v),
                Field::Bytes(b) => w.bytes(tag, b),
                Field::Str(s) => w.str(tag, s),
                Field::Debug(s) => w.str_fmt(tag, format_args!("{s:?}")),
                Field::Section(run) => w.section_of(tag, run),
                Field::Built(run) => w.section(tag, |se| run.write_fields(se)),
            }
        }
    }
}

/// The same run through the materialising path: each section built in
/// its own encoder and copied in.
fn materialise(run: &Run, e: &mut Encoder) {
    for (tag, field) in (1..).zip(&run.0) {
        match field {
            Field::Section(inner) | Field::Built(inner) => {
                e.section(tag, |se| materialise(inner, se));
            }
            Field::U64(v) => e.u64(tag, *v),
            Field::I128(v) => e.i128(tag, *v),
            Field::F64(v) => e.f64(tag, *v),
            Field::Bytes(b) => e.bytes(tag, b),
            Field::Str(s) => e.str(tag, s),
            Field::Debug(s) => e.str(tag, &format!("{s:?}")),
        }
    }
}

fn assert_sinks_agree(run: &Run) {
    let mut reference = Encoder::new();
    materialise(run, &mut reference);
    let bytes = reference.into_bytes();

    let mut streamed = Encoder::new();
    run.write_fields(&mut streamed);
    assert_eq!(streamed.into_bytes(), bytes, "{run:?}");

    let mut hashed = FieldWriter::with_sink(Fnv64::new());
    run.write_fields(&mut hashed);
    assert_eq!(hashed.into_sink().finish(), hash64(&bytes), "{run:?}");

    let mut counted = FieldWriter::with_sink(ByteCount::default());
    run.write_fields(&mut counted);
    assert_eq!(counted.into_sink().total(), bytes.len() as u64, "{run:?}");
}

#[test]
fn every_field_kind_agrees_at_its_edges() {
    let mut fields = Vec::new();
    for v in [
        0,
        1,
        127,
        128,
        16_383,
        16_384,
        u64::from(u32::MAX),
        u64::MAX,
    ] {
        fields.push(Field::U64(v));
    }
    for v in [
        0,
        -1,
        1,
        -64,
        64,
        i128::from(i64::MIN),
        i128::MIN,
        i128::MAX,
    ] {
        fields.push(Field::I128(v));
    }
    for v in [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::MIN_POSITIVE,
        -1e308,
    ] {
        fields.push(Field::F64(v));
    }
    for len in [0u8, 1, 127, 128, 255] {
        let b: Vec<u8> = (0..len).collect();
        fields.push(Field::Bytes(b));
    }
    for s in ["", "FRA", "say \"hi\"", "ümlaut"] {
        fields.push(Field::Str(s.to_string()));
        fields.push(Field::Debug(s.to_string()));
    }
    for field in &fields {
        assert_sinks_agree(&Run(vec![field.clone()]));
        assert_sinks_agree(&Run(vec![Field::Section(Run(vec![field.clone()]))]));
        assert_sinks_agree(&Run(vec![Field::Built(Run(vec![field.clone()]))]));
    }
    // Empty sections, a section long enough for a two-byte length, and
    // sections nested three deep.
    assert_sinks_agree(&Run(vec![Field::Section(Run(Vec::new()))]));
    assert_sinks_agree(&Run(vec![Field::Built(Run(Vec::new()))]));
    let inner = Run(fields.clone());
    let nested = Run(vec![
        Field::U64(7),
        Field::Section(Run(vec![Field::Built(inner.clone()), Field::U64(8)])),
        Field::Section(inner),
    ]);
    assert_sinks_agree(&nested);
}

#[test]
fn the_widest_tag_is_counted_and_hashed() {
    let tag = u32::MAX >> 3;
    let mut kept = Encoder::new();
    kept.u64(tag, 1);
    let mut counted = FieldWriter::with_sink(ByteCount::default());
    counted.u64(tag, 1);
    let mut hashed = FieldWriter::with_sink(Fnv64::new());
    hashed.u64(tag, 1);
    let kept = kept.into_bytes();
    assert_eq!(counted.into_sink().total(), kept.len() as u64);
    assert_eq!(hashed.into_sink().finish(), hash64(&kept));
}

#[test]
fn fnv64_is_hash64() {
    let bytes: Vec<u8> = (0..=255).collect();
    for cut in [0, 1, 8, 200, 256] {
        let mut h = Fnv64::new();
        h.put_slice(&bytes[..cut / 2]);
        for &b in &bytes[cut / 2..cut] {
            h.put(b);
        }
        assert_eq!(h.finish(), hash64(&bytes[..cut]));
    }
    assert_eq!(Fnv64::default(), Fnv64::new());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_runs_agree(
        (u, i, bits) in (any::<u64>(), any::<i128>(), any::<u64>()),
        b in proptest::collection::vec(any::<u8>(), 0..200),
        s in "[a-zA-Z0-9 ]{0,40}",
        depth in 0usize..4,
    ) {
        // Shift by a drawn amount so short and long varints both occur.
        let leaves = vec![
            Field::U64(u >> (u % 64)),
            Field::I128(i >> (u % 128)),
            Field::F64(f64::from_bits(bits)),
            Field::Bytes(b),
            Field::Str(s.clone()),
            Field::Debug(s),
        ];
        let mut run = Run(leaves.clone());
        for level in 0..depth {
            let mut next = leaves.clone();
            next.push(if level % 2 == 0 { Field::Section(run) } else { Field::Built(run) });
            run = Run(next);
        }
        assert_sinks_agree(&run);
    }
}
