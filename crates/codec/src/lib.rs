//! roam-codec: the wire layer for distributed fleet execution.
//!
//! A dependency-free, versioned, **self-describing** binary codec. Worker
//! processes stream partial fleet state back to the planner over pipes,
//! and shards checkpoint the same state to disk; both sides of both
//! channels speak this format. Three properties drive the design:
//!
//! * **Self-describing fields.** Every value carries a `(tag, wire type)`
//!   header, so a decoder can skip fields it does not know — new fields
//!   can be added without breaking old readers, and a reader always knows
//!   how many bytes to skip without understanding the payload.
//! * **Length-prefixed sections.** Aggregates nest as sections (a tagged,
//!   length-prefixed run of fields), so a whole sub-object can be skipped,
//!   sliced or handed to a sub-decoder without a schema.
//! * **Integrity-hashed frames.** Everything that crosses a process or
//!   filesystem boundary travels inside a [`Frame`]: magic, format
//!   version, a caller-chosen kind, the payload length and an FNV-1a
//!   integrity hash. A truncated pipe or a torn checkpoint file fails
//!   loudly as [`CodecError::BadHash`]/[`CodecError::Truncated`], never as
//!   silently-wrong state.
//!
//! Scalars are varints (LEB128), floats are IEEE-754 bit patterns (so
//! NaN payloads and signed zeros round-trip exactly — a hard requirement
//! for byte-identical resumed reports), and `i128` rides zigzag varints
//! (the fleet's exact fixed-point sums).
//!
//! The encoding intentionally has no reflection, no derive and no
//! external dependencies: every aggregate writes itself with
//! [`Encoder`] and reads itself with [`Decoder`], field by tagged field.
//! [`Encoder`] is the `Vec<u8>` flavour of [`FieldWriter`], which writes
//! the same fields into any [`Sink`]: [`Fnv64`] hashes an encoding and
//! [`ByteCount`] sizes one without either ever being built.

use std::fmt::{self, Write as _};

/// Wire-format version stamped into every [`Frame`]. Bump when the field
/// encoding itself (not a payload schema) changes shape.
pub(crate) const WIRE_VERSION: u16 = 1;

/// Frame magic: `RMCD` (RoaM CoDec).
pub(crate) const MAGIC: [u8; 4] = *b"RMCD";

/// Everything that can go wrong while decoding. Typed so callers can
/// distinguish a stale artifact (version) from a torn one (hash,
/// truncation) from a schema drift (missing/unknown).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended mid-value.
    Truncated,
    /// The frame does not start with `MAGIC`.
    BadMagic,
    /// The frame's integrity hash does not match its contents.
    BadHash {
        /// Hash stored in the frame.
        stored: u64,
        /// Hash recomputed over the received bytes.
        computed: u64,
    },
    /// The frame's wire version is not one this build understands.
    UnsupportedVersion {
        /// Version found in the frame.
        found: u16,
        /// Version this build speaks.
        supported: u16,
    },
    /// A field header named a wire type this build does not know.
    UnknownWireType(u8),
    /// A field held a different wire type than the schema expects.
    WrongType {
        /// The field's tag.
        tag: u32,
        /// What the caller expected (`"u64"`, `"f64"`, `"bytes"`…).
        expected: &'static str,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A required field was absent from its section.
    MissingField(&'static str),
    /// An enum discriminant (or similar constrained value) was out of
    /// range for the named schema element.
    BadValue(&'static str),
    /// A varint ran longer than its widest legal encoding.
    Overlong,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated mid-value"),
            CodecError::BadMagic => write!(f, "bad frame magic (not a roam-codec frame)"),
            CodecError::BadHash { stored, computed } => write!(
                f,
                "integrity hash mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CodecError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported wire version {found} (this build speaks {supported})"
            ),
            CodecError::UnknownWireType(w) => write!(f, "unknown wire type {w}"),
            CodecError::WrongType { tag, expected } => {
                write!(f, "field {tag}: expected {expected}")
            }
            CodecError::BadUtf8 => write!(f, "string field held invalid UTF-8"),
            CodecError::MissingField(name) => write!(f, "required field missing: {name}"),
            CodecError::BadValue(what) => write!(f, "value out of range for {what}"),
            CodecError::Overlong => write!(f, "overlong varint"),
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit over `bytes` — the frame integrity hash and the seed of
/// every content fingerprint in the workspace. Stable, dependency-free,
/// and byte-order independent by construction.
#[must_use]
pub fn hash64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fold `v` into an FNV-1a state `h` (little-endian bytes) — the
/// incremental flavour of [`hash64`] for fingerprints built from parts.
#[must_use]
pub fn hash64_fold(h: u64, v: u64) -> u64 {
    let mut h = h;
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Wire types, 3 bits of every field header.
const WIRE_VARINT: u8 = 0;
const WIRE_F64: u8 = 1;
const WIRE_BYTES: u8 = 2;
const WIRE_SECTION: u8 = 3;
const WIRE_I128: u8 = 4;

/// Where a [`FieldWriter`]'s bytes go. The wire layout is defined once,
/// in [`FieldWriter`]; a sink only decides what becomes of each byte. A
/// `Vec<u8>` keeps them ([`Encoder`]), [`Fnv64`] hashes them and
/// [`ByteCount`] counts them, so an encoding can be fingerprinted or
/// sized without being built.
pub trait Sink {
    /// Take one byte.
    fn put(&mut self, byte: u8);
    /// Take a run of bytes.
    fn put_slice(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, byte: u8) {
        self.push(byte);
    }

    #[inline]
    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A running FNV-1a 64 state: the bytes written into it hash to exactly
/// [`hash64`] of the same bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// The state before any byte.
    #[must_use]
    pub const fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// The hash of every byte taken so far.
    #[must_use]
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sink for Fnv64 {
    #[inline]
    fn put(&mut self, byte: u8) {
        self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }

    #[inline]
    fn put_slice(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.put(b);
        }
    }
}

/// Formatted text written straight into a [`Sink`].
struct SinkText<'s, S>(&'s mut S);

impl<S: Sink> fmt::Write for SinkText<'_, S> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.put_slice(s.as_bytes());
        Ok(())
    }
}

/// A sink that keeps only the number of bytes it was given: the length
/// of an encoding, without the encoding.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ByteCount(u64);

impl ByteCount {
    /// Bytes taken so far.
    #[must_use]
    pub const fn total(self) -> u64 {
        self.0
    }
}

impl Sink for ByteCount {
    #[inline]
    fn put(&mut self, _byte: u8) {
        self.0 += 1;
    }

    #[inline]
    fn put_slice(&mut self, bytes: &[u8]) {
        self.0 += bytes.len() as u64;
    }
}

#[inline]
fn write_varint(sink: &mut impl Sink, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            sink.put(byte);
            return;
        }
        sink.put(byte | 0x80);
    }
}

#[inline]
fn write_varint128(sink: &mut impl Sink, mut v: u128) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            sink.put(byte);
            return;
        }
        sink.put(byte | 0x80);
    }
}

/// Zigzag: interleave negatives so small magnitudes stay short.
fn zigzag128(v: i128) -> u128 {
    ((v << 1) ^ (v >> 127)) as u128
}

fn unzigzag128(v: u128) -> i128 {
    ((v >> 1) as i128) ^ -((v & 1) as i128)
}

/// A run of fields that can write itself into any [`Sink`]: what
/// [`FieldWriter::section_of`] needs to size a section before it streams
/// the section's fields.
pub trait Fields {
    /// Write the fields into `w`.
    fn write_fields<S: Sink>(&self, w: &mut FieldWriter<S>);
}

/// Append-only field writer over a [`Sink`]. Tags are caller-chosen
/// small integers; the same tag may repeat (repeated fields decode in
/// writing order).
///
/// The field methods are generic over the sink, so they compile into
/// each caller, inlined with the sink's own code, rather than being
/// called across the crate boundary.
#[derive(Debug, Default)]
pub struct FieldWriter<S> {
    sink: S,
}

/// The field writer that keeps its bytes: the one that builds frames.
pub type Encoder = FieldWriter<Vec<u8>>;

impl<S: Sink> FieldWriter<S> {
    /// A writer whose bytes go to `sink`.
    #[must_use]
    pub fn with_sink(sink: S) -> Self {
        FieldWriter { sink }
    }

    /// The sink, holding everything written so far.
    #[must_use]
    pub fn into_sink(self) -> S {
        self.sink
    }

    #[inline]
    fn header(&mut self, tag: u32, wire: u8) {
        write_varint(&mut self.sink, (u64::from(tag) << 3) | u64::from(wire));
    }

    /// Write an unsigned integer field.
    #[inline]
    pub fn u64(&mut self, tag: u32, v: u64) {
        self.header(tag, WIRE_VARINT);
        write_varint(&mut self.sink, v);
    }

    /// Write a signed 128-bit integer field (zigzag varint) — the fleet's
    /// exact fixed-point sums.
    #[inline]
    pub fn i128(&mut self, tag: u32, v: i128) {
        self.header(tag, WIRE_I128);
        write_varint128(&mut self.sink, zigzag128(v));
    }

    /// Write a float field as its exact IEEE-754 bit pattern. NaN
    /// payloads, infinities and signed zeros round-trip bit-for-bit.
    #[inline]
    pub fn f64(&mut self, tag: u32, v: f64) {
        self.header(tag, WIRE_F64);
        self.sink.put_slice(&v.to_bits().to_le_bytes());
    }

    /// Write a raw bytes field (length-prefixed).
    #[inline]
    pub fn bytes(&mut self, tag: u32, b: &[u8]) {
        self.header(tag, WIRE_BYTES);
        write_varint(&mut self.sink, b.len() as u64);
        self.sink.put_slice(b);
    }

    /// Write a string field (UTF-8 bytes, length-prefixed).
    #[inline]
    pub fn str(&mut self, tag: u32, s: &str) {
        self.bytes(tag, s.as_bytes());
    }

    /// Write a string field holding formatted text without building the
    /// string: one pass formats into a [`ByteCount`] for the length, a
    /// second streams the text into this writer's sink. The bytes are
    /// those of [`FieldWriter::str`] over `text.to_string()`, provided
    /// the text formats the same both times (as derived `Debug` does).
    pub fn str_fmt(&mut self, tag: u32, text: fmt::Arguments<'_>) {
        const FAILED: &str = "a formatting trait implementation returned an error";
        let mut len = ByteCount::default();
        SinkText(&mut len).write_fmt(text).expect(FAILED);
        self.header(tag, WIRE_BYTES);
        write_varint(&mut self.sink, len.total());
        SinkText(&mut self.sink).write_fmt(text).expect(FAILED);
    }

    /// Write a nested section: a tagged, length-prefixed run of fields
    /// produced by `f` into a fresh encoder, then copied into this
    /// writer's sink.
    pub fn section(&mut self, tag: u32, f: impl FnOnce(&mut Encoder)) {
        let mut inner = Encoder::new();
        f(&mut inner);
        self.section_header(tag, inner.sink.len() as u64);
        self.sink.put_slice(&inner.sink);
    }

    /// Write `fields` as a nested section without building it: one pass
    /// into a [`ByteCount`] sizes the section, a second writes its fields
    /// straight into this writer's sink. The bytes are those of
    /// [`FieldWriter::section`] over the same fields.
    #[inline]
    pub fn section_of(&mut self, tag: u32, fields: &impl Fields) {
        let mut size = FieldWriter::with_sink(ByteCount::default());
        fields.write_fields(&mut size);
        self.section_header(tag, size.sink.total());
        fields.write_fields(self);
    }

    #[inline]
    fn section_header(&mut self, tag: u32, len: u64) {
        self.header(tag, WIRE_SECTION);
        write_varint(&mut self.sink, len);
    }
}

impl Encoder {
    /// An empty encoder.
    #[must_use]
    pub fn new() -> Self {
        FieldWriter { sink: Vec::new() }
    }

    /// An empty encoder with a pre-sized buffer.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        FieldWriter {
            sink: Vec::with_capacity(cap),
        }
    }

    /// The encoded fields, without any frame around them.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.sink
    }

    /// Wrap the encoded fields in an integrity-hashed [`Frame`] of the
    /// given kind and payload version.
    #[must_use]
    pub fn into_frame(self, kind: u16, version: u16) -> Vec<u8> {
        Frame::seal(kind, version, &self.sink)
    }
}

/// A decoded field value. Sections decode lazily — [`Value::Section`]
/// hands back a sub-decoder over the section's bytes.
#[derive(Debug)]
pub enum Value<'a> {
    /// An unsigned varint field.
    U64(u64),
    /// A zigzag 128-bit integer field.
    I128(i128),
    /// A float field (exact bit pattern).
    F64(f64),
    /// A raw bytes field.
    Bytes(&'a [u8]),
    /// A nested section.
    Section(Decoder<'a>),
}

impl<'a> Value<'a> {
    /// The value as `u64`, or [`CodecError::WrongType`].
    pub fn as_u64(&self, tag: u32) -> Result<u64, CodecError> {
        match self {
            Value::U64(v) => Ok(*v),
            _ => Err(CodecError::WrongType {
                tag,
                expected: "u64",
            }),
        }
    }

    /// The value as `i128`, or [`CodecError::WrongType`].
    pub fn as_i128(&self, tag: u32) -> Result<i128, CodecError> {
        match self {
            Value::I128(v) => Ok(*v),
            _ => Err(CodecError::WrongType {
                tag,
                expected: "i128",
            }),
        }
    }

    /// The value as `f64`, or [`CodecError::WrongType`].
    pub fn as_f64(&self, tag: u32) -> Result<f64, CodecError> {
        match self {
            Value::F64(v) => Ok(*v),
            _ => Err(CodecError::WrongType {
                tag,
                expected: "f64",
            }),
        }
    }

    /// The value as raw bytes, or [`CodecError::WrongType`].
    pub fn as_bytes(&self, tag: u32) -> Result<&'a [u8], CodecError> {
        match self {
            Value::Bytes(b) => Ok(b),
            _ => Err(CodecError::WrongType {
                tag,
                expected: "bytes",
            }),
        }
    }

    /// The value as UTF-8 text, or a type/encoding error.
    pub fn as_str(&self, tag: u32) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.as_bytes(tag)?).map_err(|_| CodecError::BadUtf8)
    }

    /// The value as a sub-decoder, or [`CodecError::WrongType`].
    pub fn as_section(self, tag: u32) -> Result<Decoder<'a>, CodecError> {
        match self {
            Value::Section(d) => Ok(d),
            _ => Err(CodecError::WrongType {
                tag,
                expected: "section",
            }),
        }
    }
}

/// Forward-only field reader over an encoded byte run.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over raw (frameless) field bytes.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Have all fields been read?
    #[must_use]
    pub(crate) fn is_done(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn read_varint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
            self.pos += 1;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::Overlong)
    }

    fn read_varint128(&mut self) -> Result<u128, CodecError> {
        let mut v = 0u128;
        for shift in (0..133).step_by(7) {
            let byte = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
            self.pos += 1;
            v |= u128::from(byte & 0x7f) << shift.min(127);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::Overlong)
    }

    fn read_slice(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(len).ok_or(CodecError::Truncated)?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// The next `(tag, value)` pair, or `None` at the end of the run.
    /// Unknown tags are the *caller's* business (skip them to stay
    /// forward-compatible); unknown wire types are an error because the
    /// decoder cannot know their size.
    pub fn next_field(&mut self) -> Result<Option<(u32, Value<'a>)>, CodecError> {
        if self.is_done() {
            return Ok(None);
        }
        let header = self.read_varint()?;
        let tag = u32::try_from(header >> 3).map_err(|_| CodecError::BadValue("field tag"))?;
        let value = match (header & 0x7) as u8 {
            WIRE_VARINT => Value::U64(self.read_varint()?),
            WIRE_I128 => Value::I128(unzigzag128(self.read_varint128()?)),
            WIRE_F64 => {
                let raw = self.read_slice(8)?;
                let mut bits = [0u8; 8];
                bits.copy_from_slice(raw);
                Value::F64(f64::from_bits(u64::from_le_bytes(bits)))
            }
            WIRE_BYTES => {
                let len = self.read_varint()? as usize;
                Value::Bytes(self.read_slice(len)?)
            }
            WIRE_SECTION => {
                let len = self.read_varint()? as usize;
                Value::Section(Decoder::new(self.read_slice(len)?))
            }
            other => return Err(CodecError::UnknownWireType(other)),
        };
        Ok(Some((tag, value)))
    }
}

/// The boundary-crossing envelope: magic, wire version, caller kind,
/// payload version, payload length, payload, FNV-1a hash of everything
/// before the hash.
///
/// Layout (all little-endian):
///
/// ```text
/// [0..4)   magic  "RMCD"
/// [4..6)   wire version (u16)
/// [6..8)   frame kind (u16, caller-defined: job, shard state, manifest…)
/// [8..10)  payload version (u16, caller-defined schema rev)
/// [10..18) payload length (u64)
/// [18..n)  payload (tagged fields)
/// [n..n+8) integrity hash (FNV-1a 64 over bytes [0..n))
/// ```
#[derive(Debug)]
pub struct Frame<'a> {
    /// Caller-defined frame kind.
    pub kind: u16,
    /// Caller-defined payload schema version.
    pub version: u16,
    /// The payload bytes (decode with [`Decoder::new`]).
    pub payload: &'a [u8],
}

impl<'a> Frame<'a> {
    /// Header bytes before the payload.
    pub const HEADER_LEN: usize = 18;

    /// Seal `payload` into a framed byte vector.
    #[must_use]
    pub fn seal(kind: u16, version: u16, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::HEADER_LEN + payload.len() + 8);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        out.extend_from_slice(&kind.to_le_bytes());
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        let h = hash64(&out);
        out.extend_from_slice(&h.to_le_bytes());
        out
    }

    /// Parse and verify one frame at the start of `bytes`. Returns the
    /// frame and the total bytes it consumed (so streams of frames can be
    /// walked).
    pub fn parse(bytes: &'a [u8]) -> Result<(Frame<'a>, usize), CodecError> {
        if bytes.len() < Self::HEADER_LEN {
            return Err(CodecError::Truncated);
        }
        if bytes[0..4] != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let u16_at = |i: usize| u16::from_le_bytes([bytes[i], bytes[i + 1]]);
        let wire = u16_at(4);
        if wire != WIRE_VERSION {
            return Err(CodecError::UnsupportedVersion {
                found: wire,
                supported: WIRE_VERSION,
            });
        }
        let kind = u16_at(6);
        let version = u16_at(8);
        let mut len8 = [0u8; 8];
        len8.copy_from_slice(&bytes[10..18]);
        let len = usize::try_from(u64::from_le_bytes(len8))
            .map_err(|_| CodecError::BadValue("frame length"))?;
        let total = Self::HEADER_LEN
            .checked_add(len)
            .and_then(|n| n.checked_add(8))
            .ok_or(CodecError::BadValue("frame length"))?;
        if bytes.len() < total {
            return Err(CodecError::Truncated);
        }
        let hashed = &bytes[..Self::HEADER_LEN + len];
        let mut h8 = [0u8; 8];
        h8.copy_from_slice(&bytes[Self::HEADER_LEN + len..total]);
        let stored = u64::from_le_bytes(h8);
        let computed = hash64(hashed);
        if stored != computed {
            return Err(CodecError::BadHash { stored, computed });
        }
        Ok((
            Frame {
                kind,
                version,
                payload: &bytes[Self::HEADER_LEN..Self::HEADER_LEN + len],
            },
            total,
        ))
    }

    /// Read one whole frame from a byte stream (header first, then
    /// exactly the advertised payload+hash). Returns the owned frame
    /// bytes for [`Frame::parse`] to verify; `None` on a clean EOF before
    /// any header byte.
    ///
    /// The header is checked before anything is allocated: a wrong magic
    /// or wire version, or a length whose frame does not fit in `usize`,
    /// is [`InvalidData`](std::io::ErrorKind::InvalidData). The payload
    /// is read through [`Read::take`](std::io::Read::take): beyond the
    /// first 1 MiB, the buffer grows with the bytes that arrive, not with
    /// the length a header claims. A stream that ends early is
    /// [`UnexpectedEof`](std::io::ErrorKind::UnexpectedEof).
    pub fn read_from(r: &mut impl std::io::Read) -> std::io::Result<Option<Vec<u8>>> {
        use std::io::{Error, ErrorKind, Read as _};
        let mut header = [0u8; Self::HEADER_LEN];
        let mut got = 0;
        while got < header.len() {
            let n = r.read(&mut header[got..])?;
            if n == 0 {
                if got == 0 {
                    return Ok(None);
                }
                return Err(Error::new(
                    ErrorKind::UnexpectedEof,
                    "frame header truncated",
                ));
            }
            got += n;
        }
        if header[0..4] != MAGIC {
            return Err(Error::new(ErrorKind::InvalidData, CodecError::BadMagic));
        }
        let wire = u16::from_le_bytes([header[4], header[5]]);
        if wire != WIRE_VERSION {
            return Err(Error::new(
                ErrorKind::InvalidData,
                CodecError::UnsupportedVersion {
                    found: wire,
                    supported: WIRE_VERSION,
                },
            ));
        }
        let mut len8 = [0u8; 8];
        len8.copy_from_slice(&header[10..18]);
        let len = u64::from_le_bytes(len8);
        // The whole frame must fit in memory's address space; checking
        // that also keeps `len + 8` from wrapping.
        usize::try_from(len)
            .ok()
            .and_then(|n| n.checked_add(Self::HEADER_LEN + 8))
            .ok_or_else(|| {
                Error::new(ErrorKind::InvalidData, CodecError::BadValue("frame length"))
            })?;
        let rest = len + 8;
        // Frames up to 1 MiB are read into one exact allocation; past
        // that, the buffer grows only as the claimed bytes arrive.
        let mut out = Vec::with_capacity(Self::HEADER_LEN + rest.min(1 << 20) as usize);
        out.extend_from_slice(&header);
        r.take(rest).read_to_end(&mut out)?;
        if (out.len() - Self::HEADER_LEN) as u64 != rest {
            return Err(Error::new(ErrorKind::UnexpectedEof, "frame truncated"));
        }
        Ok(Some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut e = Encoder::new();
        e.u64(1, 0);
        e.u64(2, u64::MAX);
        e.i128(3, -1);
        e.i128(4, i128::MIN);
        e.i128(5, i128::MAX);
        e.f64(6, -0.0);
        e.f64(7, f64::NAN);
        e.f64(8, f64::NEG_INFINITY);
        e.str(9, "fleet/007");
        e.bytes(10, &[0xde, 0xad]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let mut seen = Vec::new();
        while let Some((tag, v)) = d.next_field().expect("clean input") {
            seen.push(match (tag, v) {
                (1..=2, v) => v.as_u64(tag).unwrap().to_string(),
                (3..=5, v) => v.as_i128(tag).unwrap().to_string(),
                (6..=8, v) => format!("{:#x}", v.as_f64(tag).unwrap().to_bits()),
                (9, v) => v.as_str(tag).unwrap().to_string(),
                (10, v) => format!("{:?}", v.as_bytes(tag).unwrap()),
                other => panic!("unexpected field {other:?}"),
            });
        }
        assert_eq!(
            seen,
            vec![
                "0".to_string(),
                u64::MAX.to_string(),
                "-1".to_string(),
                i128::MIN.to_string(),
                i128::MAX.to_string(),
                format!("{:#x}", (-0.0f64).to_bits()),
                format!("{:#x}", f64::NAN.to_bits()),
                format!("{:#x}", f64::NEG_INFINITY.to_bits()),
                "fleet/007".to_string(),
                "[222, 173]".to_string(),
            ]
        );
    }

    #[test]
    fn sections_nest_and_skip() {
        let mut e = Encoder::new();
        e.u64(1, 7);
        e.section(2, |s| {
            s.str(1, "inner");
            s.section(2, |ss| ss.u64(1, 99));
        });
        e.u64(3, 8);
        let bytes = e.into_bytes();
        // A reader that ignores the section still sees fields 1 and 3.
        let mut d = Decoder::new(&bytes);
        let mut plain = Vec::new();
        while let Some((tag, v)) = d.next_field().expect("clean input") {
            if let Value::U64(n) = v {
                plain.push((tag, n));
            }
        }
        assert_eq!(plain, vec![(1, 7), (3, 8)]);
        // A reader that descends finds the nested value.
        let mut d = Decoder::new(&bytes);
        d.next_field().unwrap();
        let (_, sec) = d.next_field().unwrap().expect("section present");
        let mut sec = sec.as_section(2).unwrap();
        let (_, s) = sec.next_field().unwrap().expect("inner str");
        assert_eq!(s.as_str(1).unwrap(), "inner");
        let (_, inner) = sec.next_field().unwrap().expect("inner section");
        let mut inner = inner.as_section(2).unwrap();
        let (_, n) = inner.next_field().unwrap().expect("deep u64");
        assert_eq!(n.as_u64(1).unwrap(), 99);
    }

    #[test]
    fn unknown_tags_are_skippable_by_construction() {
        // A "v2" writer adds field 50; a "v1" reader loops and ignores it.
        let mut e = Encoder::new();
        e.u64(1, 1);
        e.f64(50, 3.5);
        e.section(51, |s| s.str(1, "future"));
        e.u64(2, 2);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let mut known = Vec::new();
        while let Some((tag, v)) = d.next_field().expect("clean input") {
            match tag {
                1 | 2 => known.push(v.as_u64(tag).unwrap()),
                _ => {} // unknown: already fully consumed
            }
        }
        assert_eq!(known, vec![1, 2]);
    }

    #[test]
    fn frames_verify_and_reject_corruption() {
        let mut e = Encoder::new();
        e.str(1, "payload");
        let framed = e.into_frame(3, 9);
        let (frame, used) = Frame::parse(&framed).expect("intact frame");
        assert_eq!(used, framed.len());
        assert_eq!((frame.kind, frame.version), (3, 9));
        let mut d = Decoder::new(frame.payload);
        let (_, v) = d.next_field().unwrap().expect("field");
        assert_eq!(v.as_str(1).unwrap(), "payload");

        // Flip one payload byte: hash must catch it.
        let mut torn = framed.clone();
        torn[Frame::HEADER_LEN] ^= 0x40;
        assert!(matches!(
            Frame::parse(&torn),
            Err(CodecError::BadHash { .. })
        ));
        // Truncate: loud failure.
        assert_eq!(
            Frame::parse(&framed[..framed.len() - 3]).unwrap_err(),
            CodecError::Truncated
        );
        // Wrong magic.
        let mut alien = framed.clone();
        alien[0] = b'X';
        assert_eq!(Frame::parse(&alien).unwrap_err(), CodecError::BadMagic);
        // Future wire version.
        let mut future = framed;
        future[4] = 0xff;
        // Re-seal the hash so only the version check can fire.
        let n = future.len() - 8;
        let h = hash64(&future[..n]);
        future[n..].copy_from_slice(&h.to_le_bytes());
        assert!(matches!(
            Frame::parse(&future),
            Err(CodecError::UnsupportedVersion { found: 0x00ff, .. })
        ));
    }

    #[test]
    fn frame_streams_read_back_one_by_one() {
        let mut stream = Vec::new();
        for i in 0..3u64 {
            let mut e = Encoder::new();
            e.u64(1, i);
            stream.extend_from_slice(&e.into_frame(1, 1));
        }
        let mut cursor = std::io::Cursor::new(stream);
        for i in 0..3u64 {
            let bytes = Frame::read_from(&mut cursor)
                .expect("io ok")
                .expect("frame present");
            let (frame, _) = Frame::parse(&bytes).expect("intact");
            let mut d = Decoder::new(frame.payload);
            let (_, v) = d.next_field().unwrap().expect("field");
            assert_eq!(v.as_u64(1).unwrap(), i);
        }
        assert!(Frame::read_from(&mut cursor).expect("io ok").is_none());
    }

    #[test]
    fn truncated_stream_is_an_io_error_not_a_hang() {
        let mut e = Encoder::new();
        e.str(1, "partial");
        let framed = e.into_frame(1, 1);
        let mut cursor = std::io::Cursor::new(framed[..framed.len() - 2].to_vec());
        let err = Frame::read_from(&mut cursor).expect_err("truncated");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn hostile_stream_headers_are_refused_before_allocating() {
        use std::io::{Cursor, ErrorKind};
        let header = |magic: [u8; 4], wire: u16, len: u64| {
            let mut h = magic.to_vec();
            h.extend_from_slice(&wire.to_le_bytes());
            h.extend_from_slice(&[1, 0, 1, 0]);
            h.extend_from_slice(&len.to_le_bytes());
            h
        };
        let read = |bytes: Vec<u8>| Frame::read_from(&mut Cursor::new(bytes)).unwrap_err();
        // Not a frame at all: refused on the magic, whatever it claims.
        let alien = read(header(*b"XXXX", WIRE_VERSION, 1 << 44));
        assert_eq!(alien.kind(), ErrorKind::InvalidData);
        let future = read(header(MAGIC, WIRE_VERSION + 1, 8));
        assert_eq!(future.kind(), ErrorKind::InvalidData);
        // A plausible header advertising 16 TiB, then EOF: the buffer
        // grows with what arrives, so this is a short read, not an abort.
        let mut huge = header(MAGIC, WIRE_VERSION, 1 << 44);
        huge.extend_from_slice(b"a few payload bytes");
        assert_eq!(read(huge).kind(), ErrorKind::UnexpectedEof);
        // A length whose frame cannot be addressed.
        let wrap = read(header(MAGIC, WIRE_VERSION, u64::MAX));
        assert_eq!(wrap.kind(), ErrorKind::InvalidData);
        let wrap = read(header(MAGIC, WIRE_VERSION, u64::MAX - 8));
        assert_eq!(wrap.kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn hash64_matches_known_fnv_vectors() {
        assert_eq!(hash64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash64_fold(hash64(b""), 0), hash64(&[0u8; 8]));
    }
}
