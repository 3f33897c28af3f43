//! Wire formats: GTP-U and DNS.
//!
//! The tunnel and resolver traffic the paper's methodology reasons about
//! is encoded to bytes and decoded back, in the smoltcp spirit of
//! representation-faithful networking code. Formats implemented:
//!
//! * **GTP-U** (3GPP TS 29.281): the 8-byte mandatory header with a G-PDU
//!   payload — what the SGW↔PGW tunnels of §4.3 actually carry;
//! * **DNS** (RFC 1035, subset): one-question queries with A-record answers,
//!   enough for the resolver-discovery experiment of §5.1.
//!
//! The packet walk itself keeps no header bytes: it tracks each probe's
//! TTL as an integer (see [`crate::net`]).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::net::Ipv4Addr;

/// Errors from decoding a wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the fixed header requires.
    Truncated,
    /// A version/type field had an unsupported value.
    BadField(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated packet"),
            WireError::BadField(name) => write!(f, "bad field: {name}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// GTP-U
// ---------------------------------------------------------------------------

/// A GTP-U (GPRS Tunneling Protocol, user plane) header, 3GPP TS 29.281.
///
/// The mandatory 8-byte form: version 1, protocol type GTP, message type
/// G-PDU (0xFF), payload length, and the Tunnel Endpoint Identifier that the
/// SGW and PGW agreed on. Roaming user traffic between the v-MNO and the
/// breakout PGW — the "private path" of the paper — travels inside these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GtpuHeader {
    /// Length of the payload following this header, in bytes.
    pub payload_len: u16,
    /// Tunnel endpoint identifier.
    pub teid: u32,
}

impl GtpuHeader {
    /// Encoded size (no optional fields).
    pub const LEN: usize = 8;
    /// G-PDU message type.
    pub const MSG_GPDU: u8 = 0xFF;

    /// Encode the header.
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(0x30); // version 1, PT=1 (GTP), no optional fields
        buf.put_u8(Self::MSG_GPDU);
        buf.put_u16(self.payload_len);
        buf.put_u32(self.teid);
    }

    /// Decode from the front of `data`.
    pub fn decode(mut data: &[u8]) -> Result<Self, WireError> {
        if data.len() < Self::LEN {
            return Err(WireError::Truncated);
        }
        let flags = data.get_u8();
        if flags >> 5 != 1 {
            return Err(WireError::BadField("gtp version"));
        }
        if flags & 0x10 == 0 {
            return Err(WireError::BadField("gtp protocol type"));
        }
        let msg = data.get_u8();
        if msg != Self::MSG_GPDU {
            return Err(WireError::BadField("gtp message type"));
        }
        let payload_len = data.get_u16();
        let teid = data.get_u32();
        Ok(GtpuHeader { payload_len, teid })
    }

    /// Encapsulate an inner (already encoded) IP packet.
    #[must_use]
    pub fn encapsulate(teid: u32, inner: &[u8]) -> Bytes {
        assert!(
            inner.len() <= u16::MAX as usize,
            "GTP-U payload length field is 16 bits; fragment before tunnelling"
        );
        let mut buf = BytesMut::with_capacity(Self::LEN + inner.len());
        GtpuHeader {
            payload_len: inner.len() as u16,
            teid,
        }
        .encode(&mut buf);
        buf.put_slice(inner);
        buf.freeze()
    }

    /// Strip the tunnel header, returning `(header, inner packet)`.
    pub fn decapsulate(data: &[u8]) -> Result<(GtpuHeader, Bytes), WireError> {
        let hdr = Self::decode(data)?;
        let inner = data
            .get(Self::LEN..Self::LEN + hdr.payload_len as usize)
            .ok_or(WireError::Truncated)?;
        Ok((hdr, Bytes::copy_from_slice(inner)))
    }
}

// ---------------------------------------------------------------------------
// DNS (subset)
// ---------------------------------------------------------------------------

/// A DNS message restricted to the shapes the simulator needs: a single
/// A-type question, optionally answered with A records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsMessage {
    /// Transaction ID.
    pub id: u16,
    /// True for a response, false for a query.
    pub is_response: bool,
    /// The queried name (lower-case, dot-separated labels).
    pub qname: String,
    /// A-record answers (responses only).
    pub answers: Vec<Ipv4Addr>,
}

impl DnsMessage {
    /// Build a query for `qname`.
    #[must_use]
    pub fn query(id: u16, qname: &str) -> Self {
        DnsMessage {
            id,
            is_response: false,
            qname: qname.to_ascii_lowercase(),
            answers: vec![],
        }
    }

    /// Build the response to `query` carrying `answers`.
    #[must_use]
    pub fn response(query: &DnsMessage, answers: Vec<Ipv4Addr>) -> Self {
        DnsMessage {
            id: query.id,
            is_response: true,
            qname: query.qname.clone(),
            answers,
        }
    }

    /// Encode (RFC 1035 header + QD + AN sections; no compression).
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u16(self.id);
        // QR bit + RD; response also sets RA.
        buf.put_u16(if self.is_response { 0x8180 } else { 0x0100 });
        buf.put_u16(1); // QDCOUNT
        buf.put_u16(self.answers.len() as u16); // ANCOUNT
        buf.put_u16(0); // NSCOUNT
        buf.put_u16(0); // ARCOUNT
        encode_name(&mut buf, &self.qname);
        buf.put_u16(1); // QTYPE A
        buf.put_u16(1); // QCLASS IN
        for a in &self.answers {
            encode_name(&mut buf, &self.qname);
            buf.put_u16(1); // TYPE A
            buf.put_u16(1); // CLASS IN
            buf.put_u32(0); // TTL 0: the paper exploits NextDNS's zero TTL
            buf.put_u16(4); // RDLENGTH
            buf.put_slice(&a.octets());
        }
        buf.freeze()
    }

    /// Decode a message previously produced by [`DnsMessage::encode`].
    pub fn decode(data: &[u8]) -> Result<Self, WireError> {
        let mut b = data;
        if b.len() < 12 {
            return Err(WireError::Truncated);
        }
        let id = b.get_u16();
        let flags = b.get_u16();
        let qd = b.get_u16();
        let an = b.get_u16();
        let _ns = b.get_u16();
        let _ar = b.get_u16();
        if qd != 1 {
            return Err(WireError::BadField("qdcount"));
        }
        let qname = decode_name(&mut b)?;
        if b.len() < 4 {
            return Err(WireError::Truncated);
        }
        let qtype = b.get_u16();
        let _qclass = b.get_u16();
        if qtype != 1 {
            return Err(WireError::BadField("qtype"));
        }
        let mut answers = Vec::with_capacity(an as usize);
        for _ in 0..an {
            let _name = decode_name(&mut b)?;
            if b.len() < 10 {
                return Err(WireError::Truncated);
            }
            let _ty = b.get_u16();
            let _cl = b.get_u16();
            let _ttl = b.get_u32();
            let rdlen = b.get_u16();
            if rdlen != 4 {
                return Err(WireError::BadField("rdlength"));
            }
            if b.len() < 4 {
                return Err(WireError::Truncated);
            }
            answers.push(Ipv4Addr::new(
                b.get_u8(),
                b.get_u8(),
                b.get_u8(),
                b.get_u8(),
            ));
        }
        Ok(DnsMessage {
            id,
            is_response: flags & 0x8000 != 0,
            qname,
            answers,
        })
    }
}

fn encode_name(buf: &mut BytesMut, name: &str) {
    for label in name.split('.').filter(|l| !l.is_empty()) {
        assert!(label.len() < 64, "label too long: {label}");
        buf.put_u8(label.len() as u8);
        buf.put_slice(label.as_bytes());
    }
    buf.put_u8(0);
}

fn decode_name(b: &mut &[u8]) -> Result<String, WireError> {
    let mut name = String::new();
    loop {
        if b.is_empty() {
            return Err(WireError::Truncated);
        }
        let len = b.get_u8() as usize;
        if len == 0 {
            break;
        }
        if len >= 64 {
            return Err(WireError::BadField("label length"));
        }
        if b.len() < len {
            return Err(WireError::Truncated);
        }
        if !name.is_empty() {
            name.push('.');
        }
        let label =
            std::str::from_utf8(&b[..len]).map_err(|_| WireError::BadField("label utf8"))?;
        name.push_str(label);
        b.advance(len);
    }
    Ok(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn gtpu_encapsulation_round_trip() {
        let inner = b"an inner IPv4 datagram";
        let tunnel = GtpuHeader::encapsulate(0xDEADBEEF, inner);
        assert_eq!(tunnel.len(), GtpuHeader::LEN + inner.len());
        let (hdr, payload) = GtpuHeader::decapsulate(&tunnel).unwrap();
        assert_eq!(hdr.teid, 0xDEADBEEF);
        assert_eq!(hdr.payload_len as usize, inner.len());
        assert_eq!(&payload[..], &inner[..]);
    }

    #[test]
    fn gtpu_rejects_wrong_version_and_type() {
        let mut buf = BytesMut::new();
        GtpuHeader {
            payload_len: 0,
            teid: 1,
        }
        .encode(&mut buf);
        let mut v = buf.to_vec();
        v[0] = 0x50; // version 2
        assert!(GtpuHeader::decode(&v).is_err());
        v[0] = 0x30;
        v[1] = 0x01; // echo request, unsupported
        assert!(GtpuHeader::decode(&v).is_err());
    }

    #[test]
    fn dns_query_round_trip() {
        let q = DnsMessage::query(0xBEEF, "Google.COM");
        assert_eq!(
            q.qname, "google.com",
            "names are canonicalised to lower case"
        );
        let enc = q.encode();
        let back = DnsMessage::decode(&enc).unwrap();
        assert_eq!(back, q);
        assert!(!back.is_response);
    }

    #[test]
    fn dns_response_round_trip_with_answers() {
        let q = DnsMessage::query(7, "cdn.example.net");
        let r = DnsMessage::response(&q, vec![ip("93.184.216.34"), ip("93.184.216.35")]);
        let back = DnsMessage::decode(&r.encode()).unwrap();
        assert!(back.is_response);
        assert_eq!(back.id, 7);
        assert_eq!(back.answers.len(), 2);
        assert_eq!(back.answers[0], ip("93.184.216.34"));
    }

    #[test]
    fn dns_decode_rejects_truncation() {
        let enc = DnsMessage::query(1, "a.b").encode();
        for cut in [0, 5, 11, enc.len() - 1] {
            assert!(DnsMessage::decode(&enc[..cut]).is_err(), "cut at {cut}");
        }
    }
}
