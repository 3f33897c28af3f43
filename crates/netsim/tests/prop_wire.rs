//! Property tests for the wire formats and core netsim data structures.

use proptest::prelude::*;
use roam_netsim::ip::Ipv4Net;
use roam_netsim::throughput::{transfer_time_ms, TokenBucket, TransferSpec};
use roam_netsim::wire::{DnsMessage, GtpuHeader};
use roam_netsim::SimTime;
use std::net::Ipv4Addr;

proptest! {
    #[test]
    fn gtpu_roundtrip(teid in any::<u32>(),
                      inner in proptest::collection::vec(any::<u8>(), 0..256)) {
        let t = GtpuHeader::encapsulate(teid, &inner);
        let (hdr, payload) = GtpuHeader::decapsulate(&t).unwrap();
        prop_assert_eq!(hdr.teid, teid);
        prop_assert_eq!(payload.as_ref(), inner.as_slice());
    }

    #[test]
    fn dns_roundtrip(id in any::<u16>(),
                     labels in proptest::collection::vec("[a-z0-9]{1,20}", 1..5),
                     answers in proptest::collection::vec(any::<u32>(), 0..6)) {
        let qname = labels.join(".");
        let q = DnsMessage::query(id, &qname);
        prop_assert_eq!(DnsMessage::decode(&q.encode()).unwrap(), q.clone());
        let r = DnsMessage::response(&q, answers.into_iter().map(Ipv4Addr::from).collect());
        let back = DnsMessage::decode(&r.encode()).unwrap();
        prop_assert_eq!(back, r);
    }

    #[test]
    fn dns_truncation_never_panics(id in any::<u16>(), cut in 0usize..60) {
        let enc = DnsMessage::query(id, "probe.example.net").encode();
        let cut = cut.min(enc.len());
        let _ = DnsMessage::decode(&enc[..cut]); // must not panic
    }

    #[test]
    fn prefix_nth_stays_inside(addr in any::<u32>(), len in 0u8..=32, idx in any::<u64>()) {
        let net = Ipv4Net::new(Ipv4Addr::from(addr), len);
        match net.nth(idx) {
            Some(ip) => prop_assert!(net.contains(ip)),
            None => prop_assert!(idx >= net.size()),
        }
    }

    #[test]
    fn token_bucket_never_exceeds_configured_rate(rate in 1.0f64..100.0,
                                                  burst in 0.0f64..50_000.0,
                                                  chunks in proptest::collection::vec(1.0f64..20_000.0, 1..30)) {
        let mut tb = TokenBucket::new(rate, burst);
        let mut now = SimTime::ZERO;
        let total: f64 = chunks.iter().sum();
        for bytes in &chunks {
            let wait = tb.consume(*bytes, now);
            now = now.after(wait);
        }
        // Everything beyond the initial burst must take at least
        // (total - burst) / rate seconds.
        let min_secs = ((total - burst) / (rate * 1e6 / 8.0)).max(0.0);
        prop_assert!(now.as_secs_f64() >= min_secs - 1e-6,
                     "drained {total} bytes in {} s, floor {min_secs}", now.as_secs_f64());
    }

    #[test]
    fn transfer_time_is_monotone_in_bytes(rtt in 5.0f64..400.0, rate in 1.0f64..200.0,
                                          b1 in 1.0f64..1e7, b2 in 1.0f64..1e7) {
        let t = |bytes| transfer_time_ms(&TransferSpec {
            bytes, rtt_ms: rtt, policy_rate_mbps: rate, loss: 0.0, setup_rtts: 2.0,
            parallel: 1,
        });
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        prop_assert!(t(lo) <= t(hi) + 1e-9);
    }
}
