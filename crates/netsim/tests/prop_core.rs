//! Property tests for the core netsim data structures: prefixes, the token
//! bucket and the transfer-time model.

use proptest::prelude::*;
use roam_netsim::ip::Ipv4Net;
use roam_netsim::throughput::{transfer_time_ms, TokenBucket, TransferSpec};
use roam_netsim::SimTime;
use std::net::Ipv4Addr;

proptest! {
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
