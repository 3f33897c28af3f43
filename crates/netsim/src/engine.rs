//! The flow engine: per-flow RNG streams.
//!
//! Every measurement the campaigns run — a ping train, a traceroute, a bulk
//! download — is a *flow*: a stream of packets whose randomness (jitter,
//! loss, server think time) must not depend on what other flows ran before
//! it. A [`Flow`] owns a private RNG derived from `(master_seed, flow_key)`
//! with [`flow_seed`] (FNV-1a over the key and seed, then a SplitMix64
//! finaliser), so inserting, removing or reordering measurements never
//! perturbs another flow's stream. That property is what
//! makes campaign output a pure function of *what* was measured, and is the
//! precondition for intra-shard concurrency.
//!
//! A bulk transfer's duration draws nothing from its flow: it is the
//! analytic model in [`crate::throughput::transfer_time_ms`].

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Derive a flow's RNG seed from the master seed and its stable key.
///
/// The key names *what* the flow measures (`"flow/s3/…/ookla/0"`), so the
/// stream a flow draws from is a pure function of identity, never of
/// execution order. FNV-1a absorbs the key and the master seed; a
/// SplitMix64 finalizer scrambles the result so related keys (and
/// low-entropy master seeds) land far apart in seed space.
#[must_use]
pub fn flow_seed(master: u64, key: &str) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_absorb(&mut h, key.as_bytes());
    fnv_absorb(&mut h, &master.to_le_bytes());
    splitmix(h)
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[inline]
fn fnv_absorb(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
}

#[inline]
fn splitmix(h: u64) -> u64 {
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Identity of a flow: the seed it was opened with. Two flows with the same
/// id draw identical streams — which is exactly the property the
/// order-insensitivity tests pin down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// A flow: a private, order-insensitive RNG stream for one measurement.
#[derive(Debug, Clone)]
pub struct Flow {
    id: FlowId,
    rng: SmallRng,
}

impl Flow {
    /// Open a flow from a derived seed (see [`flow_seed`]).
    #[must_use]
    pub fn open(seed: u64) -> Self {
        Flow {
            id: FlowId(seed),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The flow's identity.
    #[must_use]
    pub fn id(&self) -> FlowId {
        self.id
    }

    /// The flow's private RNG stream.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn flow_seed_is_stable_and_key_sensitive() {
        assert_eq!(flow_seed(7, "flow/a"), flow_seed(7, "flow/a"));
        assert_ne!(flow_seed(7, "flow/a"), flow_seed(7, "flow/b"));
        assert_ne!(flow_seed(7, "flow/a"), flow_seed(8, "flow/a"));
        // SplitMix finalisation spreads adjacent masters.
        assert!(flow_seed(1, "x").abs_diff(flow_seed(2, "x")) > 1 << 32);
    }

    #[test]
    fn same_flow_id_same_stream() {
        let mut a = Flow::open(flow_seed(9, "flow/s0/ookla/3"));
        let mut b = Flow::open(flow_seed(9, "flow/s0/ookla/3"));
        assert_eq!(a.id(), b.id());
        for _ in 0..64 {
            assert_eq!(a.rng().gen::<u64>(), b.rng().gen::<u64>());
        }
        let mut c = Flow::open(flow_seed(9, "flow/s0/ookla/4"));
        assert_ne!(a.rng().gen::<u64>(), c.rng().gen::<u64>());
    }
}
