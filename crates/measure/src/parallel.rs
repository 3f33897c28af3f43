//! Deterministic shard execution for campaign runs.
//!
//! The paper's campaigns are embarrassingly parallel across countries: each
//! country's measurements touch only that country's attachments. The shard
//! runner exploits that while keeping the simulator's core guarantee —
//! **bit-identical output for a given seed** — regardless of how many
//! worker threads execute the shards:
//!
//! 1. every random draw comes from a flow seeded by the master seed and a
//!    *stable label* ([`roam_netsim::engine::flow_seed`]: the attachment's
//!    flow stamp plus the measurement's plan label, or a fleet user's uid),
//!    never from execution order;
//! 2. shards share no mutable state — a campaign shard builds its own
//!    world from the master seed, and fleet shards each clone one shared
//!    set-up network (`roam_fleet::RunInputs`);
//! 3. results are merged in shard-key order, not completion order.
//!
//! With those three rules, [`RunMode::Sequential`] and
//! [`RunMode::Parallel`]`(n)` produce the same bytes for every `n`, so
//! parallelism is purely a wall-clock knob. Workers are plain
//! [`std::thread::scope`] threads — no third-party runtime.

use std::sync::atomic::{AtomicUsize, Ordering};

/// How to execute a set of independent campaign shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Run shards one after another on the calling thread.
    Sequential,
    /// Run shards on up to `n` scoped worker threads. Output is
    /// bit-identical to [`RunMode::Sequential`] for any `n`.
    Parallel(usize),
}

impl RunMode {
    /// Worker count this mode will use for `shards` shards.
    #[must_use]
    pub fn workers(self, shards: usize) -> usize {
        match self {
            RunMode::Sequential => 1,
            RunMode::Parallel(n) => n.max(1).min(shards.max(1)),
        }
    }

    /// Read the mode from the `ROAM_PARALLEL` environment variable:
    /// unset, empty, `0` or `1` mean sequential; `auto` means one worker
    /// per available core; any other integer is the worker count.
    #[must_use]
    pub fn from_env() -> RunMode {
        match std::env::var("ROAM_PARALLEL") {
            Err(_) => RunMode::Sequential,
            Ok(v) => match v.trim() {
                "" | "0" | "1" => RunMode::Sequential,
                "auto" => RunMode::Parallel(
                    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
                ),
                other => match other.parse::<usize>() {
                    Ok(n) if n > 1 => RunMode::Parallel(n),
                    _ => RunMode::Sequential,
                },
            },
        }
    }
}

/// Wall-clock cost of one shard. Wall time is the one non-deterministic
/// quantity a run reports; it lives beside the byte-stable results,
/// never inside them, so those stay comparable across machines.
#[derive(Debug, Clone)]
pub struct ShardTiming {
    /// The shard's stable key (`"device/PAK"`, `"fleet/000"`, …).
    pub key: String,
    /// Wall-clock milliseconds the shard took on its worker.
    pub wall_ms: f64,
}

/// Run `count` independent shards and return their results in shard order.
///
/// `f(i)` must be a pure function of the shard index (plus captured
/// immutable state): it is called exactly once per index, possibly from a
/// worker thread. Results come back as `vec![f(0), f(1), …]` no matter
/// which worker finished first, which is what makes parallel runs
/// bit-identical to sequential ones.
///
/// # Panics
/// Propagates a panic from any shard.
pub fn run_shards<T, F>(mode: RunMode, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = mode.workers(count);
    if workers <= 1 || count <= 1 {
        return (0..count).map(f).collect();
    }
    // Work-stealing by atomic counter: threads grab the next unclaimed
    // shard, so a slow country does not stall the queue behind it.
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("shard worker panicked"))
            .collect()
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_agree_in_order() {
        let work = |i: usize| {
            // Uneven workloads so completion order differs from index order.
            let spin = (13 * (i % 7)) % 5;
            let mut acc = i as u64;
            for _ in 0..spin * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        };
        let seq = run_shards(RunMode::Sequential, 25, work);
        for n in [2, 4, 16, 64] {
            assert_eq!(run_shards(RunMode::Parallel(n), 25, work), seq, "n={n}");
        }
    }

    #[test]
    fn zero_and_one_shard_edge_cases() {
        assert!(run_shards(RunMode::Parallel(8), 0, |i| i).is_empty());
        assert_eq!(run_shards(RunMode::Parallel(8), 1, |i| i), vec![0]);
    }

    #[test]
    fn workers_clamp_to_shard_count() {
        assert_eq!(RunMode::Parallel(64).workers(3), 3);
        assert_eq!(RunMode::Parallel(0).workers(3), 1);
        assert_eq!(RunMode::Sequential.workers(100), 1);
    }
}
