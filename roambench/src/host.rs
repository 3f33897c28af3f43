//! What the host gives the benchmark: cores, memory high-water mark,
//! which filesystem the scratch directories sit on, and a reading of how
//! fast it runs right now, which puts the end-to-end timings at a fixed
//! reference speed.

use std::path::Path;

/// Cores available to this process (at least 1).
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// `timeval`s, then fourteen `long`s starting with `ru_maxrss` (KiB).
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn maxrss_kib(who: i32) -> i64 {
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a writable, properly aligned value with the layout
    // of Linux's 64-bit `struct rusage`; getrusage writes only into it.
    let rc = unsafe { getrusage(who, &mut u) };
    if rc == 0 {
        u.maxrss
    } else {
        0
    }
}

/// Peak resident set of this process or of any waited-for child (the
/// fleet worker processes), whichever is larger, in MB (10^6 bytes).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let kib = maxrss_kib(RUSAGE_SELF).max(maxrss_kib(RUSAGE_CHILDREN));
    kib as f64 * 1024.0 / 1e6
}

/// Filesystem type of the mount holding `path` (`ext4`, `tmpfs`, …),
/// from `/proc/mounts`; `unknown` when it cannot be read.
#[must_use]
pub fn fs_type(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mnt, ty) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(mnt).then(|| (mnt.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".to_string(), |(_, ty)| ty)
}

/// Keys of the speed kernel's hash map (about 0.5 MB with its sorted
/// copy: past L1, within L2).
const KERNEL_KEYS: u64 = 16_384;
/// Kernel runs per reading; the reading takes their median.
const SAMPLES: usize = 5;
/// The kernel's time on a quiet 2-core VM at 2.0 GHz, the host this
/// benchmark was tuned on, seconds. It only fixes the unit: runs on one
/// host divide by the same constant.
pub const KERNEL_REF_S: f64 = 0.00155;

/// Xorshift64 step.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// General-purpose work with a large code footprint, like the
/// simulator's, sharing none of its code and owning its memory:
/// hash-map inserts and lookups with the standard hasher, a sort, float
/// formatting and the allocations they make. Returns its wall time,
/// seconds.
fn kernel_once() -> f64 {
    use std::fmt::Write as _;
    let mut x = 0x6a09_e667_f3bc_c909_u64;
    let t = std::time::Instant::now();
    let mut map = std::collections::HashMap::with_capacity(KERNEL_KEYS as usize);
    for i in 0..KERNEL_KEYS {
        map.insert(next(&mut x) % (2 * KERNEL_KEYS), i as f64 * 0.5);
    }
    let mut hits = 0.0;
    for _ in 0..KERNEL_KEYS {
        if let Some(v) = map.get(&(next(&mut x) % (2 * KERNEL_KEYS))) {
            hits += v;
        }
    }
    let mut v: Vec<f64> = map.values().map(|v| v * 1.000_1).collect();
    v.sort_unstable_by(f64::total_cmp);
    let mut s = String::new();
    for f in v.iter().step_by(8) {
        let _ = write!(s, "{f:.3},");
    }
    std::hint::black_box((hits, s));
    t.elapsed().as_secs_f64()
}

/// How much slower than the quiet tuning host the machine runs right
/// now (above 1 is slower): the median of [`SAMPLES`] runs of a fixed
/// kernel over [`KERNEL_REF_S`].
///
/// The benchmark shares its machine with other tenants, whose load
/// slows it by up to 2× for seconds to minutes at a time. The kernel
/// shares no code with roamsim and owns its memory, so a change to
/// roamsim cannot move a reading except through the host.
#[must_use]
pub fn slowdown() -> f64 {
    let v: Vec<f64> = (0..SAMPLES).map(|_| kernel_once()).collect();
    crate::stats::median(&v) / KERNEL_REF_S
}
