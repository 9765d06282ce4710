//! Readings from outside the stack: `/proc/self` and timed calls into
//! `ritas_crypto`.

use ritas_crypto::{Digest, Hmac, Sha1};
use std::hint::black_box;
use std::time::Instant;

/// A `kB` or count field of `/proc/self/status`, e.g. `VmHWM` or
/// `Threads`.
fn status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident memory in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Threads of this process now.
pub fn threads() -> u64 {
    status_field("Threads").unwrap_or(0)
}

/// User plus system CPU time of this process in milliseconds.
pub fn cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, in USER_HZ (100 per second) ticks.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 * 10.0
}

/// Median nanoseconds per KiB of `op` over a 1 KiB input.
fn ns_per_kib(mut op: impl FnMut(&[u8])) -> f64 {
    const ITERS: u32 = 2_000;
    let input = [0x5Au8; 1024];
    let mut batches: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..ITERS {
                op(black_box(&input));
            }
            t.elapsed().as_nanos() as f64 / f64::from(ITERS)
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

/// `ritas_crypto` HMAC-SHA1 (the channel MAC) cost per KiB.
pub fn hmac_ns_per_kib() -> f64 {
    let key = [7u8; 32];
    ns_per_kib(|m| {
        black_box(Hmac::<Sha1>::mac(&key, m));
    })
}

/// `ritas_crypto` SHA-1 cost per KiB.
pub fn sha1_ns_per_kib() -> f64 {
    ns_per_kib(|m| {
        black_box(Sha1::digest(m));
    })
}
