//! The speed gauge: a fixed reference workload that measures how fast
//! the machine is right now, so host times taken minutes apart can be
//! compared.
//!
//! On a shared host the speed available to one process drifts by a
//! quarter or more over minutes as neighbours' load comes and goes; a
//! median over one half-minute run cannot average that out. The
//! benchmark therefore times this reference right before and right
//! after every measured run and scales the run's host times by
//! [`NOMINAL_S`] over the reference's time. The reference is the
//! benchmark's own code, never the program's, so it reads the same on
//! every commit and a change to the program moves only the measured
//! side.
//!
//! It mixes the three kinds of cost the simulator's host time is made
//! of: a dependent integer chain (core clock), a random pointer chase
//! within the per-core cache (cache latency under a sibling's load),
//! and one that misses the caches (memory latency under the host's
//! load). Its time is the geometric mean of the three.

use std::hint::black_box;
use std::time::Instant;

/// The reference's time on an unloaded machine of the kind the
/// benchmark was tuned on (a 2-vCPU Xeon VM), seconds. Scaled times
/// read as host times at that speed.
pub const NOMINAL_S: f64 = 0.0115;

/// Steps of each pointer chase.
const CACHE_STEPS: usize = 1_000_000;
const MEMORY_STEPS: usize = 150_000;
/// Iterations of the integer chain.
const CHAIN_ITERS: u64 = 2_000_000;

/// The reference's tables, built once per benchmark process.
pub struct Gauge {
    /// A single-cycle permutation of 1 MiB of `u32`s.
    cache: Vec<u32>,
    /// A single-cycle permutation of 32 MiB of `u32`s.
    memory: Vec<u32>,
}

impl Gauge {
    /// Builds the two chase tables.
    pub fn new() -> Gauge {
        Gauge {
            cache: cycle(1 << 18, 0x2545_f491_4f6c_dd1d),
            memory: cycle(1 << 23, 0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Times the reference once: the geometric mean, in seconds, of
    /// its three parts.
    pub fn time(&self) -> f64 {
        let chain = timed(|| {
            let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
            let mut acc = 0u64;
            for i in 0..CHAIN_ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.wrapping_mul(31).wrapping_add(x ^ i);
            }
            acc
        });
        let cache = timed(|| chase(&self.cache, CACHE_STEPS));
        let memory = timed(|| chase(&self.memory, MEMORY_STEPS));
        (chain * cache * memory).cbrt()
    }
}

/// Seconds `f` takes, its result kept alive.
fn timed(f: impl FnOnce() -> u64) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

/// Follows `steps` links of `next` from slot 0.
fn chase(next: &[u32], steps: usize) -> u64 {
    let mut p = 0u32;
    for _ in 0..steps {
        p = next[p as usize];
    }
    u64::from(p)
}

/// A random permutation of `0..len` that is one cycle (Sattolo's
/// algorithm driven by a xorshift from `seed`), so a chase visits every
/// slot before it repeats.
fn cycle(len: usize, seed: u64) -> Vec<u32> {
    let mut next: Vec<u32> = (0..len as u32).collect();
    let mut s = seed;
    for i in (1..len).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let j = (s % i as u64) as usize;
        next.swap(i, j);
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_visits_every_slot_once() {
        let next = cycle(1000, 7);
        let mut seen = vec![false; next.len()];
        let mut p = 0usize;
        for _ in 0..next.len() {
            assert!(!seen[p], "slot {p} visited twice");
            seen[p] = true;
            p = next[p] as usize;
        }
        assert_eq!(p, 0);
        assert!(seen.iter().all(|&s| s));
    }
}
