//! A probe of the host's memory latency.
//!
//! The host this benchmark was defined on changes speed by up to about
//! 2x within minutes, mostly in memory latency: a pointer chase slows
//! down while an integer multiply chain does not. Every run times this
//! fixed chase, which shares no code with the simulator, and reports it
//! next to its results, so that runs taken in different host states
//! can be told apart. No metric is scaled by it.

use std::hint::black_box;
use std::time::Instant;

/// `u32` slots in the cycle (32 MB, past the last-level cache).
const SLOTS: usize = 1 << 23;
/// Dependent loads timed.
const HOPS: usize = 1 << 20;

/// Seconds for [`HOPS`] dependent loads around a random 32 MB cycle.
#[must_use]
pub fn probe_s() -> f64 {
    // Sattolo's shuffle: one cycle through every slot.
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in (1..SLOTS).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    let t0 = Instant::now();
    let mut at = 0u32;
    for _ in 0..HOPS {
        at = next[at as usize];
    }
    black_box(at);
    t0.elapsed().as_secs_f64()
}
