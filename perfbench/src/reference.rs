//! A fixed reference kernel that gauges how fast the host runs now.
//!
//! On a shared host the simulator's speed drifts with what the other
//! tenants run, for minutes at a time. `run.py` divides that drift out of
//! the host metrics by timing this kernel in every repeat, beside the
//! workload. The kernel does what the simulator's engine loop does most:
//! it pops the earliest entry of a binary-heap event queue, updates state
//! scattered over 8 MiB, and pushes a later entry. Its work is fixed and
//! never depends on the repository's crates, so a change to the
//! simulator moves the workload's times and not the kernel's.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Timed chunks per repeat; each is timed on its own so that `run.py`
/// can take every chunk at its fastest repeat, as it does the slices.
pub const CHUNKS: usize = 8;
/// Events per chunk (about 5 ms on a 2 GHz Xeon).
const EVENTS: usize = 25_000;
/// Words of scattered state (8 MiB).
const STATE_WORDS: usize = 1 << 20;
/// Entries in the event queue.
const QUEUE: u64 = 4096;

/// Host seconds of each of the [`CHUNKS`] chunks of the kernel.
pub fn chunks() -> Vec<f64> {
    // Every word is written before timing starts, so no chunk pays for
    // first-touch page faults.
    let mut state: Vec<u64> = (0..STATE_WORDS as u64).collect();
    let mut queue: BinaryHeap<Reverse<(u64, u64)>> = (0..QUEUE).map(|i| Reverse((i, i))).collect();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    let mask = STATE_WORDS - 1;
    let times = (0..CHUNKS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..EVENTS {
                let Reverse((now, id)) = queue.pop().expect("queue never empties");
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let slot = (x as usize ^ id as usize) & mask;
                state[slot] = state[slot].wrapping_add(now);
                acc = acc.wrapping_add(state[slot.wrapping_mul(31) & mask]);
                queue.push(Reverse((now + 1 + (x & 1023), id)));
            }
            t0.elapsed().as_secs_f64()
        })
        .collect();
    black_box(acc);
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_chunk_is_timed() {
        let t = chunks();
        assert_eq!(t.len(), CHUNKS);
        assert!(t.iter().all(|&s| s > 0.0 && s < 10.0), "{t:?}");
    }
}
