//! Host-speed reference: a fixed piece of work, independent of the
//! program, timed next to every request so that reported times can be
//! scaled to a nominal host speed.
//!
//! On a shared virtualised host the other tenants slow the whole guest
//! down in phases that last minutes: memory and cache contention, kernel
//! entries, thread wake-ups. A run that lands in a slow phase reads slower
//! throughout. The reference does a little of each of those (a pointer
//! chase through a last-level-cache-sized cycle, integer arithmetic, the
//! system calls behind `available_parallelism`, and a thread spawn when the
//! workload runs on several threads), so its time moves with the phase and
//! hardly with anything else. A request's time divided by the reference
//! time measured around it, times [`NOMINAL_S`], reads the same in a slow
//! phase as in a fast one; a change to the program moves it, because the
//! reference does not run program code.

use std::hint::black_box;
use std::time::Instant;

/// About the one-thread reference's time on a quiet 2-vCPU Xeon KVM guest
/// (2 MiB L2, 105 MiB L3), so that scaled one-thread times read close to
/// that host's seconds. Scaled times compare between runs and commits, not
/// with unscaled seconds.
pub const NOMINAL_S: f64 = 0.008;

/// Entries of the pointer-chase cycle (4 MiB: beyond a core's L2, inside
/// a shared last-level cache).
const CHASE_LEN: usize = 1 << 20;
/// Pointer-chase steps per reference.
const CHASE_STEPS: usize = 30_000;
/// Multiply-add rounds per reference.
const ALU_ROUNDS: u64 = 1_000_000;
/// `available_parallelism` calls per reference.
const SYSCALLS: usize = 40;
/// Fork-join rounds the reference is split into on several threads; each
/// round starts and joins a thread per extra thread, as the shim does at a
/// recursion fork.
const FORKS: usize = 16;

/// The reference's fixed data.
#[derive(Debug)]
pub struct Reference {
    /// A single random cycle through every entry: `chase[i]` is the next.
    chase: Vec<u32>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Build the chase cycle; the same on every run.
    pub fn new() -> Self {
        let mut order: Vec<u32> = (0..CHASE_LEN as u32).collect();
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..CHASE_LEN).rev() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            order.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let mut chase = vec![0u32; CHASE_LEN];
        for i in 0..CHASE_LEN {
            chase[order[i] as usize] = order[(i + 1) % CHASE_LEN];
        }
        Self { chase }
    }

    /// One thread's `1/parts` share of the reference work, chasing from
    /// `start`.
    fn work(&self, start: usize, parts: usize) -> u64 {
        let mut at = start as u32;
        for _ in 0..CHASE_STEPS / parts {
            at = self.chase[at as usize];
        }
        let mut x = u64::from(at) | 1;
        for i in 0..ALU_ROUNDS / parts as u64 {
            x = black_box(x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(i)) ^ (x >> 29);
        }
        for _ in 0..SYSCALLS / parts {
            x = x.wrapping_add(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64);
        }
        x
    }

    /// Wall seconds the reference takes now, run as a request of a
    /// workload with `threads` threads would run: on one thread the work
    /// in one piece; on several, every thread does all of it, split into
    /// [`FORKS`] fork-join rounds.
    pub fn time(&self, threads: usize) -> f64 {
        let t = Instant::now();
        if threads <= 1 {
            black_box(self.work(0, 1));
        } else {
            for round in 0..FORKS {
                let start = |k: usize| (round * threads + k) * CHASE_LEN / (FORKS * threads);
                std::thread::scope(|s| {
                    let others: Vec<_> = (1..threads)
                        .map(|k| s.spawn(move || self.work(start(k), FORKS)))
                        .collect();
                    black_box(self.work(start(0), FORKS));
                    for h in others {
                        black_box(h.join().ok());
                    }
                });
            }
        }
        t.elapsed().as_secs_f64()
    }
}

/// `seconds` scaled to the nominal host: `seconds * NOMINAL_S / reference`,
/// with `reference` the mean of the reference times taken just before and
/// just after the measured work.
pub fn scaled(seconds: f64, reference: f64) -> f64 {
    seconds * NOMINAL_S / reference.max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_is_one_cycle_through_every_entry() {
        let r = Reference::new();
        let mut seen = vec![false; CHASE_LEN];
        let mut at = 0usize;
        for _ in 0..CHASE_LEN {
            assert!(!seen[at]);
            seen[at] = true;
            at = r.chase[at] as usize;
        }
        assert_eq!(at, 0);
    }

    #[test]
    fn scaling_is_relative_to_the_nominal_reference() {
        assert_eq!(scaled(1.0, NOMINAL_S), 1.0);
        assert!((scaled(1.0, 2.0 * NOMINAL_S) - 0.5).abs() < 1e-12);
        assert!(Reference::new().time(2) > 0.0);
    }
}
