//! Readings from the operating system: process CPU time, peak resident
//! memory, core count and last-level cache size.
//!
//! CPU time comes from `clock_gettime`, the rest from `/proc/self` and
//! `/sys`; a reading that is unavailable comes back as `None` (or 0 CPU
//! seconds) instead of failing the run.

use std::fs;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `struct timespec` of the 64-bit Linux ABI.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc `mallopt` parameters: the free-space size above which the heap
/// is trimmed, and the most blocks served by `mmap` at once.
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_MAX: i32 = -4;

/// Make the allocator keep freed memory for reuse: no trimming of the heap
/// and no `mmap`-backed blocks, so a request's buffers come from pages the
/// process already holds instead of fresh pages the kernel must zero and
/// map. Page faults cost kernel time that swings with the load on a shared
/// virtualised host. Returns whether both settings took effect.
pub fn keep_freed_memory() -> bool {
    // SAFETY: `mallopt` only changes allocator tunables; it is called
    // before any thread of the process is started.
    unsafe { mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 && mallopt(M_MMAP_MAX, 0) == 1 }
}

/// `CLOCK_PROCESS_CPUTIME_ID` of the Linux ABI.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process CPU seconds so far (user + system, summed over every thread the
/// process ever ran, including exited ones), at nanosecond resolution.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` for the whole call, and
    // the clock id is one the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of the process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The highest-level data or unified cache of CPU 0: `(level, bytes)`.
pub fn last_level_cache() -> Option<(u32, u64)> {
    let dir = fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    let mut best: Option<(u32, u64)> = None;
    for entry in dir.flatten() {
        let p = entry.path();
        let read = |f: &str| fs::read_to_string(p.join(f)).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(size.trim()))
        else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best
}

/// Parse a sysfs cache size such as `107520K` or `2M`.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|d| d * mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse_with_suffixes() {
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn cpu_time_advances_while_busy() {
        let before = process_cpu_s();
        let start = std::time::Instant::now();
        let mut x = 0u64;
        // Spin until the clock moves, for up to 5 s of wall time.
        while process_cpu_s() <= before && start.elapsed().as_secs() < 5 {
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
        }
        assert!(process_cpu_s() > before, "CPU time did not advance");
    }

    #[test]
    fn memory_and_cache_readings_are_plausible() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        if let Some((level, bytes)) = last_level_cache() {
            assert!(level >= 1 && bytes > 0);
        }
    }
}
