//! The host-noise record: core count, timer lateness, CPU steal and the
//! process's peak memory.

use std::time::{Duration, Instant};

use crate::stats::Samples;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// p99 oversleep of a bare 200 µs sleep loop, in microseconds, taken
/// before any load runs. A noisy neighbour shows here first.
pub fn timer_late_p99_us() -> f64 {
    let want = Duration::from_micros(200);
    let mut late = Samples::with_capacity(400);
    for _ in 0..400 {
        let t = Instant::now();
        std::thread::sleep(want);
        late.push(t.elapsed().saturating_sub(want));
    }
    late.quantile_us(0.99)
}

/// Cumulative `(steal, total)` jiffies over all CPUs from `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, fields.iter().sum())
}

/// Percentage of CPU time stolen by the hypervisor between two readings.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 * 100.0 / total as f64
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
