//! What the host was doing while a workload ran: a calibration loop, the load
//! average, the core count, and the process's peak resident set.

use std::hint::black_box;
use std::time::Instant;

/// Two calibrations further apart than this share mark the run noisy.
const NOISY_SHARE: f64 = 0.10;

/// Times a fixed single-thread integer loop, in milliseconds. The loop touches
/// no memory, so it measures how much of a core this process is getting.
pub fn calibration_ms() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..40_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// Whether two calibrations disagree by more than a tenth.
pub fn is_noisy(before_ms: f64, after_ms: f64) -> bool {
    (before_ms - after_ms).abs() > NOISY_SHARE * before_ms.min(after_ms)
}

/// The host line of a run's notes: cores, load, both calibrations, and `NOISY`
/// when they disagree.
pub fn describe(calibration_before: f64, calibration_after: f64) -> String {
    format!(
        "host: nproc={} loadavg={} calibration before/after={calibration_before:.2}/{calibration_after:.2} ms{}",
        nproc(),
        loadavg().map_or("?".to_string(), |load| load.to_string()),
        if is_noisy(calibration_before, calibration_after) {
            " NOISY"
        } else {
            ""
        }
    )
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The one-minute load average, when the host exposes it.
pub fn loadavg() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Peak resident set size (`VmHWM`) in MiB, when the host exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_is_judged_against_the_faster_calibration() {
        assert!(!is_noisy(100.0, 109.0));
        assert!(is_noisy(100.0, 111.0));
        assert!(is_noisy(111.0, 100.0));
    }
}
