//! Process-level probes (CPU, peak memory, thread census) and the
//! order statistics every reported timing goes through.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// fixes `USER_HZ` at 100 in its user-space ABI.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process so far (every thread,
/// exited ones included).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name start at field 3
    // (`state`); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric stat field") as f64;
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM line in /proc/self/status");
    kb as f64 / 1024.0
}

/// OS threads in this process right now.
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// Samples [`thread_count`] every half millisecond on a thread of its
/// own until stopped, keeping the maximum.
pub struct ThreadCensus {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<usize>,
}

impl ThreadCensus {
    /// Start sampling.
    pub fn start() -> ThreadCensus {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = 0;
            while !flag.load(Ordering::Relaxed) {
                peak = peak.max(thread_count());
                std::thread::sleep(std::time::Duration::from_micros(500));
            }
            peak
        });
        ThreadCensus { stop, handle }
    }

    /// Stop sampling; returns the peak thread count, not counting the
    /// sampler itself.
    pub fn finish(self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        let peak = self.handle.join().expect("thread census sampler panicked");
        peak.saturating_sub(1)
    }
}

/// Median of a non-empty sample (mean of the two middle values for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest whole percentile that leaves at least ten samples beyond
/// it in a sample of `n`: the largest `p` with `n · (1 − p/100) ≥ 10`.
/// Samples smaller than 20 support nothing above the median.
pub fn tail_percentile(n: usize) -> u32 {
    if n < 20 {
        return 50;
    }
    // n · (100 − p) ≥ 1000  ⇔  100 − p ≥ ⌈1000 / n⌉.
    100 - 1000usize.div_ceil(n) as u32
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of a non-empty sample.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p as usize * v.len()).div_ceil(100).max(1);
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        // 780 intervals: p98 leaves 15.6 beyond it, p99 only 7.8.
        assert_eq!(tail_percentile(780), 98);
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(999), 98);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(10), 50);
        for n in 20..5000 {
            let p = tail_percentile(n);
            let beyond = |p: u32| n as f64 * (1.0 - f64::from(p) / 100.0);
            assert!(beyond(p) >= 10.0 - 1e-9, "n={n} p={p}");
            assert!(
                beyond(p + 1) < 10.0 - 1e-9,
                "n={n}: p{} also qualifies",
                p + 1
            );
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 98), 98.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
