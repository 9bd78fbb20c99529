//! Small measurement helpers: order statistics, fingerprints, failure
//! accounting, progress heartbeats and the metric list.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Nearest-rank percentile (`p` in `0..=100`) of `values`; `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for even counts); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Order-sensitive 64-bit hash of a sequence of words (result fingerprints).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(0x6A09_E667_F3BC_C908)
    }

    pub fn push(&mut self, word: u64) {
        // SplitMix64 finaliser over the running state.
        let mut z = (self.0 ^ word).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    pub fn of(words: &[u64]) -> u64 {
        let mut fp = Fingerprint::new();
        for &w in words {
            fp.push(w);
        }
        fp.0
    }
}

/// Counts failed checks; the first few messages go to stderr.
#[derive(Debug, Default)]
pub struct Problems {
    count: u64,
}

impl Problems {
    pub fn fail(&mut self, what: impl AsRef<str>) {
        self.count += 1;
        if self.count <= 20 {
            eprintln!("perfbench: check failed: {}", what.as_ref());
        }
    }

    /// Records a failure unless `ok`; returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.fail(what());
        }
        ok
    }

    pub fn count(&self) -> u64 {
        self.count
    }
}

fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Heartbeat for the watchdog in `run.py`: one stderr line naming the
/// phase and the requests attempted so far, at most every 250 ms unless
/// `force` is set (phase changes always report).
pub fn progress(phase: &str, attempted: u64, force: bool) {
    static LAST_MS: AtomicU64 = AtomicU64::new(0);
    let now_ms = process_start().elapsed().as_millis() as u64 + 1;
    let last = LAST_MS.load(Ordering::Relaxed);
    if force || now_ms >= last + 250 {
        LAST_MS.store(now_ms, Ordering::Relaxed);
        eprintln!("@progress {phase} {attempted}");
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`); 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        assert_ne!(Fingerprint::of(&[1, 2]), Fingerprint::of(&[2, 1]));
        assert_eq!(Fingerprint::of(&[1, 2]), Fingerprint::of(&[1, 2]));
    }
}
