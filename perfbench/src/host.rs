//! Facts about the host, recorded with every run so that host drift can be
//! told apart from a change to the program.

use std::hint::black_box;
use std::time::Instant;

/// Host facts gathered over one run.
pub struct Host {
    calibrations: Vec<f64>,
    wait_at_start_ns: Option<u64>,
}

impl Host {
    /// Starts recording (reads the runqueue-wait counter).
    pub fn start() -> Self {
        Host { calibrations: Vec::new(), wait_at_start_ns: runqueue_wait_ns() }
    }

    /// Times one pass of a fixed loop that does not depend on the
    /// repository: xorshift arithmetic scattered over a 256 KiB table.
    /// Runs are interleaved with repetitions, so its median follows the
    /// host's speed through the run.
    pub fn calibrate(&mut self) {
        let t = Instant::now();
        let mut table = vec![0u64; 1 << 15];
        let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
        for _ in 0..1_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) & (table.len() - 1);
            table[slot] = table[slot].wrapping_add(x);
        }
        black_box(&table);
        self.calibrations.push(t.elapsed().as_secs_f64());
    }

    /// Median calibration time in seconds.
    pub fn calib_s(&self) -> f64 {
        crate::median(&self.calibrations)
    }

    /// Host threads available to this process.
    pub fn parallelism() -> usize {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }

    /// Seconds this thread waited on a runqueue since [`Host::start`]
    /// (0 where the kernel does not expose schedstat).
    pub fn runqueue_wait_s(&self) -> f64 {
        match (self.wait_at_start_ns, runqueue_wait_ns()) {
            (Some(a), Some(b)) => b.saturating_sub(a) as f64 / 1e9,
            _ => 0.0,
        }
    }

    /// The facts as `(name, value, unit)` metrics.
    pub fn metrics(&self) -> Vec<crate::Metric> {
        vec![
            ("host.calib_s".into(), self.calib_s(), "s"),
            ("host.parallelism".into(), Self::parallelism() as f64, "count"),
            ("host.runqueue_wait_s".into(), self.runqueue_wait_s(), "s"),
            ("host.calib_samples".into(), self.calibrations.len() as f64, "count"),
        ]
    }
}

/// Second field of `/proc/thread-self/schedstat`: nanoseconds spent
/// runnable but waiting for a CPU.
fn runqueue_wait_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    s.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
