//! The benchmark's clocks.
//!
//! Every reported time is read from the driver thread's CPU clock. The
//! system under test is a single-threaded, in-memory simulation: it never
//! sleeps, never waits on real I/O and runs no other thread, so the time the
//! driver thread spends on the CPU *is* the system's service time, and wall
//! time adds only whatever the host scheduler did to the process. Wall and
//! process CPU time are read too, but only to report how far they drift
//! from the thread clock (`harness.wall_over_cpu`,
//! `harness.process_over_thread_cpu`).

use std::ffi::{c_int, c_long};

#[repr(C)]
struct BmTimespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut BmTimespec) -> c_int;
}

const CLOCK_MONOTONIC: c_int = 1;
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn bm_read_clock(clock: c_int) -> u64 {
    let mut ts = BmTimespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two C longs on
    // every Linux target this benchmark builds for) that outlives the call,
    // and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by the calling thread, in nanoseconds.
#[must_use]
pub fn bm_thread_cpu_ns() -> u64 {
    bm_read_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time consumed by the whole process, in nanoseconds.
#[must_use]
pub fn bm_process_cpu_ns() -> u64 {
    bm_read_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// Monotonic wall time, in nanoseconds.
#[must_use]
pub fn bm_wall_ns() -> u64 {
    bm_read_clock(CLOCK_MONOTONIC)
}

/// The whole machine's CPU ticks by class, from the first line of
/// `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct BmHostCpu {
    /// Ticks in every class.
    pub total: u64,
    /// Ticks in kernel mode (`system + irq + softirq`).
    pub system: u64,
    /// Ticks the hypervisor gave to someone else.
    pub steal: u64,
}

impl BmHostCpu {
    /// Reads `/proc/stat`; all-zero when it is absent or unreadable.
    #[must_use]
    pub fn bm_read() -> Self {
        let Ok(text) = std::fs::read_to_string("/proc/stat") else {
            return BmHostCpu::default();
        };
        let fields: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice]
        let at = |i: usize| fields.get(i).copied().unwrap_or(0);
        BmHostCpu {
            total: fields.iter().take(8).sum(),
            system: at(2) + at(5) + at(6),
            steal: at(7),
        }
    }

    /// Shares of the machine's ticks since `earlier` that were kernel time
    /// and stolen time.
    #[must_use]
    pub fn bm_shares_since(&self, earlier: &BmHostCpu) -> (f64, f64) {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return (0.0, 0.0);
        }
        (
            self.system.saturating_sub(earlier.system) as f64 / total as f64,
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64,
        )
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
#[must_use]
pub fn bm_peak_rss_mib() -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_clock_advances_with_work_not_with_sleep() {
        let t0 = bm_thread_cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = bm_thread_cpu_ns() - t0;
        assert!(slept < 10_000_000, "sleep charged {slept} ns of CPU");

        let t0 = bm_thread_cpu_ns();
        let mut x = 0u64;
        while bm_thread_cpu_ns() - t0 < 5_000_000 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(bm_wall_ns() > 0 && bm_process_cpu_ns() >= 5_000_000);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(bm_peak_rss_mib() > 0.0);
    }
}
