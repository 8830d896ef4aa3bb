//! The benchmark's host clocks: wall time and process CPU time.
//!
//! Host time is what this benchmark measures, so it reads the monotonic
//! clock directly; every span and every wall timing goes through
//! [`now`]. End-to-end run time is CPU time ([`cpu_s`] for the whole
//! process, [`thread_cpu_s`] for one thread): time spent descheduled
//! while other work shares the machine adds to wall time but not to CPU
//! time.

// lint:allow-file(no-wall-clock): host wall time is the quantity this benchmark reports.

use std::time::Instant;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`,
/// 100 on every Linux architecture the workspace builds for).
const USER_HZ: f64 = 100.0;

/// The current monotonic instant.
#[allow(clippy::disallowed_methods)] // host wall time is the measurement
#[inline]
pub fn now() -> Instant {
    Instant::now()
}

/// CPU time the process has used so far, user plus system, over all its
/// threads (exited threads included), in seconds. The resolution is one
/// clock tick, 10 ms.
pub fn cpu_s() -> Result<f64, String> {
    stat_cpu_s("/proc/self/stat")
}

/// CPU time the calling thread has used so far, user plus system, in
/// seconds. The resolution is one clock tick, 10 ms.
pub fn thread_cpu_s() -> Result<f64, String> {
    stat_cpu_s("/proc/thread-self/stat")
}

fn stat_cpu_s(path: &str) -> Result<f64, String> {
    let stat = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path} for CPU time: {e}"))?;
    // Fields after the parenthesised command name, from `state` on:
    // `utime` and `stime` are the 12th and 13th.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => Ok((user + system) as f64 / USER_HZ),
        _ => Err(format!("unexpected {path}: {stat}")),
    }
}
