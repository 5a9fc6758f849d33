//! Host context: the CPU a run is pinned to, and how much of the machine
//! the run had.
//!
//! Two readings of `/proc`, one before and one after the measured phase,
//! give the run's own CPU time per wall second and the share of all CPU
//! time that other processes used meanwhile. Both are printed next to the
//! metrics, so a run disturbed by a neighbouring process shows up in the
//! steadiness evidence instead of passing for a regression.

use std::time::Instant;

/// One snapshot of machine-wide and own CPU time, in clock ticks.
#[derive(Debug, Clone, Copy)]
pub struct CpuSnapshot {
    at: Instant,
    /// Ticks of all CPUs, busy and idle.
    total: u64,
    /// Busy (non-idle, non-iowait) ticks of all CPUs, steal included.
    busy: u64,
    /// This process's user + system ticks.
    own: u64,
    cpus: u64,
}

/// What the host did during a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contention {
    /// This process's CPU seconds per wall second (above 1 when its
    /// threads ran in parallel).
    pub own_cpu_per_wall: f64,
    /// Share of all CPU time (every core) other processes used, time the
    /// hypervisor gave to other guests included.
    pub other_cpu_share: f64,
    /// Online CPUs.
    pub cpus: u64,
}

impl CpuSnapshot {
    /// Reads `/proc/stat` and `/proc/self/stat`; `None` where `/proc` is
    /// unavailable.
    pub fn take() -> Option<Self> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let mut total = 0;
        let mut busy = 0;
        let mut cpus = 0;
        for line in stat.lines() {
            if let Some(rest) = line.strip_prefix("cpu ") {
                let ticks: Vec<u64> = rest
                    .split_whitespace()
                    .filter_map(|v| v.parse().ok())
                    .collect();
                // user nice system idle iowait irq softirq steal ...; guest
                // time is already inside user/nice.
                total = ticks.iter().take(8).sum();
                let idle =
                    ticks.get(3).copied().unwrap_or(0) + ticks.get(4).copied().unwrap_or(0);
                busy = total - idle;
            } else if line.starts_with("cpu") {
                cpus += 1;
            }
        }
        let own_stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // Fields after the parenthesised command name; utime and stime are
        // the 14th and 15th fields of the whole line.
        let after = &own_stat[own_stat.rfind(')')? + 1..];
        let fields: Vec<&str> = after.split_whitespace().collect();
        let own = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
        Some(Self {
            at: Instant::now(),
            total,
            busy,
            own,
            cpus: cpus.max(1),
        })
    }

    /// Contention between this (earlier) snapshot and `later`.
    pub fn until(&self, later: &CpuSnapshot) -> Contention {
        let total = later.total.saturating_sub(self.total).max(1) as f64;
        let busy = later.busy.saturating_sub(self.busy) as f64;
        let own = later.own.saturating_sub(self.own) as f64;
        // Wall time in ticks: all-CPU ticks spread over the CPUs, which
        // avoids assuming the kernel's tick rate.
        let wall_ticks = total / self.cpus as f64;
        let wall_s = later.at.duration_since(self.at).as_secs_f64();
        Contention {
            own_cpu_per_wall: if wall_s > 0.0 { own / wall_ticks } else { 0.0 },
            other_cpu_share: ((busy - own) / total).max(0.0),
            cpus: self.cpus,
        }
    }
}

/// Pins the calling thread — and so every thread it starts afterwards — to
/// the CPU it is running on, and returns that CPU.
///
/// On a small virtual machine the hypervisor steals time from each vCPU
/// independently, and a fork-join fan-out waits for its slowest part, so a
/// run spread over every vCPU swings with the neighbours' load far more
/// than a run on one. One CPU keeps the benchmark steady; parallel speedup
/// is out of its sight.
pub fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reports which CPU
    // the calling thread runs on.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised `cpu_set_t`-sized buffer for the
    // whole call, and `cpusetsize` is its exact size; pid 0 names the
    // calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}
