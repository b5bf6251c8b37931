//! Resource use of a process, read from `/proc` — the process-boundary
//! view of the `minos-cluster` layer.

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. Fixed
/// at 100 on Linux whatever the kernel's tick rate.
const TICKS_PER_S: f64 = 100.0;

#[derive(Default, Clone, Copy, Debug)]
pub struct ProcSample {
    /// `utime + stime` of all threads, in µs (10 ms granularity).
    pub cpu_us: f64,
    /// Voluntary + involuntary context switches, summed over live threads.
    pub ctxsw: u64,
    pub threads: u64,
    pub rss_kb: u64,
}

fn status_field(status: &str, name: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Samples `pid`; a process that is gone reads as all zeros.
pub fn sample(pid: u32) -> ProcSample {
    let mut s = ProcSample::default();
    if let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        // Fields after the parenthesised command name; utime and stime are
        // the 14th and 15th of the whole line.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let field = |n: usize| -> f64 {
            rest.split_whitespace()
                .nth(n - 3)
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0)
        };
        s.cpu_us = (field(14) + field(15)) / TICKS_PER_S * 1e6;
    }
    if let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) {
        s.threads = status_field(&status, "Threads");
        s.rss_kb = status_field(&status, "VmRSS");
    }
    if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
        for task in tasks.flatten() {
            if let Ok(status) = std::fs::read_to_string(task.path().join("status")) {
                s.ctxsw += status_field(&status, "voluntary_ctxt_switches")
                    + status_field(&status, "nonvoluntary_ctxt_switches");
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    #[test]
    fn samples_this_process() {
        let s = super::sample(std::process::id());
        assert!(s.threads >= 1 && s.rss_kb > 0);
    }
}
