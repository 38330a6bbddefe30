//! The run environment recorded with every run, and the `/proc` probes the
//! metrics read: peak RSS, process CPU time and the host's CPU steal.

use std::fs;

/// Where and how a run was made.
#[derive(Clone, Debug)]
pub struct RunEnv {
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// Worker threads the workload ran with.
    pub threads: usize,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
}

impl RunEnv {
    /// Probe the current process and host.
    pub fn probe(threads: usize) -> Self {
        Self {
            commit: git_commit().unwrap_or_else(|| "unknown".into()),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".into()),
            available_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            threads,
            rustc: env!("ROUNDBENCH_RUSTC"),
            profile: env!("ROUNDBENCH_PROFILE"),
        }
    }
}

/// Resolve `.git/HEAD` in the working directory without running git.
fn git_commit() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// `VmHWM` of this process in MB (MiB), 0 when unavailable.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds this process (all its threads, live and
/// exited) has used, from `/proc/self/stat` at the kernel's 100 Hz `USER_HZ`.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

/// Aggregate CPU jiffies of the host from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuJiffies {
    /// Jiffies stolen by the hypervisor.
    pub steal: u64,
    /// Jiffies of every kind.
    pub total: u64,
}

impl CpuJiffies {
    /// Read the counters now (zeros when `/proc/stat` is unreadable).
    pub fn now() -> Self {
        let Ok(stat) = fs::read_to_string("/proc/stat") else {
            return Self::default();
        };
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return Self::default();
        };
        let values: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already counted in user and nice.
        Self {
            steal: values.get(7).copied().unwrap_or(0),
            total: values.iter().take(8).sum(),
        }
    }

    /// Stolen jiffies and the stolen share of all jiffies since `earlier`.
    pub fn steal_since(self, earlier: CpuJiffies) -> (u64, f64) {
        let steal = self.steal.saturating_sub(earlier.steal);
        let total = self.total.saturating_sub(earlier.total);
        let share = if total == 0 {
            0.0
        } else {
            steal as f64 / total as f64
        };
        (steal, share)
    }
}
