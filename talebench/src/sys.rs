//! Facts about the machine and the process: cores, peak memory, bytes
//! written, the commit being measured, sizes on disk.

use std::path::Path;

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A `kB` field of `/proc/self/status`.
fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .split_whitespace()
        .next()?
        .parse::<f64>()
        .ok()
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib / 1024.0)
}

/// Bytes this process has passed to `write`-family calls (`wchar` of
/// `/proc/self/io`).
pub fn wchar() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|io| {
            io.lines()
                .find_map(|l| l.strip_prefix("wchar:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// CPU time (user + system, every thread, exited ones included) this
/// process has used, in seconds: `utime + stime` of `/proc/self/stat`,
/// in Linux's fixed 100 ticks a second. Time the host takes the CPUs
/// away from the machine (steal) is not in it; a busy host still moves
/// it through shared caches, but far less than it moves latency.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // fields after the parenthesised command name, which may hold spaces
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    ticks.iter().sum::<f64>() / 100.0
}

/// Seconds the host has taken the machine's CPUs away from it (steal,
/// summed over CPUs), from `/proc/stat`.
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?.strip_prefix("cpu ")?;
            cpu.split_whitespace().nth(7)?.parse::<f64>().ok()
        })
        .map_or(0.0, |t| t / 100.0)
}

/// The commit being measured: `.git/HEAD` resolved when the working
/// directory is a git checkout, otherwise `unknown`.
pub fn git_commit() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let git = Path::new(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(id) = read(&git.join(reference)) {
        return id;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}
