//! Facts about the host and the process, read from `/proc` and the checkout.

use std::path::Path;

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
///
/// Sampled after a workload's first repetition: the allocator's per-thread
/// arenas make the peak of a long run grow with its number of repetitions.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// The 1-minute load average, or `NaN` where `/proc/loadavg` is unreadable.
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

/// Logical CPUs available to this process.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The commit of the checkout in the working directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn git_sha() -> String {
    resolve_head(Path::new(".git")).unwrap_or_else(|| "unknown".to_string())
}

fn resolve_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (sha, name) = line.split_once(' ')?;
        (name == reference).then(|| sha.to_string())
    })
}
