//! Host-memory introspection for bounded-memory (streaming) runs.
//!
//! The billion-scale ingestion pipeline's whole claim is a *host* peak-RSS
//! bound, so the number must come from the operating system, not from
//! self-accounting. On Linux `/proc/self/status` exposes both the current
//! resident set (`VmRSS`) and the process-lifetime high-water mark
//! (`VmHWM`); elsewhere the probes return `None` and callers record zero.

/// The process-lifetime peak resident set size in bytes (`VmHWM`), or
/// `None` when the platform offers no `/proc/self/status`.
pub fn peak_rss_bytes() -> Option<u64> {
    status_bytes(&proc_status()?, "VmHWM:")
}

/// The current resident set size in bytes (`VmRSS`), or `None` when the
/// platform offers no `/proc/self/status`.
pub fn current_rss_bytes() -> Option<u64> {
    status_bytes(&proc_status()?, "VmRSS:")
}

/// One snapshot of `/proc/self/status`.
fn proc_status() -> Option<String> {
    std::fs::read_to_string("/proc/self/status").ok()
}

/// Parses a `kB` line of a status snapshot, e.g. `VmHWM:  123456 kB`,
/// into bytes.
fn status_bytes(status: &str, key: &str) -> Option<u64> {
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(key) {
            return rest
                .split_whitespace()
                .next()
                .and_then(|n| n.parse::<u64>().ok())
                .map(|kib| kib * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_and_at_least_current() {
        // Both values must parse on Linux; peak >= current by definition
        // within one snapshot. Two separate reads could straddle a
        // sibling test's allocation and see the current size pass the
        // peak read before it.
        let status = proc_status().expect("/proc/self/status should read on Linux");
        let peak = status_bytes(&status, "VmHWM:").expect("VmHWM should parse on Linux");
        let cur = status_bytes(&status, "VmRSS:").expect("VmRSS should parse on Linux");
        assert!(current_rss_bytes().is_some_and(|b| b > 0));
        assert!(peak > 0);
        assert!(peak >= cur, "peak {peak} < current {cur}");
    }

    #[test]
    fn peak_rss_tracks_large_allocations() {
        let before = peak_rss_bytes().unwrap();
        // Touch every page so the allocation is actually resident.
        let v = vec![7u8; 64 << 20];
        let sum: u64 = v.iter().step_by(4096).map(|&b| b as u64).sum();
        assert!(sum > 0);
        let after = peak_rss_bytes().unwrap();
        assert!(
            after >= before,
            "high-water mark went backwards: {before} -> {after}"
        );
    }
}
