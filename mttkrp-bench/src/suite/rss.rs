//! Per-phase peak resident set size, read from outside the library.
//!
//! Writing `5` to `/proc/self/clear_refs` resets the kernel's high-water
//! mark (`VmHWM`) to the current RSS, so the mark read at the end of a
//! phase is that phase's own peak. Where the reset is refused the phase
//! reports `None`: a process-wide peak would carry earlier phases' memory.

/// A phase whose peak RSS is being measured.
pub struct Phase {
    reset: bool,
}

impl Phase {
    /// Resets the high-water mark and starts the phase.
    pub fn start() -> Phase {
        Phase {
            reset: std::fs::write("/proc/self/clear_refs", "5").is_ok(),
        }
    }

    /// The phase's peak RSS in MiB, or `None` when it cannot be isolated.
    pub fn peak_mb(self) -> Option<f64> {
        if !self.reset {
            return None;
        }
        simprof::peak_rss_bytes().map(|b| b as f64 / (1u64 << 20) as f64)
    }
}
