//! Wall time and process CPU time of a timed interval.
//!
//! The end-to-end times are built on CPU seconds: every layer runs on the
//! calling thread, so the process's CPU time is the work done, while wall
//! time also holds the intervals in which a shared host ran something
//! else. Wall time is kept beside it.

use std::time::Instant;

#[cfg(not(target_os = "linux"))]
compile_error!("mttkrp-bench reads process CPU time through Linux's clock_gettime");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` in Linux's `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds the process has used, over all its threads.
fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the duration
    // of the call, and the clock id is one Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and CPU seconds of one interval.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Times {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl std::ops::Add for Times {
    type Output = Times;
    fn add(self, o: Times) -> Times {
        Times {
            wall_s: self.wall_s + o.wall_s,
            cpu_s: self.cpu_s + o.cpu_s,
        }
    }
}

/// Both clocks, read at the start of an interval.
pub(crate) struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    /// Wall and CPU seconds since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Times {
        Times {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s() - self.cpu_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Other tests run on parallel threads of this process and add to its
    // CPU time, so only a lower bound holds here.
    #[test]
    fn cpu_time_counts_work() {
        let sw = Stopwatch::start();
        let mut x = 0u64;
        while sw.elapsed().cpu_s < 0.02 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let busy = sw.elapsed();
        assert!(busy.wall_s > 0.0 && busy.cpu_s >= 0.02, "{busy:?}");
    }
}
