//! Device profiles: the machine parameters of the simulated GPU.

/// Static machine description. The default profile mirrors the paper's
/// NVIDIA Tesla P100 (56 SMs, 4 MiB L2, 16 GB HBM2, 9.3 SP TFLOPS).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    pub name: &'static str,
    /// Streaming multiprocessors.
    pub num_sms: usize,
    /// Threads per warp (lockstep lanes).
    pub warp_size: usize,
    /// Resident-warp capacity of one SM (occupancy denominator).
    pub max_warps_per_sm: usize,
    /// Resident-block capacity of one SM.
    pub max_blocks_per_sm: usize,
    /// Warp-wide FP32 FMA instructions an SM retires per cycle
    /// (P100: 64 FP32 lanes = 2 warps' worth).
    pub compute_width_warps: f64,
    /// Core clock in GHz used to convert cycles to seconds.
    pub clock_ghz: f64,
    /// Device (global) memory capacity in bytes.
    pub mem_bytes: u64,
    /// L2 capacity in bytes.
    pub l2_bytes: usize,
    /// L2 line size in bytes; also the coalescing segment size.
    pub line_bytes: usize,
    /// L2 associativity.
    pub l2_assoc: usize,
}

impl DeviceProfile {
    /// The paper's evaluation platform.
    pub fn p100() -> DeviceProfile {
        DeviceProfile {
            name: "Tesla P100 (Pascal)",
            num_sms: 56,
            warp_size: 32,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 32,
            compute_width_warps: 2.0,
            clock_ghz: 1.33,
            mem_bytes: 16 * 1024 * 1024 * 1024,
            l2_bytes: 4 * 1024 * 1024,
            line_bytes: 128,
            l2_assoc: 16,
        }
    }

    /// A Tesla V100 (Volta) profile — the P100's successor, for
    /// device-generation sweeps: more SMs, bigger L2, higher clock.
    pub fn v100() -> DeviceProfile {
        DeviceProfile {
            name: "Tesla V100 (Volta)",
            num_sms: 80,
            warp_size: 32,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 32,
            compute_width_warps: 2.0,
            clock_ghz: 1.53,
            mem_bytes: 16 * 1024 * 1024 * 1024,
            l2_bytes: 6 * 1024 * 1024,
            line_bytes: 128,
            l2_assoc: 16,
        }
    }

    /// A deliberately small device for unit tests: imbalance effects show
    /// at tiny scales and cache behaviour is easy to reason about.
    pub fn tiny() -> DeviceProfile {
        DeviceProfile {
            name: "tiny-test-device",
            num_sms: 4,
            warp_size: 32,
            max_warps_per_sm: 16,
            max_blocks_per_sm: 8,
            compute_width_warps: 1.0,
            clock_ghz: 1.0,
            mem_bytes: 256 * 1024,
            l2_bytes: 16 * 1024,
            line_bytes: 128,
            l2_assoc: 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_geometry_is_consistent() {
        for d in [
            DeviceProfile::p100(),
            DeviceProfile::v100(),
            DeviceProfile::tiny(),
        ] {
            let lines = d.l2_bytes / d.line_bytes;
            assert_eq!(lines % d.l2_assoc, 0, "{}: sets must be integral", d.name);
        }
    }

    #[test]
    fn v100_outranks_p100() {
        let p = DeviceProfile::p100();
        let v = DeviceProfile::v100();
        assert!(v.num_sms > p.num_sms);
        assert!(v.l2_bytes > p.l2_bytes);
    }
}
