//! Host-speed probe: a fixed set of kernels that does not depend on the
//! library, timed between repetitions.
//!
//! On a shared host the same work runs faster in some minutes than in
//! others as other tenants' load changes, on the CPU clock as much as on
//! the wall clock: one `cpd-darpa` solve took 0.45 s or 0.72 s of CPU
//! time a minute apart. A repetition's CPU time is therefore scaled by
//! how long this probe took next to it (see [`reference_seconds`]). A
//! change to the library moves the repetition and not the probe.
//!
//! The workloads feel a change of host speed more than the probe does,
//! so the scale is the probe's speed-up raised to [`SENSITIVITY`].
//!
//! The probe times four kernels and takes their geometric mean, so no one
//! kind of contention dominates: a sequential write and read of a 64 MiB
//! table (bandwidth), random reads from it (the row gathers of a sparse
//! MTTKRP), a cache-resident dense product (core speed) and a sort of
//! random keys (branches). Its buffers are freed before it returns, so it
//! adds nothing to the phases' peak memory.

use super::clock::Stopwatch;

/// Entries of the 64 MiB table the memory kernels use.
const TABLE_LEN: usize = 1 << 24;

/// Random reads from the table per probe.
const GATHERS: usize = 1 << 21;

/// Side of the dense product's square matrices, and products per probe.
const DIM: usize = 128;
const PRODUCTS: usize = 8;

/// Keys sorted per probe.
const KEYS: usize = 1 << 19;

/// The probe's time, in CPU seconds, on the reference host: a shared
/// 2-vCPU Intel Xeon VM (Linux 6.18, rustc 1.95 release build), median
/// of 884 probes over 100 runs.
pub(crate) const REFERENCE_PROBE_S: f64 = 0.0178;

/// How much more a repetition's CPU time moves than the probe's as the
/// host's speed drifts: `ln(repetition) ≈ SENSITIVITY · ln(probe) + c`.
/// Fitted on the reference host over 220 runs of the five workloads
/// spread over two hours, in which a run's median probe time ranged over
/// a factor of 1.5. Per workload the slope is 1.3 (`cpd-frm-r32`, dense
/// algebra) to 1.8 (`cpd-darpa`, gathers). With 1.6, the medians of each
/// workload's total time over five batches of those runs stay within 11%
/// of each other, against 29% with the plain ratio.
pub(crate) const SENSITIVITY: f64 = 1.6;

/// `seconds` of CPU time scaled to the reference host's speed, given the
/// probe's time measured next to it.
pub(crate) fn reference_seconds(seconds: f64, probe_s: f64) -> f64 {
    seconds * (REFERENCE_PROBE_S / probe_s).powf(SENSITIVITY)
}

/// 64-bit linear congruential step (Knuth's MMIX constants).
fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// CPU seconds of `f`.
fn timed(f: impl FnOnce()) -> f64 {
    let sw = Stopwatch::start();
    f();
    sw.elapsed().cpu_s
}

/// Runs the probe once: the geometric mean of its kernels' CPU seconds.
pub(crate) fn run() -> f64 {
    let mut table: Vec<u32> = Vec::with_capacity(TABLE_LEN);
    let stream = timed(|| {
        table.extend((0..TABLE_LEN as u32).map(|i| i.wrapping_mul(2654435761)));
        let sum = table.iter().fold(0u32, |acc, &v| acc.wrapping_add(v));
        std::hint::black_box(sum);
    });
    let gather = timed(|| {
        let (mut x, mut sum) = (1u64, 0u32);
        for _ in 0..GATHERS {
            x = lcg(x);
            sum = sum.wrapping_add(table[(x >> 40) as usize % TABLE_LEN]);
        }
        std::hint::black_box(sum);
    });
    drop(table);

    let a = vec![1.0f32; DIM * DIM];
    let b = vec![0.5f32; DIM * DIM];
    let mut c = vec![0.0f32; DIM * DIM];
    let dense = timed(|| {
        for _ in 0..PRODUCTS {
            for (row, out) in a.chunks_exact(DIM).zip(c.chunks_exact_mut(DIM)) {
                for (&av, brow) in row.iter().zip(b.chunks_exact(DIM)) {
                    for (o, &bv) in out.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
        }
        std::hint::black_box(&c);
    });

    let mut keys: Vec<u64> = std::iter::successors(Some(7u64), |&x| Some(lcg(x)))
        .take(KEYS)
        .collect();
    let sort = timed(|| {
        keys.sort_unstable();
        std::hint::black_box(&keys);
    });

    (stream * gather * dense * sort).powf(0.25)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_takes_milliseconds_and_a_slow_probe_scales_down() {
        let p = run();
        assert!(p > 0.0 && p < 1.0, "probe took {p} s");
        assert_eq!(reference_seconds(2.0, REFERENCE_PROBE_S), 2.0);
        let halved = reference_seconds(2.0, 2.0 * REFERENCE_PROBE_S);
        assert!((halved - 2.0 * 0.5f64.powf(SENSITIVITY)).abs() < 1e-12);
    }
}
