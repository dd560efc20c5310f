//! Golden bits of the ALS drivers. The cross-driver suites prove that the
//! drivers agree with each other; a change that every driver shares (the
//! dense update after each MTTKRP, say) passes them unnoticed. Here each
//! run's final-fit bits, an FNV-1a hash of its λ bits and one of its
//! factor bits are pinned to values recorded before the dense kernels
//! were rewritten, so the rewrite is held to bit-identity.
//!
//! The runs cover plain least squares, the multiplicative non-negative
//! rule and the guarded driver fed a source that injects NaN and
//! overflowing entries, at ranks 5, 16 and 32, on tensors whose modes all
//! have odd row counts (so every row-blocked kernel meets a remainder row).
//!
//! On a mismatch the assertion prints the whole table as recomputed, in
//! the layout of [`GOLDEN`].

use std::cell::Cell;

use mttkrp_repro::dense::Matrix;
use mttkrp_repro::mttkrp::cpd::{from_fn, run, RunSpec, UpdateRule};
use mttkrp_repro::mttkrp::{reference, CpdOptions, CpdResult, ResilienceOptions};
use mttkrp_repro::sptensor::synth::uniform_random;
use mttkrp_repro::sptensor::CooTensor;

/// One pinned run: driver, tensor index, rank, final-fit bits, λ hash,
/// factor hash, and (guarded runs only) the scrub and rollback counts.
type Golden = (&'static str, usize, usize, u64, u64, u64, u64, u64);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("plain", 0, 5, 0x3f9be36916d858c0, 0xa4be1c06e931bc1e, 0xbf72e71cec1d59c7, 0, 0),
    ("nonneg", 0, 5, 0x3f97a210a6dd90a0, 0xd545c36139abf32d, 0x38471f0d62d17771, 0, 0),
    ("resilient", 0, 5, 0x3f90d2d5da6035e0, 0x3b0933826746155d, 0xe230a828fa1c5168, 8, 3),
    ("plain", 0, 16, 0x3facd72e52e3fee0, 0x6df0b9d59a189599, 0x358f12f1d60edaa3, 0, 0),
    ("nonneg", 0, 16, 0x3fa5b348a765ccb0, 0x8691e903a17bbfe6, 0xc032ca306536d302, 0, 0),
    ("resilient", 0, 16, 0x3f99a119426e7de0, 0x15515d0c3aaf024e, 0x50973b0a0d772e04, 35, 3),
    ("plain", 0, 32, 0x3fb6a15277e03738, 0xec7024908bdd18a9, 0x30bbf8dc484d6983, 0, 0),
    ("nonneg", 0, 32, 0x3fb0df6bb056b8e0, 0x164f1408dfc45390, 0xb72996091ffa043c, 0, 0),
    ("resilient", 0, 32, 0x3fb06197c01c00d0, 0xc5cffb32316fae15, 0xf31fd2749c78443d, 67, 2),
    ("plain", 1, 5, 0x3f88adc45d6c01c0, 0x9de2867b54fa9a78, 0x3c97e9e3a6a9819e, 0, 0),
    ("nonneg", 1, 5, 0x3f858e13532ebe40, 0x9d97590856cd7f89, 0x257b73accbcf54ba, 0, 0),
    ("resilient", 1, 5, 0x3f89035fb0c8d3c0, 0x982ed19b32ca2c39, 0xebe4f8a13bf83dc8, 7, 2),
    ("plain", 1, 16, 0x3f9d57e79d0ae400, 0x727fa7b8050eace5, 0x9550f831ef05b3bb, 0, 0),
    ("nonneg", 1, 16, 0x3f99b99704b35840, 0xa9ea6d61c1a2b406, 0x269d588bbaf31812, 0, 0),
    ("resilient", 1, 16, 0x3f9b0af02071b720, 0xd1df49e1e5210325, 0x4c5411602be90a80, 27, 2),
    ("plain", 1, 32, 0x3fababc1b8811870, 0x33620b63efd5c5fb, 0x877d6571fd3c7f16, 0, 0),
    ("nonneg", 1, 32, 0x3fa6c72592c1e850, 0x0cd905ba73a8434b, 0xdd623cd2f439f1ec, 0, 0),
    ("resilient", 1, 32, 0x3fab7d6d90a68f30, 0x5977f8a0cff73be4, 0x112e54dbf30bf547, 75, 1),
];

const RANKS: [usize; 3] = [5, 16, 32];

fn tensors() -> Vec<CooTensor> {
    vec![
        uniform_random(&[45, 37, 29], 2_000, 0x601D),
        uniform_random(&[23, 19, 17, 11], 1_500, 0x8175),
    ]
}

fn opts(rank: usize) -> CpdOptions {
    CpdOptions {
        rank,
        max_iters: 6,
        tol: 0.0,
        seed: 0xB175 + rank as u64,
    }
}

/// FNV-1a over the little-endian bytes of each word.
fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn row(driver: &'static str, tensor: usize, rank: usize, res: &CpdResult) -> Golden {
    let lambda = fnv1a(res.lambda.iter().map(|v| v.to_bits()));
    let factors = fnv1a(
        res.factors
            .iter()
            .flat_map(|f| f.data().iter().map(|v| v.to_bits())),
    );
    (
        driver,
        tensor,
        rank,
        res.final_fit().to_bits(),
        lambda,
        factors,
        0,
        0,
    )
}

/// Every run of the table, in table order.
fn recompute() -> Vec<Golden> {
    let mut out = Vec::new();
    for (ti, t) in tensors().iter().enumerate() {
        let exact = |f: &[Matrix], m: usize| reference::mttkrp(t, f, m);
        for rank in RANKS {
            let o = opts(rank);
            let res = run(t, RunSpec::new(o), from_fn(exact)).unwrap().result;
            out.push(row("plain", ti, rank, &res));

            let nonneg = RunSpec {
                rule: UpdateRule::Nonneg,
                ..RunSpec::new(o)
            };
            let res = run(t, nonneg, from_fn(exact)).expect("uniform_random values are positive");
            out.push(row("nonneg", ti, rank, &res.result));

            // Every 5th output gets a NaN, every 7th an overflowing row:
            // the NaN is scrubbed from the MTTKRP, the overflow reaches the
            // update as non-finite factor entries and column norms.
            let calls = Cell::new(0usize);
            let poisoned = |f: &[Matrix], m: usize| {
                let mut y = reference::mttkrp(t, f, m);
                let n = calls.replace(calls.get() + 1);
                if n % 5 == 4 {
                    y.set(0, 0, f32::NAN);
                }
                if n % 7 == 3 {
                    y.row_mut(1).fill(f32::MAX);
                }
                y
            };
            let ropts = ResilienceOptions::default();
            let guarded = RunSpec {
                resilience: Some(&ropts),
                ..RunSpec::new(o)
            };
            let res = run(t, guarded, from_fn(poisoned)).unwrap();
            let mut g = row("resilient", ti, rank, &res.result);
            (g.6, g.7) = (res.stats.nan_resets, res.stats.rollbacks);
            out.push(g);
        }
    }
    out
}

#[test]
fn als_drivers_reproduce_their_golden_bits() {
    let got = recompute();
    let table: String = got
        .iter()
        .map(|(d, t, r, fit, l, f, nan, rb)| {
            format!("    ({d:?}, {t}, {r}, {fit:#018x}, {l:#018x}, {f:#018x}, {nan}, {rb}),\n")
        })
        .collect();
    assert!(
        got.as_slice() == GOLDEN,
        "golden bits changed; recomputed table:\n{table}"
    );
}
